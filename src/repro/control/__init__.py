"""Controllers (the downstream control task ``pi``).

The paper's controller is an RL agent trained in CARLA to output steering and
throttle.  The reproduction substitutes two hand-written controllers behind
one interface (``SEOConfig.controller`` selects ``heuristic`` or
``pure_pursuit``):

* :class:`ObstacleAvoidanceController` — a heuristic expert combining lane
  keeping, obstacle repulsion and speed control.  It stands in for the
  paper's trained RL agent and is the default in every experiment: SEO only
  needs a controller that completes the course, not a learned one.
* :class:`PurePursuitController` — a lane follower with no obstacle
  awareness; useful as a stress case for the safety filter.

All controllers can act either from ground truth (``act(world)``) or from the
aggregated perception outputs Theta (``act_from_inputs``), which is how the
SEO runtime loop drives them.
"""

from repro.control.base import ControlInputs, Controller
from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController

__all__ = [
    "ControlInputs",
    "Controller",
    "ObstacleAvoidanceController",
    "PurePursuitController",
]
