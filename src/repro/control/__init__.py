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

Each controller is one kernel, ``act_batch``, over ``(N,)`` arrays of the
aggregated perception outputs Theta (ego speed, Frenet pose, road
curvature and, for the heuristic, the nearest held detection); the SEO
frame loop (:func:`repro.runtime.batch.run_cells`) calls it on every live
episode at once.
"""

from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController

__all__ = [
    "ObstacleAvoidanceController",
    "PurePursuitController",
]
