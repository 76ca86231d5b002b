"""Driving-world substrate (CARLA substitute).

The paper's experimental scenario (Section VI-A) is a 100 m road populated
with obstacles in its final third, driven by an autonomous agent whose
steering output is optionally filtered by a controller shield.  This package
re-implements that scenario on top of the kinematic vehicle model and
generalizes it into a scenario-diversity subsystem (see ``docs/scenarios.md``):

* :mod:`repro.sim.road` — segment-based road geometry (straights and arcs)
  with a Frenet frame; the paper's straight road is the trivial
  single-segment case.
* :mod:`repro.sim.obstacles` — obstacle discs, optional motion policies and
  the risk-level placement.
* :mod:`repro.sim.world` — mutable world holding the ego vehicle, stepping
  the dynamics (and moving obstacles) and answering the relative-geometry
  queries SEO needs.
* :mod:`repro.sim.scenario` — scenario configuration, construction and the
  named scenario-family registry (obstacle count is the paper's "risk
  level" knob).
* :mod:`repro.sim.observation` — obstacle-only range scans, the input of
  the detectors (the critical VAE is an energy profile and reads no scan).
* :mod:`repro.sim.episode` — ground-truth closed-loop episode runner used by
  the safety-filter evaluation.

Sensor dropout is a scenario knob (``ScenarioConfig.sensor_dropout_probability``)
applied by the SEO runtime loop, not a separate sensor model.
"""

from repro.sim.road import (
    ArcSegment,
    Centerline,
    LanePose,
    Road,
    RoadSegment,
    StraightSegment,
)
from repro.sim.obstacles import (
    ConstantVelocity,
    Obstacle,
    WaypointLoop,
    attach_motion,
    place_obstacles,
)
from repro.sim.collision import circle_hit, first_collision
from repro.sim.world import World
from repro.sim.scenario import (
    DEFAULT_SUITE,
    ScenarioConfig,
    ScenarioFamily,
    ScenarioSuite,
    build_world,
)
from repro.sim.observation import RangeScanner
from repro.sim.episode import EpisodeResult, EpisodeRunner

__all__ = [
    "ArcSegment",
    "Centerline",
    "ConstantVelocity",
    "DEFAULT_SUITE",
    "EpisodeResult",
    "EpisodeRunner",
    "LanePose",
    "Obstacle",
    "RangeScanner",
    "Road",
    "RoadSegment",
    "ScenarioConfig",
    "ScenarioFamily",
    "ScenarioSuite",
    "StraightSegment",
    "WaypointLoop",
    "World",
    "attach_motion",
    "build_world",
    "circle_hit",
    "first_collision",
    "place_obstacles",
]
