"""Scenario configuration: the paper's 100 m obstacle-course use case.

Beyond the paper's single scenario, :class:`ScenarioSuite` keeps a registry
of named scenario *families* (dense traffic, high-speed highway, narrow
road, ...) so experiment drivers and the CLI can widen workload diversity
without hand-writing configs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from collections.abc import Iterator

import numpy as np

from repro.dynamics.params import VehicleParams
from repro.dynamics.state import VehicleState
from repro.sim.obstacles import (
    MOTION_MODES,
    OBSTACLE_ZONE_END_FRACTION,
    attach_motion,
    place_obstacles,
)
from repro.sim.road import ArcSegment, Road, RoadSegment, StraightSegment
from repro.sim.world import World


#: ``ScenarioConfig`` float fields that must be finite: a NaN passes every
#: range check below and an infinity some, and either then builds a world
#: that runs wrong.  The two fractions are left out: their ``[0, 1)`` range
#: checks already refuse both.
_FINITE_FIELDS = (
    "road_length_m",
    "road_width_m",
    "obstacle_radius_m",
    "obstacle_speed_mps",
    "initial_speed_mps",
    "target_speed_mps",
    "initial_lateral_offset_m",
)

#: ``ScenarioConfig`` count fields that must be integers (``seed`` may also
#: be ``None``).  A float count fails deep inside obstacle placement with an
#: error that names no field, and ``True`` equals ``1`` yet is no count, so
#: both are refused up front.
_INTEGRAL_FIELDS = ("num_obstacles", "seed")


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of the evaluation scenario (paper Section VI-A).

    Attributes:
        road_length_m: Route length; the paper drives a 100 m road.  Ignored
            when ``road_segments`` is given (the arc length of the segments
            defines the route).
        road_width_m: Drivable width.
        road_segments: Optional centreline segments (straights and arcs).
            ``None`` keeps the paper's straight road.
        num_obstacles: Number of obstacles in the obstacle zone; this is the
            risk-level knob swept in Fig. 6 / Table II.
        obstacle_radius_m: Radius of each obstacle's safety disc.
        obstacle_zone_start_fraction: Fraction of the route after which
            obstacles may appear; the paper populates the final third.
        obstacle_motion: Motion mode of the placed obstacles: ``"static"``
            (the paper's case), ``"lateral-loop"`` (crossing traffic
            oscillating over the corridor) or ``"oncoming"`` (constant
            velocity against the route direction).
        obstacle_speed_mps: Speed of moving obstacles (required positive for
            non-static motion).
        sensor_dropout_probability: Probability that a due perception sample
            is dropped, forcing the pipeline onto its stale-holdover
            fallback.
        initial_speed_mps: Ego speed at episode start.
        target_speed_mps: Cruise speed the controller aims for.
        initial_lateral_offset_m: Lateral offset of the start pose.
        seed: Seed :func:`build_world` places obstacles with when it is
            called without a generator (``None`` makes the generator
            required).  The episode engine never reads it: it seeds placement
            from ``SEOConfig.seed`` and the episode index.  It still takes
            part in config equality, so a sweep runs configs differing only
            in it as separate units with identical episodes.
    """

    road_length_m: float = 100.0
    road_width_m: float = 12.0
    road_segments: tuple[RoadSegment, ...] | None = None
    num_obstacles: int = 3
    obstacle_radius_m: float = 1.0
    obstacle_zone_start_fraction: float = 2.0 / 3.0
    obstacle_motion: str = "static"
    obstacle_speed_mps: float = 0.0
    sensor_dropout_probability: float = 0.0
    initial_speed_mps: float = 8.0
    target_speed_mps: float = 8.0
    initial_lateral_offset_m: float = 0.0
    seed: int | None = 0

    def __post_init__(self) -> None:
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in _INTEGRAL_FIELDS:
            value = getattr(self, name)
            if value is None and name == "seed":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.road_segments is None and self.road_length_m <= 0:
            raise ValueError(
                f"road_length_m must be positive on a straight road, got {self.road_length_m}"
            )
        if self.road_width_m <= 0:
            raise ValueError(f"road_width_m must be positive, got {self.road_width_m}")
        if self.obstacle_radius_m <= 0:
            raise ValueError(
                f"obstacle_radius_m must be positive, got {self.obstacle_radius_m}"
            )
        if not 0.0 <= self.obstacle_zone_start_fraction < 1.0:
            raise ValueError(
                "obstacle_zone_start_fraction must be in [0, 1), got "
                f"{self.obstacle_zone_start_fraction}"
            )
        if self.num_obstacles < 0:
            raise ValueError("num_obstacles must be non-negative")
        if (
            self.num_obstacles > 0
            and self.obstacle_zone_start_fraction >= OBSTACLE_ZONE_END_FRACTION
        ):
            raise ValueError(
                "obstacle_zone_start_fraction must be below "
                f"{OBSTACLE_ZONE_END_FRACTION}, where the obstacle zone ends, "
                f"when num_obstacles > 0, got {self.obstacle_zone_start_fraction}"
            )
        if self.initial_speed_mps < 0:
            raise ValueError("initial_speed_mps must be non-negative")
        if self.target_speed_mps <= 0:
            raise ValueError("target_speed_mps must be positive")
        if self.obstacle_motion not in MOTION_MODES:
            raise ValueError(
                f"unknown obstacle_motion: {self.obstacle_motion!r} "
                f"(choose from {MOTION_MODES})"
            )
        if self.obstacle_motion != "static" and self.obstacle_speed_mps <= 0:
            raise ValueError("obstacle_speed_mps must be positive for moving obstacles")
        if not 0.0 <= self.sensor_dropout_probability < 1.0:
            raise ValueError("sensor_dropout_probability must be in [0, 1)")


def build_world(
    config: ScenarioConfig,
    rng: np.random.Generator | None = None,
    vehicle_params: VehicleParams | None = None,
) -> World:
    """Construct a :class:`repro.sim.world.World` from a scenario config.

    Args:
        config: Scenario parameters.
        rng: Random generator for obstacle placement.  When omitted, a
            generator seeded with ``config.seed`` is used.
        vehicle_params: Optional vehicle parameter override.

    Returns:
        A world with the ego vehicle at the route start and obstacles placed
        in the obstacle zone (optionally carrying motion policies).
    """
    if rng is None:
        if config.seed is None:
            raise ValueError("either rng or config.seed must be provided")
        rng = np.random.default_rng(config.seed)

    road = Road(
        length_m=config.road_length_m,
        width_m=config.road_width_m,
        obstacle_zone_start_fraction=config.obstacle_zone_start_fraction,
        segments=config.road_segments,
    )
    obstacles = place_obstacles(
        road,
        config.num_obstacles,
        rng,
        radius_m=config.obstacle_radius_m,
    )
    if config.obstacle_motion != "static":
        obstacles = attach_motion(
            obstacles, road, config.obstacle_motion, config.obstacle_speed_mps
        )
    params = vehicle_params if vehicle_params is not None else VehicleParams()
    start_x, start_y = road.from_frenet(0.0, config.initial_lateral_offset_m)
    start = VehicleState(
        x_m=start_x,
        y_m=start_y,
        heading_rad=road.heading_at(0.0),
        speed_mps=config.initial_speed_mps,
    )
    return World(road=road, obstacles=obstacles, vehicle_params=params, state=start)


# ----------------------------------------------------------------------
# Named scenario families
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioFamily:
    """A named scenario family: a base config plus a human description."""

    name: str
    description: str
    base: ScenarioConfig

    def build(self, seed: int | None = None) -> ScenarioConfig:
        """Instantiate the family's config, optionally re-seeded."""
        if seed is None:
            return self.base
        return replace(self.base, seed=seed)


class ScenarioSuite:
    """Registry of named scenario families.

    The default suite (:data:`DEFAULT_SUITE`) ships the paper's obstacle
    course plus stress families covering wider roads, curved centrelines,
    moving obstacles and lossy sensing (see ``docs/scenarios.md``);
    experiments and the CLI resolve scenario names against it, and
    downstream code can register more::

        DEFAULT_SUITE.register(ScenarioFamily("rush-hour", "...", config))
    """

    def __init__(self) -> None:
        self._families: dict[str, ScenarioFamily] = {}

    def register(self, family: ScenarioFamily) -> ScenarioFamily:
        """Add a family to the registry (rejects duplicate names)."""
        if family.name in self._families:
            raise ValueError(f"scenario family {family.name!r} already registered")
        self._families[family.name] = family
        return family

    def get(self, name: str) -> ScenarioFamily:
        """Look up a family by name."""
        try:
            return self._families[name]
        except KeyError:
            known = ", ".join(sorted(self._families))
            raise KeyError(f"unknown scenario family {name!r} (known: {known})") from None

    def build(self, name: str, seed: int | None = None) -> ScenarioConfig:
        """Instantiate the named family's config, optionally re-seeded."""
        return self.get(name).build(seed=seed)

    def names(self) -> list[str]:
        """Registered family names, sorted."""
        return sorted(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self) -> Iterator[ScenarioFamily]:
        return iter(self._families[name] for name in self.names())

    def __len__(self) -> int:
        return len(self._families)


#: The built-in suite used by the experiment drivers and the CLI.
DEFAULT_SUITE = ScenarioSuite()

DEFAULT_SUITE.register(
    ScenarioFamily(
        name="obstacle-course",
        description="The paper's 100 m road with obstacles in the final third.",
        base=ScenarioConfig(),
    )
)
DEFAULT_SUITE.register(
    ScenarioFamily(
        name="dense-traffic",
        description="A wider, longer road heavily populated with obstacles: sustained at-risk driving.",
        base=ScenarioConfig(
            road_length_m=110.0,
            road_width_m=14.0,
            num_obstacles=5,
            initial_speed_mps=6.0,
            target_speed_mps=6.0,
        ),
    )
)
DEFAULT_SUITE.register(
    ScenarioFamily(
        name="high-speed-highway",
        description="Long, wide road driven near the vehicle's speed ceiling.",
        base=ScenarioConfig(
            road_length_m=250.0,
            road_width_m=16.0,
            num_obstacles=2,
            initial_speed_mps=13.0,
            target_speed_mps=13.0,
        ),
    )
)
DEFAULT_SUITE.register(
    ScenarioFamily(
        name="narrow-road",
        description="A narrowed road: little room to steer around obstacles.",
        base=ScenarioConfig(
            road_width_m=9.0,
            num_obstacles=3,
            initial_speed_mps=6.0,
            target_speed_mps=6.0,
        ),
    )
)
DEFAULT_SUITE.register(
    ScenarioFamily(
        name="curved-road",
        description="Left-right curves with obstacles beyond the first bend.",
        base=ScenarioConfig(
            road_width_m=12.0,
            road_segments=(
                StraightSegment(20.0),
                ArcSegment(radius_m=50.0, sweep_rad=math.radians(35.0)),
                StraightSegment(20.0),
                ArcSegment(radius_m=50.0, sweep_rad=math.radians(-35.0)),
                StraightSegment(15.0),
            ),
            num_obstacles=3,
            obstacle_zone_start_fraction=0.55,
            initial_speed_mps=7.0,
            target_speed_mps=7.0,
        ),
    )
)
DEFAULT_SUITE.register(
    ScenarioFamily(
        name="s-curve-narrow",
        description="A narrow S-curve: curvature and obstacles compete for the corridor.",
        base=ScenarioConfig(
            road_width_m=10.0,
            road_segments=(
                StraightSegment(15.0),
                ArcSegment(radius_m=35.0, sweep_rad=math.radians(45.0)),
                ArcSegment(radius_m=35.0, sweep_rad=math.radians(-45.0)),
                StraightSegment(15.0),
            ),
            num_obstacles=2,
            obstacle_zone_start_fraction=0.5,
            initial_speed_mps=5.0,
            target_speed_mps=5.0,
        ),
    )
)
DEFAULT_SUITE.register(
    ScenarioFamily(
        name="moving-traffic",
        description="Crossing traffic: obstacles oscillate laterally through the ego's corridor.",
        base=ScenarioConfig(
            road_length_m=110.0,
            road_width_m=14.0,
            num_obstacles=4,
            obstacle_zone_start_fraction=0.45,
            obstacle_motion="lateral-loop",
            obstacle_speed_mps=1.0,
            initial_speed_mps=6.0,
            target_speed_mps=6.0,
        ),
    )
)
DEFAULT_SUITE.register(
    ScenarioFamily(
        name="sensor-dropout",
        description="The paper's course under lossy sensing: due samples drop and go stale.",
        base=ScenarioConfig(
            num_obstacles=3,
            sensor_dropout_probability=0.35,
            initial_speed_mps=7.0,
            target_speed_mps=7.0,
        ),
    )
)
