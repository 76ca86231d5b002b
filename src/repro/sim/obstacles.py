"""Obstacles: static discs, optional motion policies, and risk-level placement.

The paper's evaluation uses static obstacles on a straight road.  Obstacles
here additionally carry an optional *motion policy* — a pure function of
time, so episodes stay deterministic and resettable: the world recomputes
every moving obstacle's position from its initial placement at each step.
Placement itself works in the road's Frenet frame, so the same logic covers
straight and curved centrelines (and reduces bit-identically to the original
longitudinal/lateral sampling on the straight road).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from dataclasses import field as dc_field
from collections.abc import Sequence

import numpy as np

from repro.sim.road import Road

#: Fraction of the route at which the obstacle zone ends: obstacles are
#: placed between ``Road.obstacle_zone_start_m`` and this fraction of the
#: route length.
OBSTACLE_ZONE_END_FRACTION = 0.97

@dataclass(frozen=True)
class ConstantVelocity:
    """Constant planar velocity: ``position(t) = origin + v * t``."""

    velocity_x_mps: float = 0.0
    velocity_y_mps: float = 0.0

    def position_at(
        self, origin: tuple[float, float], time_s: float
    ) -> tuple[float, float]:
        """Position at ``time_s`` starting from ``origin`` at time zero."""
        return (
            origin[0] + self.velocity_x_mps * time_s,
            origin[1] + self.velocity_y_mps * time_s,
        )


#: One leg of a waypoint loop: (start point, end point, length).
_Leg = tuple[tuple[float, float], tuple[float, float], float]


@dataclass(frozen=True)
class WaypointLoop:
    """Constant-speed travel around the closed loop origin -> waypoints -> origin.

    With a single waypoint this degenerates to a back-and-forth oscillation
    between the obstacle's placement and that waypoint — the "crossing
    traffic" primitive of the moving-obstacle scenario families.

    Attributes:
        waypoints: Absolute waypoints visited after the placement position.
        speed_mps: Travel speed along the loop (positive).
    """

    waypoints: tuple[tuple[float, float], ...]
    speed_mps: float
    # One-slot leg cache, keyed by origin: the loop is queried every
    # simulation step with the same origin (the obstacle's placement), so
    # the leg decomposition is computed once, not per step.  Excluded from
    # equality/hash/repr; written through ``object.__setattr__`` because the
    # dataclass is frozen.
    _legs_cache: tuple[tuple[float, float], list[_Leg], float] | None = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("at least one waypoint is required")
        if self.speed_mps <= 0:
            raise ValueError("speed_mps must be positive")

    def _legs_for(self, origin: tuple[float, float]) -> tuple[list[_Leg], float]:
        cached = self._legs_cache
        if cached is not None and cached[0] == origin:
            return cached[1], cached[2]
        points = [tuple(origin)] + [tuple(w) for w in self.waypoints]
        legs = []
        perimeter = 0.0
        for index, start in enumerate(points):
            end = points[(index + 1) % len(points)]
            length = math.hypot(end[0] - start[0], end[1] - start[1])
            if length > 1e-12:
                legs.append((start, end, length))
                perimeter += length
        object.__setattr__(self, "_legs_cache", (origin, legs, perimeter))
        return legs, perimeter

    def position_at(
        self, origin: tuple[float, float], time_s: float
    ) -> tuple[float, float]:
        """Position at ``time_s`` along the loop, starting at ``origin``."""
        origin = (origin[0], origin[1])
        legs, perimeter = self._legs_for(origin)
        if not legs:
            return origin
        distance = math.fmod(self.speed_mps * time_s, perimeter)
        if distance < 0.0:
            distance += perimeter
        for start, end, length in legs:
            if distance <= length:
                fraction = distance / length
                return (
                    start[0] + fraction * (end[0] - start[0]),
                    start[1] + fraction * (end[1] - start[1]),
                )
            distance -= length
        return legs[-1][1]


MotionPolicy = ConstantVelocity | WaypointLoop

#: Obstacle-motion modes understood by :func:`attach_motion`.
MOTION_MODES = ("static", "lateral-loop", "oncoming")


@dataclass(frozen=True)
class Obstacle:
    """A circular obstacle on the road, optionally moving.

    The controller-shielding literature the paper follows models obstacles as
    points surrounded by a safety sphere; a circle of radius ``radius_m`` in
    the plane is the 2-D equivalent.  ``x_m``/``y_m`` are the position at the
    episode start; when a ``motion`` policy is attached,
    :meth:`at_time` reports the moved disc.
    """

    x_m: float
    y_m: float
    radius_m: float = 1.0
    motion: MotionPolicy | None = None

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError("radius_m must be positive")

    @property
    def position(self) -> tuple[float, float]:
        """Planar position (x, y) of the obstacle centre."""
        return (self.x_m, self.y_m)

    def at_time(self, time_s: float) -> "Obstacle":
        """The obstacle as seen at ``time_s`` (self when static)."""
        if self.motion is None:
            return self
        x, y = self.motion.position_at((self.x_m, self.y_m), time_s)
        return replace(self, x_m=x, y_m=y)

    def distance_to(self, x_m: float, y_m: float) -> float:
        """Distance from a point to the obstacle *centre*."""
        return float(np.hypot(self.x_m - x_m, self.y_m - y_m))

    def surface_distance_to(self, x_m: float, y_m: float) -> float:
        """Distance from a point to the obstacle *surface* (negative inside)."""
        return self.distance_to(x_m, y_m) - self.radius_m


def place_obstacles(
    road: Road,
    count: int,
    rng: np.random.Generator,
    radius_m: float = 1.0,
    min_gap_m: float = 6.0,
    lateral_fraction: float = 0.3,
    max_attempts: int = 200,
) -> list[Obstacle]:
    """Place ``count`` obstacles in the road's obstacle zone (the final third).

    Obstacles are spread through the zone in arc length with random lateral
    offsets (sampled in the Frenet frame, so curved roads work the same way
    as straight ones), while keeping at least ``min_gap_m`` between obstacle
    centres and always leaving a drivable corridor on at least one side.

    Args:
        road: Road geometry providing the obstacle zone.
        count: Number of obstacles; this is the paper's risk-level knob
            (0, 2 and 4 obstacles in Fig. 6 / Table II).
        rng: Random generator controlling placement.
        radius_m: Obstacle radius.
        min_gap_m: Minimum distance between obstacle centres.
        lateral_fraction: Fraction of the half-width usable for the lateral
            offset, so a corridor always remains on the opposite side.
        max_attempts: Sampling attempts per obstacle before relaxing the gap.

    Returns:
        A list of obstacles sorted by arc-length position.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []

    zone_start = road.obstacle_zone_start_m
    zone_end = road.length_m * OBSTACLE_ZONE_END_FRACTION
    zone_length = zone_end - zone_start
    if zone_length <= 0:
        raise ValueError("road obstacle zone is empty")

    lateral_limit = road.half_width_m * lateral_fraction
    placed_with_s: list[tuple[float, Obstacle]] = []
    # Deterministic arc-length anchors spread through the zone keep the
    # scenario solvable even for higher obstacle counts; lateral placement and
    # longitudinal jitter remain random.
    anchors = np.linspace(zone_start, zone_end, count + 2)[1:-1]
    jitter_span = zone_length / (2.0 * (count + 1))

    for anchor in anchors:
        placed: tuple[float, Obstacle] | None = None
        for _ in range(max_attempts):
            s = float(anchor + rng.uniform(-jitter_span, jitter_span))
            d = float(rng.uniform(-lateral_limit, lateral_limit))
            x, y = road.from_frenet(s, d)
            candidate = Obstacle(x_m=x, y_m=y, radius_m=radius_m)
            if all(
                candidate.distance_to(o.x_m, o.y_m) >= min_gap_m
                for _, o in placed_with_s
            ):
                placed = (s, candidate)
                break
        if placed is None:
            # Fall back to the anchor itself; alternate sides to keep a corridor.
            side = -1.0 if len(placed_with_s) % 2 else 1.0
            x, y = road.from_frenet(float(anchor), side * 0.5 * lateral_limit)
            placed = (float(anchor), Obstacle(x_m=x, y_m=y, radius_m=radius_m))
        placed_with_s.append(placed)

    return [obstacle for _, obstacle in sorted(placed_with_s, key=lambda e: e[0])]


def attach_motion(
    obstacles: Sequence[Obstacle],
    road: Road,
    mode: str,
    speed_mps: float,
) -> list[Obstacle]:
    """Return copies of ``obstacles`` carrying the requested motion policy.

    Modes:
        ``"static"``: no motion (obstacles returned unchanged).
        ``"lateral-loop"``: each obstacle oscillates across the corridor
            between its placement and the mirrored lateral offset — crossing
            traffic cutting through the ego's path.
        ``"oncoming"``: each obstacle drives against the route direction at
            ``speed_mps`` (constant velocity along the reversed centreline
            heading at its placement).
    """
    if mode not in MOTION_MODES:
        raise ValueError(f"unknown obstacle motion mode: {mode!r} (choose from {MOTION_MODES})")
    if mode == "static":
        return list(obstacles)
    if speed_mps <= 0:
        raise ValueError("speed_mps must be positive for moving obstacles")

    moving: list[Obstacle] = []
    for index, obstacle in enumerate(obstacles):
        s, d = road.to_frenet(obstacle.x_m, obstacle.y_m)
        if mode == "lateral-loop":
            span = max(abs(d), 0.3 * road.half_width_m)
            fallback_side = 1.0 if index % 2 == 0 else -1.0
            side = math.copysign(1.0, d) if abs(d) > 1e-6 else fallback_side
            far = road.from_frenet(s, -side * span)
            motion: MotionPolicy = WaypointLoop(waypoints=(far,), speed_mps=speed_mps)
        else:  # oncoming
            heading = road.heading_at(s)
            motion = ConstantVelocity(
                velocity_x_mps=-speed_mps * math.cos(heading),
                velocity_y_mps=-speed_mps * math.sin(heading),
            )
        moving.append(replace(obstacle, motion=motion))
    return moving
