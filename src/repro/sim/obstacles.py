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


@dataclass(frozen=True)
class Shuttle:
    """Constant-speed back-and-forth travel between the origin and ``far``.

    The obstacle leaves its placement, reaches ``far`` and returns, one
    round trip every ``2 * |far - origin| / speed_mps`` seconds — the
    "crossing traffic" primitive of the moving-obstacle scenario families.

    Attributes:
        far: Absolute turning point opposite the placement position.
        speed_mps: Travel speed (positive).
    """

    far: tuple[float, float]
    speed_mps: float

    def __post_init__(self) -> None:
        if self.speed_mps <= 0:
            raise ValueError("speed_mps must be positive")

    def position_at(
        self, origin: tuple[float, float], time_s: float
    ) -> tuple[float, float]:
        """Position at ``time_s`` along the round trip, starting at ``origin``."""
        (ox, oy), (fx, fy) = origin, self.far
        length = math.hypot(fx - ox, fy - oy)
        if length <= 1e-12:
            return (ox, oy)
        distance = math.fmod(self.speed_mps * time_s, length + length)
        if distance < 0.0:
            distance += length + length
        if distance <= length:
            fraction = distance / length
            return (ox + fraction * (fx - ox), oy + fraction * (fy - oy))
        fraction = (distance - length) / length
        return (fx + fraction * (ox - fx), fy + fraction * (oy - fy))


MotionPolicy = ConstantVelocity | Shuttle

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
            motion: MotionPolicy = Shuttle(far=far, speed_mps=speed_mps)
        else:  # oncoming
            heading = road.heading_at(s)
            motion = ConstantVelocity(
                velocity_x_mps=-speed_mps * math.cos(heading),
                velocity_y_mps=-speed_mps * math.sin(heading),
            )
        moving.append(replace(obstacle, motion=motion))
    return moving
