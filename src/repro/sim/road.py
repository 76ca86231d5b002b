"""Road geometry: a centreline of straight and arc segments with a Frenet frame.

The paper evaluates on a single straight 100 m road (Section VI-A).  This
module generalizes the geometry to a centreline composed of straight and
circular-arc segments while keeping that straight road as the trivial
single-segment case.  All road-relative queries go through the Frenet frame
of the centreline: ``s`` (arc length along the centreline) and ``d`` (signed
lateral offset, positive to the left of the travel direction).  For a
single straight segment starting at the origin with heading zero the mapping
degenerates to the identity ``(s, d) = (x, y)`` — bit for bit — so the
paper's scenario and every existing straight-road config are unchanged by
the generalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import field as dc_field
from collections.abc import Sequence

import numpy as np

from repro.contracts import kernel_contract
from repro.dynamics.state import wrap_angle


@dataclass(frozen=True)
class StraightSegment:
    """A straight centreline piece of ``length_m`` metres."""

    length_m: float

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ValueError("length_m must be positive")


@dataclass(frozen=True)
class ArcSegment:
    """A circular-arc centreline piece.

    Attributes:
        radius_m: Arc radius (positive).
        sweep_rad: Signed sweep angle; positive turns left.  Limited to
            ``|sweep| <= pi`` so the nearest-point projection onto the arc
            stays single-valued.
    """

    radius_m: float
    sweep_rad: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError("radius_m must be positive")
        if not 0.0 < abs(self.sweep_rad) <= math.pi:
            raise ValueError("sweep_rad must satisfy 0 < |sweep| <= pi")

    @property
    def length_m(self) -> float:
        """Arc length of the segment."""
        return self.radius_m * abs(self.sweep_rad)


RoadSegment = StraightSegment | ArcSegment


@dataclass(frozen=True)
class _PlacedSegment:
    """A segment anchored at its start pose on the chained centreline."""

    segment: RoadSegment
    s0: float
    x0: float
    y0: float
    heading0: float

    @property
    def length_m(self) -> float:
        return self.segment.length_m

    def _arc_frame(self) -> tuple[float, float, float]:
        """Return ``(turn_sign, centre_x, centre_y)`` for an arc segment."""
        segment = self.segment
        assert isinstance(segment, ArcSegment)
        sigma = 1.0 if segment.sweep_rad > 0.0 else -1.0
        nx, ny = -math.sin(self.heading0), math.cos(self.heading0)
        return (
            sigma,
            self.x0 + sigma * segment.radius_m * nx,
            self.y0 + sigma * segment.radius_m * ny,
        )

    def heading_at(self, s_local: float) -> float:
        """Centreline heading ``s_local`` metres into the segment."""
        segment = self.segment
        if isinstance(segment, StraightSegment):
            return self.heading0
        sigma = 1.0 if segment.sweep_rad > 0.0 else -1.0
        return wrap_angle(self.heading0 + sigma * s_local / segment.radius_m)

    def point_at(self, s_local: float) -> tuple[float, float]:
        """Centreline point ``s_local`` metres into the segment."""
        segment = self.segment
        if isinstance(segment, StraightSegment):
            return (
                self.x0 + s_local * math.cos(self.heading0),
                self.y0 + s_local * math.sin(self.heading0),
            )
        sigma, cx, cy = self._arc_frame()
        heading = self.heading_at(s_local)
        radius = segment.radius_m
        return (
            cx - sigma * radius * (-math.sin(heading)),
            cy - sigma * radius * math.cos(heading),
        )

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Project a point onto the segment: ``(s_local_raw, d)``.

        ``s_local_raw`` is unclamped (negative before the segment start,
        beyond ``length_m`` past its end) so callers can detect points
        outside the extent; ``d`` is the signed lateral offset measured at
        the clamped foot point.

        The per-segment scalar reference of :meth:`Centerline.project_batch`.
        It takes ``atan2`` and ``hypot`` from numpy, as the kernel does:
        ``math.atan2``/``math.hypot`` differ from them in the last ulp on
        some inputs, and the reference must agree with the kernel bit for
        bit.
        """
        segment = self.segment
        if isinstance(segment, StraightSegment):
            tx, ty = math.cos(self.heading0), math.sin(self.heading0)
            dx, dy = x - self.x0, y - self.y0
            s_raw = dx * tx + dy * ty
            d = -dx * ty + dy * tx
            return s_raw, d
        sigma, cx, cy = self._arc_frame()
        vx, vy = x - cx, y - cy
        r = float(np.hypot(vx, vy))
        if r < 1e-12:
            return 0.0, sigma * segment.radius_m
        heading_p = float(np.arctan2(vy, vx)) + sigma * 0.5 * math.pi
        s_raw = sigma * wrap_angle(heading_p - self.heading0) * segment.radius_m
        d = sigma * (segment.radius_m - r)
        return s_raw, d


class Centerline:
    """A chain of road segments with arc-length parameterization.

    Segments are chained head to tail starting at the origin with heading
    zero.  Provides the Frenet mapping ``(s, d) <-> (x, y)`` plus heading
    and curvature lookups along the chain.
    """

    def __init__(self, segments: Sequence[RoadSegment]) -> None:
        if not segments:
            raise ValueError("at least one road segment is required")
        placed: list[_PlacedSegment] = []
        s0, x0, y0, heading0 = 0.0, 0.0, 0.0, 0.0
        for segment in segments:
            anchored = _PlacedSegment(
                segment=segment, s0=s0, x0=x0, y0=y0, heading0=heading0
            )
            placed.append(anchored)
            s0 += segment.length_m
            x0, y0 = anchored.point_at(segment.length_m)
            heading0 = anchored.heading_at(segment.length_m)
        self._placed: tuple[_PlacedSegment, ...] = tuple(placed)
        self.length_m: float = s0
        self.is_straight: bool = len(placed) == 1 and isinstance(
            segments[0], StraightSegment
        )
        # Precomputed per-segment frames backing the vectorized kernels.
        # The trigonometric constants are evaluated with the same ``math``
        # calls the scalar segment methods use, so the kernels reproduce the
        # per-segment arithmetic expression by expression.
        self._seg_s0 = np.array([a.s0 for a in placed], dtype=float)
        self._seg_len = np.array([a.length_m for a in placed], dtype=float)
        self._seg_x0 = np.array([a.x0 for a in placed], dtype=float)
        self._seg_y0 = np.array([a.y0 for a in placed], dtype=float)
        self._seg_h0 = np.array([a.heading0 for a in placed], dtype=float)
        self._seg_tx = np.array([math.cos(a.heading0) for a in placed], dtype=float)
        self._seg_ty = np.array([math.sin(a.heading0) for a in placed], dtype=float)
        is_arc: list[bool] = []
        sigmas: list[float] = []
        radii: list[float] = []
        centres_x: list[float] = []
        centres_y: list[float] = []
        for anchored in placed:
            if isinstance(anchored.segment, ArcSegment):
                sigma, cx, cy = anchored._arc_frame()
                is_arc.append(True)
                sigmas.append(sigma)
                radii.append(anchored.segment.radius_m)
                centres_x.append(cx)
                centres_y.append(cy)
            else:
                # Straight segments never read sigma/radius/centre; the unit
                # radius only keeps the masked arc arithmetic finite.
                is_arc.append(False)
                sigmas.append(0.0)
                radii.append(1.0)
                centres_x.append(0.0)
                centres_y.append(0.0)
        self._seg_is_arc = np.array(is_arc, dtype=bool)
        self._seg_sigma = np.array(sigmas, dtype=float)
        self._seg_radius = np.array(radii, dtype=float)
        self._seg_cx = np.array(centres_x, dtype=float)
        self._seg_cy = np.array(centres_y, dtype=float)
        self._seg_curv = np.where(
            self._seg_is_arc, self._seg_sigma / self._seg_radius, 0.0
        )
        # Interior joint arc lengths: ``_seg_s0[k+1]`` is bitwise equal to
        # ``_seg_s0[k] + length_m`` (that is how the chain accumulates), so
        # ``searchsorted(..., side="right")`` reproduces the scalar
        # ``s < s0 + length`` walk exactly, including the joint boundary
        # moving to the next segment.
        self._interior_ends = self._seg_s0[1:].copy()
        # Interior clamps of ``project_batch`` as ``(S, 1)`` bounds: only
        # the first segment may extend below its start and only the last
        # past its end, so the chain ends carry ``-inf``/``+inf``.
        self._clamp_lo = np.concatenate(([-np.inf], np.zeros(len(placed) - 1)))[:, None]
        self._clamp_hi = np.concatenate((self._seg_len[:-1], [np.inf]))[:, None]

    def _segment_for(self, s: float) -> _PlacedSegment:
        return self._placed[
            int(np.searchsorted(self._interior_ends, s, side="right"))
        ]

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Project a point onto the chain: ``(s_raw, d)``.

        ``s_raw`` can fall below zero (before the route start) or above
        ``length_m`` (past the route end) — only the first and last segment
        may extend the raw coordinate beyond the extent; interior segments
        are clamped to their joints.

        1-element view of :meth:`project_batch` (the kernel).
        """
        s_arr, d_arr = self.project_batch(
            np.array([float(x)], dtype=float), np.array([float(y)], dtype=float)
        )
        return float(s_arr[0]), float(d_arr[0])

    @kernel_contract(
        xs="(N,) float64",
        ys="(N,) float64",
        returns=("(N,) float64", "(N,) float64"),
    )
    def project_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`project` over ``(N,)`` point arrays.

        Returns ``(s_raw, d)`` arrays.  The single-straight-segment chain
        (the paper's road) projects in one vectorized frame rotation.
        Multi-segment chains project every point against every placed
        segment in one pass over an ``(S, N)`` segment x point grid: both
        the arc and the straight branch of ``_PlacedSegment.project`` are
        evaluated for every segment and selected per segment with
        ``np.where``, and the interior clamps use per-segment bounds that
        are ``-inf``/``+inf`` at the chain ends.  The winner is the gap
        argmin across the segment axis (``np.argmin``'s first-occurrence
        tie-break matches the scalar walk's strict ``<`` update).
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.is_straight:
            anchored = self._placed[0]
            tx, ty = math.cos(anchored.heading0), math.sin(anchored.heading0)
            dx = xs - anchored.x0
            dy = ys - anchored.y0
            s_raw = dx * tx + dy * ty
            d = -dx * ty + dy * tx
            return anchored.s0 + s_raw, d
        # Per-segment constants as ``(S, 1)`` columns.
        is_arc = self._seg_is_arc[:, None]
        sigma = self._seg_sigma[:, None]
        radius = self._seg_radius[:, None]
        h0 = self._seg_h0[:, None]
        tx = self._seg_tx[:, None]
        ty = self._seg_ty[:, None]
        length = self._seg_len[:, None]
        # Arc branch (straight rows carry a unit radius and stay finite).
        vx = xs - self._seg_cx[:, None]
        vy = ys - self._seg_cy[:, None]
        r = np.hypot(vx, vy)
        heading_p = np.arctan2(vy, vx) + sigma * 0.5 * math.pi
        degenerate = r < 1e-12
        arc_s = np.where(
            degenerate, 0.0, sigma * wrap_angle(heading_p - h0) * radius
        )
        arc_d = np.where(degenerate, sigma * radius, sigma * (radius - r))
        # Straight branch.
        dx = xs - self._seg_x0[:, None]
        dy = ys - self._seg_y0[:, None]
        s_raw = np.where(is_arc, arc_s, dx * tx + dy * ty)
        d = np.where(is_arc, arc_d, -dx * ty + dy * tx)
        s_raw = np.minimum(np.maximum(s_raw, self._clamp_lo), self._clamp_hi)
        # Foot point at the clamped local arc length (``point_at``).
        s_local = np.minimum(np.maximum(s_raw, 0.0), length)
        foot_heading = wrap_angle(h0 + sigma * s_local / radius)
        px = np.where(
            is_arc,
            self._seg_cx[:, None] - sigma * radius * (-np.sin(foot_heading)),
            self._seg_x0[:, None] + s_local * tx,
        )
        py = np.where(
            is_arc,
            self._seg_cy[:, None] - sigma * radius * np.cos(foot_heading),
            self._seg_y0[:, None] + s_local * ty,
        )
        winner = np.hypot(xs - px, ys - py).argmin(axis=0)
        cols = np.arange(xs.size)
        return self._seg_s0[winner] + s_raw[winner, cols], d[winner, cols]

    def to_frenet(self, x: float, y: float) -> tuple[float, float]:
        """Frenet coordinates ``(s, d)`` of a point, with ``s`` clamped."""
        s_raw, d = self.project(x, y)
        return min(max(s_raw, 0.0), self.length_m), d

    def from_frenet(self, s: float, d: float) -> tuple[float, float]:
        """World coordinates of Frenet ``(s, d)``; ``s`` is clamped."""
        s = min(max(s, 0.0), self.length_m)
        anchored = self._segment_for(s)
        s_local = s - anchored.s0
        x, y = anchored.point_at(s_local)
        heading = anchored.heading_at(s_local)
        return (x + d * (-math.sin(heading)), y + d * math.cos(heading))

    def heading_at(self, s: float) -> float:
        """Centreline heading at arc length ``s`` (clamped to the extent).

        1-element view of :meth:`heading_at_batch` (the kernel).
        """
        return float(self.heading_at_batch(np.array([float(s)], dtype=float))[0])

    @kernel_contract(s="(N,) float64", returns="(N,) float64")
    def heading_at_batch(self, s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`heading_at` over an ``(N,)`` arc-length array."""
        return self.heading_curvature_at_batch(s)[0]

    @kernel_contract(s="(N,) float64", returns=("(N,) float64", "(N,) float64"))
    def heading_curvature_at_batch(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Centreline ``(heading, curvature)`` at an ``(N,)`` arc-length array.

        One clamp and one segment search serve both lookups; the values are
        those of :meth:`heading_at_batch` and :meth:`curvature_at_batch`.
        """
        s = np.minimum(np.maximum(np.asarray(s, dtype=float), 0.0), self.length_m)
        seg = self._interior_ends.searchsorted(s, side="right")
        s_local = s - self._seg_s0[seg]
        h0 = self._seg_h0[seg]
        arc_heading = wrap_angle(
            h0 + self._seg_sigma[seg] * s_local / self._seg_radius[seg]
        )
        return np.where(self._seg_is_arc[seg], arc_heading, h0), self._seg_curv[seg]

    @kernel_contract(s="(N,) float64", returns="(N,) float64")
    def curvature_at_batch(self, s: np.ndarray) -> np.ndarray:
        """Signed centreline curvature at an ``(N,)`` arc-length array."""
        return self.heading_curvature_at_batch(s)[1]


@dataclass(frozen=True)
class Road:
    """A road built from a centreline of segments with a constant width.

    Attributes:
        length_m: Total route length.  Ignored (and overwritten with the
            derived arc length) when ``segments`` is given; the paper uses a
            100 m straight road.
        width_m: Drivable width centred on the centreline.
        obstacle_zone_start_fraction: Fraction of the route (in arc length)
            after which obstacles may be placed.  The paper populates the
            final third, i.e. a start fraction of 2/3.
        segments: Optional centreline segments.  ``None`` keeps the paper's
            straight road as a single :class:`StraightSegment`.
    """

    length_m: float = 100.0
    width_m: float = 8.0
    obstacle_zone_start_fraction: float = 2.0 / 3.0
    segments: tuple[RoadSegment, ...] | None = None
    # Derived centreline, built in ``__post_init__`` (written through
    # ``object.__setattr__`` because the dataclass is frozen).  Excluded
    # from equality/hash/repr: it is a pure function of the fields above.
    _centerline: Centerline = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width_m <= 0:
            raise ValueError("width_m must be positive")
        if not 0.0 <= self.obstacle_zone_start_fraction < 1.0:
            raise ValueError("obstacle_zone_start_fraction must be in [0, 1)")
        if self.segments is not None:
            centerline = Centerline(self.segments)
            object.__setattr__(self, "length_m", centerline.length_m)
        else:
            if self.length_m <= 0:
                raise ValueError("length_m must be positive")
            centerline = Centerline((StraightSegment(self.length_m),))
        object.__setattr__(self, "_centerline", centerline)

    @property
    def centerline(self) -> Centerline:
        """The chained centreline backing all road-relative queries."""
        return self._centerline

    @property
    def is_straight(self) -> bool:
        """True for the trivial single-straight-segment road."""
        return self.centerline.is_straight

    @property
    def half_width_m(self) -> float:
        """Half of the drivable width."""
        return 0.5 * self.width_m

    @property
    def obstacle_zone_start_m(self) -> float:
        """Arc length at which the obstacle zone begins."""
        return self.length_m * self.obstacle_zone_start_fraction

    # ------------------------------------------------------------------
    # Frenet frame
    # ------------------------------------------------------------------
    def to_frenet(self, x_m: float, y_m: float) -> tuple[float, float]:
        """Frenet coordinates ``(s, d)`` of a point; ``s`` is clamped."""
        return self.centerline.to_frenet(x_m, y_m)

    def from_frenet(self, s_m: float, d_m: float) -> tuple[float, float]:
        """World coordinates of Frenet ``(s, d)``."""
        return self.centerline.from_frenet(s_m, d_m)

    def heading_at(self, s_m: float) -> float:
        """Centreline heading at arc length ``s_m``."""
        return self.centerline.heading_at(s_m)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def contains(self, x_m: float, y_m: float, margin_m: float = 0.0) -> bool:
        """Return True if the point lies on the drivable surface.

        The route extent bounds the surface on both ends: points before the
        start *or past the end* of the centreline are off the road.

        Args:
            x_m: World x coordinate.
            y_m: World y coordinate.
            margin_m: Extra lateral margin required on each side (e.g. half
                the vehicle width), so a vehicle body stays on the road.
        """
        s_raw, d = self.centerline.project(x_m, y_m)
        if s_raw < -1e-9 or s_raw > self.length_m + 1e-9:
            return False
        return abs(d) <= self.half_width_m - margin_m + 1e-9
