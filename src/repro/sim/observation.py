"""Range-scan observations of the world.

The perception models of the paper (ResNet-152 detectors) consume camera
frames.  Offline we cannot render camera images, so the functional
observation this repository feeds to the detectors is a 1-D *range scan*: a
fan of rays cast from the vehicle over a field of view, each returning the
distance to the first obstacle it hits.  The scan preserves exactly the
information the downstream controller needs (where the obstacles are) while
remaining cheap to compute.  The critical VAE of the paper is charged only
as an energy profile and takes no observation here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import field as dc_field

import numpy as np

from repro.contracts import kernel_contract
from repro.sim.world import World

#: Relative slack on a pair's reach, ``max_range_m + r``.  A computed hit
#: can fall short of its exact distance by a few 1e-8 of the centre
#: distance (a near-zero discriminant's square root), so a centre up to this
#: far past the reach still gets cast.
_REACH_SLACK = 1e-6
#: Angle (radians) added to each side of a pair's beam window: the computed
#: discriminant can pass ``>= 0`` up to ~5e-8 rad outside the exact tangent.
_WINDOW_SLACK_RAD = 1e-6
#: A pair with ``c <= _FULL_FAN * d^2`` (origin on, inside or within rounding
#: of the circle) takes the whole fan: there beams facing away can compute a
#: zero-distance hit, and ``asin`` near 1 is too ill-conditioned to trust.
_FULL_FAN = 1e-9
#: Narrowest fan a beam window can wrap into: a window reaches at most
#: ``pi / 2 + _WINDOW_SLACK_RAD`` from its centre, so on a narrower fan the
#: part of a window past +-pi holds no beam.
_WRAP_FOV_RAD = math.pi - 4.0 * _WINDOW_SLACK_RAD


@dataclass(frozen=True)
class RangeScanner:
    """Casts a fan of rays from the ego vehicle and reports hit distances.

    Attributes:
        num_beams: Number of rays in the fan.
        fov_rad: Total field of view centred on the vehicle heading.
        max_range_m: Maximum sensing range; rays that hit nothing report it.
    """

    num_beams: int = 32
    fov_rad: float = math.radians(120.0)
    max_range_m: float = 40.0
    # The beam fan, built once in ``__post_init__`` and read-only.  Excluded
    # from equality/hash/repr: it is a pure function of the fields above.
    _angles: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_beams < 2:
            raise ValueError("num_beams must be at least 2")
        if not 0.0 < self.fov_rad <= 2.0 * math.pi:
            raise ValueError("fov_rad must be in (0, 2*pi]")
        if self.max_range_m <= 0:
            raise ValueError("max_range_m must be positive")
        # A full-circle field of view is endpoint-exclusive: ``-pi`` and
        # ``+pi`` are the same direction, so including both would duplicate
        # one beam and shrink the effective angular resolution.
        half = 0.5 * self.fov_rad
        full_circle = self.fov_rad >= 2.0 * math.pi - 1e-12
        angles = np.linspace(-half, half, self.num_beams, endpoint=not full_circle)
        angles.flags.writeable = False
        object.__setattr__(self, "_angles", angles)

    def beam_angles(self) -> np.ndarray:
        """Relative beam angles (radians) from rightmost to leftmost (read-only)."""
        return self._angles

    @kernel_contract(
        xs="(N,) float64",
        ys="(N,) float64",
        hs="(N,) float64",
        obs_x="(N, K) float64",
        obs_y="(N, K) float64",
        obs_r="(N, K) float64",
        obs_valid="(N, K) bool",
        returns="(N, B) float64",
    )
    def scan_batch(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        hs: np.ndarray,
        obs_x: np.ndarray,
        obs_y: np.ndarray,
        obs_r: np.ndarray,
        obs_valid: np.ndarray,
    ) -> np.ndarray:
        """Obstacle range scans of ``N`` vehicle poses against ``K`` circles each.

        A ray that starts inside a circle hits it at distance ``0.0``;
        circles behind the origin or off the ray are misses.  Each beam keeps
        the first strictly nearest hit in obstacle order, starting from
        ``max_range_m``, exactly as a per-beam scalar walk over the obstacle
        list.  Slots with ``obs_valid`` False are padding and never hit,
        whatever they hold.

        Each (pose, obstacle) pair is cast only at the beams that can hit
        it.  A hit at ray distance ``t`` puts the centre within ``t + r`` of
        the origin, and only ``t < max_range_m`` can lower a beam's range, so
        a pair whose centre is farther than ``max_range_m + r`` (plus
        ``_REACH_SLACK``) is skipped.  A remaining pair is cast at the beams
        within ``asin(r / D) + _WINDOW_SLACK_RAD`` of the direction to its
        centre, found by ``searchsorted`` on the sorted fan; a window that
        crosses +-pi takes the hull of its two parts, and an origin on or
        inside the circle takes the whole fan.  Every window holds every
        beam whose computed discriminant can pass, and each kept (pair,
        beam) entry is computed with the same float operations as a
        full-grid cast, so the skipped entries are exactly those that would
        have missed or not beaten ``max_range_m``: the scan is bit-identical
        to casting every beam at every obstacle.

        Args:
            xs, ys, hs: ``(N,)`` vehicle poses.
            obs_x, obs_y, obs_r: ``(N, K)`` obstacle centres and radii
                (``K`` may be 0).
            obs_valid: ``(N, K)`` mask of the slots holding an obstacle.

        Returns:
            ``(N, num_beams)`` hit distances, capped at ``max_range_m``.
        """
        max_range = self.max_range_m
        fan = self._angles
        beams = fan.size
        best = np.full((xs.shape[0], beams), max_range)
        fx = xs[:, None] - obs_x
        fy = ys[:, None] - obs_y
        d2 = fx * fx + fy * fy
        reach = (max_range + obs_r) * (1.0 + _REACH_SLACK)
        # Obstacle-major pair order, so the reduction below takes obstacles
        # one at a time as contiguous slices.
        k_pair, row_pair = (obs_valid & (d2 < reach * reach)).T.nonzero()
        if not k_pair.size:
            return best
        slot = row_pair * obs_x.shape[1] + k_pair
        fx = fx.take(slot)
        fy = fy.take(slot)
        d2 = d2.take(slot)
        r = obs_r.take(slot)
        c = d2 - r * r

        # Beam window [start, stop) of each pair around ``rel``, the centre's
        # bearing off the heading in [-pi, pi) (the centre lies along
        # ``(-fx, -fy)``, half a turn from ``atan2(fy, fx)``).  A full-fan
        # pair's window is wider than any fan.
        rel = (np.arctan2(fy, fx) - hs[row_pair]) % (2.0 * math.pi) - math.pi
        full = c <= _FULL_FAN * d2
        half = np.arcsin(np.minimum(r / np.sqrt(np.where(full, 1.0, d2)), 1.0))
        half = np.where(full, 2.0 * math.pi, half + _WINDOW_SLACK_RAD)
        lo = rel - half
        hi = rel + half
        start = fan.searchsorted(lo, side="left")
        stop = fan.searchsorted(hi, side="right")
        if self.fov_rad >= _WRAP_FOV_RAD:
            # A window that crosses +-pi also covers the beams past +pi
            # ([0, low_wrap)) or past -pi ([high_wrap, beams)); take the hull.
            low_wrap = fan.searchsorted(hi - 2.0 * math.pi, side="right")
            high_wrap = fan.searchsorted(lo + 2.0 * math.pi, side="left")
            empty = start >= stop
            start = np.where(low_wrap > 0, 0, np.where(empty, high_wrap, start))
            stop = np.where(high_wrap < beams, beams, np.where(empty, low_wrap, stop))
        width = np.maximum(stop - start, 0)

        # One entry per (pair, beam) in a window, pair-major, as the flat
        # index of its (pose, beam) cell.
        offsets = width.cumsum() - width
        pair = np.arange(k_pair.size).repeat(width)
        cell = np.arange(pair.size) + (row_pair * beams + start - offsets)[pair]
        angle = (fan + hs[:, None]).reshape(-1)[cell]
        b = 2.0 * (fx[pair] * np.cos(angle) + fy[pair] * np.sin(angle))
        disc = b * b - 4.0 * c[pair]
        # A miss (negative discriminant) becomes NaN, which fails both
        # ``>= 0.0`` tests below and so reads as no hit.
        sqrt_disc = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        t1 = (-b - sqrt_disc) / 2.0
        t2 = (-b + sqrt_disc) / 2.0
        hit = np.where(t1 >= 0.0, t1, np.where(t2 >= 0.0, 0.0, np.inf))

        # Only a hit below ``max_range_m`` can lower a beam's range.  Take
        # obstacles in order with the strict ``<``, which keeps the first
        # strictly nearest hit (and so the sign of a zero).
        keep = hit < max_range
        hit = hit[keep]
        cell = cell[keep]
        bounds = k_pair[pair[keep]].searchsorted(np.arange(obs_x.shape[1] + 1))
        ranges = best.reshape(-1)
        for lo_k, hi_k in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if lo_k == hi_k:
                continue
            cell_k = cell[lo_k:hi_k]
            hit_k = hit[lo_k:hi_k]
            nearer = hit_k < ranges[cell_k]
            ranges[cell_k[nearer]] = hit_k[nearer]
        return best

    def scan(self, world: World) -> np.ndarray:
        """Return the range scan for the current world state.

        Each entry is the distance (metres, capped at ``max_range_m``) to the
        first obstacle surface intersected by the corresponding ray.  This is
        the 1-element view of :meth:`scan_batch` (the kernel).
        """
        state = world.state
        obstacles = world.obstacles
        return self.scan_batch(
            np.array([state.x_m], dtype=float),
            np.array([state.y_m], dtype=float),
            np.array([state.heading_rad], dtype=float),
            np.array([[obstacle.x_m for obstacle in obstacles]], dtype=float),
            np.array([[obstacle.y_m for obstacle in obstacles]], dtype=float),
            np.array([[obstacle.radius_m for obstacle in obstacles]], dtype=float),
            np.ones((1, len(obstacles)), dtype=bool),
        )[0]
