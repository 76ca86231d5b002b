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

#: Element budget of one ``scan_batch`` pass (poses x obstacles x beams):
#: 64 KiB per float64 temporary, where numpy's allocations stay cheap.
_GRID_ELEMENTS = 8192


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

        Every beam of every pose is intersected with a group of obstacle
        circles in one ``(N, group, num_beams)`` pass; a group holds as many
        obstacles as fit in ``_GRID_ELEMENTS`` elements, so a single vehicle
        casts against all of its obstacles at once while a large batch
        takes them one by one and keeps its temporaries small.  A ray that
        starts inside a circle hits it at distance ``0.0``; circles behind
        the origin or off the ray are misses.  Each beam keeps the first
        strictly nearest hit in obstacle order, starting from
        ``max_range_m``, exactly as a per-beam scalar walk over the
        obstacle list.  Slots with ``obs_valid`` False are padding and
        never hit, whatever they hold.

        Args:
            xs, ys, hs: ``(N,)`` vehicle poses.
            obs_x, obs_y, obs_r: ``(N, K)`` obstacle centres and radii
                (``K`` may be 0).
            obs_valid: ``(N, K)`` mask of the slots holding an obstacle.

        Returns:
            ``(N, num_beams)`` hit distances, capped at ``max_range_m``.
        """
        angles = self._angles[None, :] + hs[:, None]
        dxs = np.cos(angles)[:, None, :]
        dys = np.sin(angles)[:, None, :]
        fxs = (xs[:, None] - obs_x)[:, :, None]
        fys = (ys[:, None] - obs_y)[:, :, None]
        cs = fxs * fxs + fys * fys - (obs_r * obs_r)[:, :, None]
        # A pad's infinite ``c`` makes every discriminant negative: a miss.
        cs = np.where(obs_valid[:, :, None], cs, np.inf)
        best = np.full((xs.shape[0], self.num_beams), self.max_range_m)
        group = max(1, _GRID_ELEMENTS // max(1, xs.shape[0] * self.num_beams))
        for lo in range(0, obs_x.shape[1], group):
            fx = fxs[:, lo : lo + group]
            fy = fys[:, lo : lo + group]
            b = 2.0 * (fx * dxs + fy * dys)
            disc = b * b - 4.0 * cs[:, lo : lo + group]
            # A miss (negative discriminant) becomes NaN, which fails both
            # ``>= 0.0`` tests below and so reads as no hit.
            sqrt_disc = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
            t1 = (-b - sqrt_disc) / 2.0
            t2 = (-b + sqrt_disc) / 2.0
            hit = np.where(t1 >= 0.0, t1, np.where(t2 >= 0.0, 0.0, np.inf))
            for k in range(hit.shape[1]):
                best = np.where(hit[:, k] < best, hit[:, k], best)
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
