"""Low-cost proxy lookup table ``T(x, u)`` for safety expiration times.

Section IV-C of the paper: "through enough evaluations of the safety
expiration function, a low-cost proxy lookup table, denoted as T(x, u), is
constructed to enable real-time sampling of Delta_max values at runtime."

:class:`DeadlineLookupTable` is that table.  It is built offline from a
:class:`repro.core.intervals.SafeIntervalEstimator` over a grid of relative
states (obstacle distance, relative orientation, ego speed) and quantized
controls, and queried at runtime in O(1).  Quantization is conservative:
distances round *down*, speeds round *up* and the returned value is the
minimum over the neighbouring bearing and control bins (the bearing axis is
circular and wraps at +-pi), so the table never reports a longer safe
interval than the underlying estimator would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.contracts import kernel_contract
from repro.core.intervals import SafeIntervalEstimator
from repro.core.safety import NO_OBSTACLE_DISTANCE_M, SafetyInputs
from repro.dynamics.state import ControlAction, wrap_angle


@dataclass(frozen=True)
class LookupGrid:
    """Grid specification for the deadline lookup table.

    Attributes:
        max_distance_m: Largest obstacle distance represented in the table;
            larger distances saturate to the estimator horizon.
        distance_step_m: Distance resolution.
        num_bearings: Number of bearing bins covering [-pi, pi), endpoint
            exclusive (the axis is circular, so -pi and +pi share a bin).
        max_speed_mps: Largest ego speed represented.
        speed_step_mps: Speed resolution.
        num_steering_bins: Number of steering bins covering [-1, 1].
        num_throttle_bins: Number of throttle bins covering [-1, 1].
    """

    max_distance_m: float = 40.0
    distance_step_m: float = 2.0
    num_bearings: int = 9
    max_speed_mps: float = 15.0
    speed_step_mps: float = 2.5
    num_steering_bins: int = 3
    num_throttle_bins: int = 3

    def __post_init__(self) -> None:
        if self.max_distance_m <= 0 or self.distance_step_m <= 0:
            raise ValueError("distance grid parameters must be positive")
        if self.num_bearings < 2:
            raise ValueError("num_bearings must be at least 2")
        if self.max_speed_mps <= 0 or self.speed_step_mps <= 0:
            raise ValueError("speed grid parameters must be positive")
        if self.num_steering_bins < 1 or self.num_throttle_bins < 1:
            raise ValueError("control bins must be at least 1")

    def distance_values(self) -> np.ndarray:
        """Distance grid points (metres)."""
        return np.arange(0.0, self.max_distance_m + 1e-9, self.distance_step_m)

    def bearing_values(self) -> np.ndarray:
        """Bearing grid points (radians), spanning [-pi, pi).

        The grid is endpoint-exclusive because -pi and +pi are the same
        physical angle; including both would waste a bin and double-represent
        the rear sector.  Queries treat the axis as circular.
        """
        return np.linspace(-np.pi, np.pi, self.num_bearings, endpoint=False)

    def speed_values(self) -> np.ndarray:
        """Speed grid points (m/s)."""
        return np.arange(0.0, self.max_speed_mps + 1e-9, self.speed_step_mps)

    def steering_values(self) -> np.ndarray:
        """Steering grid points in [-1, 1]."""
        if self.num_steering_bins == 1:
            return np.array([0.0])
        return np.linspace(-1.0, 1.0, self.num_steering_bins)

    def throttle_values(self) -> np.ndarray:
        """Throttle grid points in [-1, 1]."""
        if self.num_throttle_bins == 1:
            return np.array([0.0])
        return np.linspace(-1.0, 1.0, self.num_throttle_bins)


@dataclass(eq=False)
class DeadlineLookupTable:
    """Precomputed ``Delta_max`` values over a relative-state/control grid."""

    grid: LookupGrid
    values: np.ndarray
    horizon_s: float
    obstacle_radius_m: float = 1.0
    # The grid axes (distance, bearing, speed, steering, throttle), built
    # once in ``__post_init__`` and read-only: a pure function of ``grid``.
    _axes: tuple[np.ndarray, ...] = field(init=False, repr=False)
    # ``values`` with every cell replaced by the minimum over its 3x3x3
    # bearing/steering/throttle neighbourhood, built once in
    # ``__post_init__`` and read-only: what :meth:`query_batch` gathers.
    _neighbourhood_min: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        axes = (
            self.grid.distance_values(),
            self.grid.bearing_values(),
            self.grid.speed_values(),
            self.grid.steering_values(),
            self.grid.throttle_values(),
        )
        for axis in axes:
            axis.flags.writeable = False
        self._axes = axes
        expected_shape = tuple(axis.size for axis in axes)
        if self.values.shape != expected_shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {expected_shape}"
            )
        # A read-only copy of ``values``, so the derived minimum cannot go stale.
        self.values = np.array(self.values)
        self.values.flags.writeable = False
        self._neighbourhood_min = _neighbourhood_min(self.values)

    def __eq__(self, other: object) -> bool:
        """Equal grid, horizon, obstacle radius and values.

        The fields derived from ``grid`` and ``values`` are not compared.
        """
        if not isinstance(other, DeadlineLookupTable):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.horizon_s == other.horizon_s
            and self.obstacle_radius_m == other.obstacle_radius_m
            and np.array_equal(self.values, other.values)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        estimator: SafeIntervalEstimator,
        grid: LookupGrid | None = None,
        obstacle_radius_m: float = 1.0,
    ) -> "DeadlineLookupTable":
        """Build the table by evaluating the estimator over the full grid."""
        grid = grid if grid is not None else LookupGrid()
        distances = grid.distance_values()
        bearings = grid.bearing_values()
        speeds = grid.speed_values()
        steerings = grid.steering_values()
        throttles = grid.throttle_values()

        mesh = np.meshgrid(
            distances, bearings, speeds, steerings, throttles, indexing="ij"
        )
        flat = [axis.ravel() for axis in mesh]
        values = estimator.estimate_batch(
            flat[0], flat[1], flat[2], flat[3], flat[4],
            obstacle_radius_m=obstacle_radius_m,
        )
        shaped = values.reshape(
            distances.size, bearings.size, speeds.size, steerings.size, throttles.size
        )
        return cls(
            grid=grid,
            values=shaped,
            horizon_s=estimator.horizon_s,
            obstacle_radius_m=obstacle_radius_m,
        )

    # ------------------------------------------------------------------
    # Runtime queries
    # ------------------------------------------------------------------
    def query(self, inputs: SafetyInputs, control: ControlAction) -> float:
        """Return a conservative ``Delta_max`` for the given state and control.

        Scalar facade: a 1-element view of :meth:`query_batch`, so the serial
        and batch engines share one quantization/neighbourhood-minimum
        implementation.  An absent obstacle needs no special case: it
        carries the ``NO_OBSTACLE_DISTANCE_M`` sentinel, which the kernel
        saturates to the estimator horizon.
        """
        return float(
            self.query_batch(
                np.array([inputs.distance_m]),
                np.array([inputs.bearing_rad]),
                np.array([inputs.speed_mps]),
                np.array([control.steering]),
                np.array([control.throttle]),
            )[0]
        )

    @kernel_contract(
        distances_m="(N,) float64",
        bearings_rad="(N,) float64",
        speeds_mps="(N,) float64",
        steerings="(N,) float64",
        throttles="(N,) float64",
        returns="(N,) float64",
    )
    def query_batch(
        self,
        distances_m: np.ndarray,
        bearings_rad: np.ndarray,
        speeds_mps: np.ndarray,
        steerings: np.ndarray,
        throttles: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`query` over arrays of states and controls.

        Element ``i`` of the result equals
        ``query(SafetyInputs(distances_m[i], bearings_rad[i], speeds_mps[i]),
        ControlAction(steerings[i], throttles[i]))`` bit-for-bit.  Distances
        at or beyond ``NO_OBSTACLE_DISTANCE_M`` (no obstacle) or the grid's
        maximum distance saturate to the estimator horizon, as in the scalar
        path.
        """
        distances_m = np.asarray(distances_m, dtype=float)
        bearings_rad = np.asarray(bearings_rad, dtype=float)
        speeds_mps = np.asarray(speeds_mps, dtype=float)
        steerings = np.asarray(steerings, dtype=float)
        throttles = np.asarray(throttles, dtype=float)
        shapes = {
            distances_m.shape,
            bearings_rad.shape,
            speeds_mps.shape,
            steerings.shape,
            throttles.shape,
        }
        if len(shapes) != 1 or distances_m.ndim != 1:
            raise ValueError("query_batch expects 1-D arrays of equal length")

        count = distances_m.size
        out = np.full(count, self.horizon_s, dtype=float)
        mask = (distances_m < NO_OBSTACLE_DISTANCE_M) & (
            distances_m < self.grid.max_distance_m
        )
        if not np.count_nonzero(mask):
            return out

        distance_grid, bearing_grid, speed_grid, steering_grid, throttle_grid = self._axes

        d = distances_m[mask]
        b = bearings_rad[mask]
        v = speeds_mps[mask]
        s = np.minimum(np.maximum(steerings[mask], -1.0), 1.0)
        u = np.minimum(np.maximum(throttles[mask], -1.0), 1.0)

        # Conservative quantization: distance rounds down, speed rounds up.
        distance_index = np.minimum(
            np.maximum(distance_grid.searchsorted(d, side="right") - 1, 0),
            distance_grid.size - 1,
        )
        speed_index = np.minimum(
            np.maximum(speed_grid.searchsorted(v, side="left"), 0), speed_grid.size - 1
        )
        bearing_error = wrap_angle(bearing_grid[None, :] - b[:, None])
        bearing_index = np.abs(bearing_error).argmin(axis=1)
        steer_index = np.abs(steering_grid[None, :] - s[:, None]).argmin(axis=1)
        throttle_index = np.abs(throttle_grid[None, :] - u[:, None]).argmin(axis=1)

        out[mask] = self._neighbourhood_min[
            distance_index, bearing_index, speed_index, steer_index, throttle_index
        ]
        return out

    def __call__(self, inputs: SafetyInputs, control: ControlAction) -> float:
        return self.query(inputs, control)

    @property
    def size(self) -> int:
        """Number of stored cells."""
        return int(self.values.size)


def _neighbourhood_min(values: np.ndarray) -> np.ndarray:
    """Minimum of each cell's 3x3x3 bearing/steering/throttle neighbourhood.

    The bearing axis (1) is circular and rolls; the steering (3) and
    throttle (4) axes clip at their edge bins, which repeat an edge entry
    and so cannot change a minimum.  ``np.minimum`` is exact, so each cell
    equals the minimum a query would reduce from its 27 neighbours.
    """
    out = np.minimum(
        values, np.minimum(np.roll(values, 1, axis=1), np.roll(values, -1, axis=1))
    )
    for axis in (3, 4):
        size = out.shape[axis]
        below = np.take(out, np.maximum(np.arange(size) - 1, 0), axis=axis)
        above = np.take(out, np.minimum(np.arange(size) + 1, size - 1), axis=axis)
        out = np.minimum(out, np.minimum(below, above))
    out.flags.writeable = False
    return out
