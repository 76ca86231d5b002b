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
from pathlib import Path

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

    @property
    def num_entries(self) -> int:
        """Number of table cells (each physical bearing counted once)."""
        return (
            self.distance_values().size
            * self.bearing_values().size
            * self.speed_values().size
            * self.num_steering_bins
            * self.num_throttle_bins
        )


@dataclass
class DeadlineLookupTable:
    """Precomputed ``Delta_max`` values over a relative-state/control grid."""

    grid: LookupGrid
    values: np.ndarray
    horizon_s: float
    obstacle_radius_m: float = 1.0
    queries: int = field(default=0, compare=False)
    # The grid axes (distance, bearing, speed, steering, throttle), built
    # once in ``__post_init__`` and read-only: a pure function of ``grid``.
    _axes: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

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
        implementation.  ``inputs.obstacle_present`` needs no special case —
        an absent obstacle carries the ``NO_OBSTACLE_DISTANCE_M`` sentinel,
        which the kernel saturates to the estimator horizon.
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
        ControlAction(steerings[i], throttles[i]))`` bit-for-bit, and the
        query counter advances by the batch size.  Distances at or beyond
        ``NO_OBSTACLE_DISTANCE_M`` (no obstacle) or the grid's maximum
        distance saturate to the estimator horizon, as in the scalar path.
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
        self.queries += int(count)
        out = np.full(count, self.horizon_s, dtype=float)
        mask = (distances_m < NO_OBSTACLE_DISTANCE_M) & (
            distances_m < self.grid.max_distance_m
        )
        if not np.any(mask):
            return out

        distance_grid, bearing_grid, speed_grid, steering_grid, throttle_grid = self._axes

        d = distances_m[mask]
        b = bearings_rad[mask]
        v = speeds_mps[mask]
        s = np.clip(steerings[mask], -1.0, 1.0)
        u = np.clip(throttles[mask], -1.0, 1.0)

        # Conservative quantization: distance rounds down, speed rounds up.
        distance_index = np.clip(
            np.searchsorted(distance_grid, d, side="right") - 1,
            0,
            distance_grid.size - 1,
        )
        speed_index = np.clip(
            np.searchsorted(speed_grid, v, side="left"), 0, speed_grid.size - 1
        )
        bearing_error = wrap_angle(bearing_grid[None, :] - b[:, None])
        bearing_index = np.argmin(np.abs(bearing_error), axis=1)
        steer_index = np.argmin(np.abs(steering_grid[None, :] - s[:, None]), axis=1)
        throttle_index = np.argmin(
            np.abs(throttle_grid[None, :] - u[:, None]), axis=1
        )

        # Neighbourhood minimum, as in the scalar path.  Edge bins clip the
        # neighbour index instead of shrinking the slice; the duplicated
        # entries cannot change the minimum.
        neighbours = np.arange(-1, 2)
        bearing_nb = (bearing_index[:, None] + neighbours[None, :]) % bearing_grid.size
        steer_nb = np.clip(
            steer_index[:, None] + neighbours[None, :], 0, steering_grid.size - 1
        )
        throttle_nb = np.clip(
            throttle_index[:, None] + neighbours[None, :], 0, throttle_grid.size - 1
        )
        cell = self.values[
            distance_index[:, None, None, None],
            bearing_nb[:, :, None, None],
            speed_index[:, None, None, None],
            steer_nb[:, None, :, None],
            throttle_nb[:, None, None, :],
        ]
        out[mask] = cell.min(axis=(1, 2, 3))
        return out

    def __call__(self, inputs: SafetyInputs, control: ControlAction) -> float:
        return self.query(inputs, control)

    @property
    def size(self) -> int:
        """Number of stored cells."""
        return int(self.values.size)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the table to an ``.npz`` file (grid, values, metadata)."""
        grid = self.grid
        np.savez_compressed(
            path,
            values=self.values,
            horizon_s=self.horizon_s,
            obstacle_radius_m=self.obstacle_radius_m,
            grid_params=np.array(
                [
                    grid.max_distance_m,
                    grid.distance_step_m,
                    grid.num_bearings,
                    grid.max_speed_mps,
                    grid.speed_step_mps,
                    grid.num_steering_bins,
                    grid.num_throttle_bins,
                ]
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "DeadlineLookupTable":
        """Load a table previously written by :meth:`save`."""
        with np.load(path) as data:
            params = data["grid_params"]
            grid = LookupGrid(
                max_distance_m=float(params[0]),
                distance_step_m=float(params[1]),
                num_bearings=int(params[2]),
                max_speed_mps=float(params[3]),
                speed_step_mps=float(params[4]),
                num_steering_bins=int(params[5]),
                num_throttle_bins=int(params[6]),
            )
            return cls(
                grid=grid,
                values=data["values"],
                horizon_s=float(data["horizon_s"]),
                obstacle_radius_m=float(data["obstacle_radius_m"]),
            )

