"""Safe time intervals and their discretization (paper Sections III-B, III-C).

Given a safe state ``(x, u)``, the maximum allowable time the system can keep
applying the same control before turning unsafe is

    ``Delta_max = phi(x, x', u)``                         (eq. 3)

The paper evaluates ``phi`` numerically for the driving use case (a
time-to-collision-style quantity against the nearest obstacle's safety
bound).  :class:`SafeIntervalEstimator` does the same here: it forward-rolls
the kinematic bicycle model under the frozen control and reports the first
time the safety function ``h`` would become negative, capped at a horizon.

The discretizations onto the unified timing axis are

    ``delta_i  = p_i / tau``  (rounded up when not a multiple)     (eq. 4)
    ``delta_max = floor(Delta_max / tau)``                          (eq. 5)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.contracts import kernel_contract
from repro.core.safety import BrakingDistanceBarrier
from repro.dynamics.bicycle import KinematicBicycleModel

#: Relative tolerance used when testing whether a period is an exact multiple
#: of the base period (floating point safe version of ``p_i % tau == 0``).
_MULTIPLE_TOLERANCE = 1e-9


def discretize_period(period_s: float, tau_s: float) -> int:
    """Discretize a sensor/model period onto the base time window (eq. 4).

    Returns ``p_i / tau`` when the period is an exact multiple of ``tau``,
    otherwise ``floor(p_i / tau) + 1`` (the next multiple that fully contains
    the period).
    """
    if period_s <= 0 or tau_s <= 0:
        raise ValueError("period_s and tau_s must be positive")
    ratio = period_s / tau_s
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= _MULTIPLE_TOLERANCE * max(1.0, nearest):
        return int(nearest)
    return int(math.floor(ratio)) + 1


def discretize_deadline(delta_max_s: float, tau_s: float) -> int:
    """Discretize a safety expiration time onto the base window (eq. 5)."""
    if tau_s <= 0:
        raise ValueError("tau_s must be positive")
    if delta_max_s < 0:
        raise ValueError("delta_max_s must be non-negative")
    # Guard against float representation error for exact multiples.
    ratio = delta_max_s / tau_s
    nearest = round(ratio)
    if abs(ratio - nearest) <= _MULTIPLE_TOLERANCE * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.floor(ratio))


@dataclass
class SafeIntervalEstimator:
    """Numerical evaluation of ``Delta_max = phi(x, x', u)``.

    The estimator forward-simulates the ego vehicle under a frozen control
    and reports the first time at which the safety function would evaluate
    negative with respect to a (static) obstacle.  The paper constructs its
    deadline lookup table from "enough evaluations of the safety expiration
    function" (Section IV-C); this class provides those evaluations in
    vectorized batches (:meth:`estimate_batch`), one per table cell.

    Attributes:
        dynamics: Vehicle model used for the rollout.
        safety_function: Barrier ``h`` whose required clearance the rollout
            checks (the lookup-table cache key reads its parameters).
        horizon_s: Cap on the reported safe interval.  Experiments set this to
            ``max_deadline_periods * tau`` so that ``delta_max`` saturates at
            the paper's maximum of four base periods.
        step_s: Integration step of the rollout.
    """

    dynamics: KinematicBicycleModel = field(default_factory=KinematicBicycleModel)
    safety_function: BrakingDistanceBarrier = field(default_factory=BrakingDistanceBarrier)
    horizon_s: float = 0.08
    step_s: float = 0.005

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.step_s <= 0 or self.step_s > self.horizon_s:
            raise ValueError("step_s must be positive and not exceed horizon_s")

    @kernel_contract(
        distances_m="(N,) float64",
        bearings_rad="(N,) float64",
        speeds_mps="(N,) float64",
        steerings="(N,) float64",
        throttles="(N,) float64",
        returns="(N,) float64",
    )
    def estimate_batch(
        self,
        distances_m: np.ndarray,
        bearings_rad: np.ndarray,
        speeds_mps: np.ndarray,
        steerings: np.ndarray,
        throttles: np.ndarray,
        obstacle_radius_m: float = 1.0,
    ) -> np.ndarray:
        """Vectorized ``Delta_max`` over aligned 1-D arrays of scenarios.

        Each index ``i`` describes a canonical scene: the ego vehicle at the
        origin with heading 0 and speed ``speeds[i]``, and an obstacle whose
        *surface* lies ``distances[i]`` metres away along bearing
        ``bearings[i]``, under the frozen control ``(steerings[i],
        throttles[i])``.  The rollout integrates the kinematic bicycle
        model with Euler steps and checks ``h`` before each step.
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
            raise ValueError("all inputs must be 1-D arrays of identical length")

        count = distances_m.size
        params = self.dynamics.params

        # Canonical scene: vehicle at origin heading 0; obstacle centre at
        # surface distance + radius along the bearing.
        centre_range = distances_m + obstacle_radius_m
        obs_x = centre_range * np.cos(bearings_rad)
        obs_y = centre_range * np.sin(bearings_rad)

        x = np.zeros(count)
        y = np.zeros(count)
        heading = np.zeros(count)
        speed = speeds_mps.copy()

        steer_rad = np.minimum(np.maximum(steerings, -1.0), 1.0) * params.max_steer_rad
        throttle = np.minimum(np.maximum(throttles, -1.0), 1.0)
        accel = np.where(
            throttles >= 0.0,
            throttle * params.max_accel_mps2,
            throttle * params.max_brake_mps2,
        )

        steps = int(round(self.horizon_s / self.step_s))
        result = np.full(count, self.horizon_s)
        resolved = np.zeros(count, dtype=bool)

        for step_index in range(steps + 1):
            dx = obs_x - x
            dy = obs_y - y
            distance = np.maximum(0.0, np.hypot(dx, dy) - obstacle_radius_m)
            bearing = np.arctan2(dy, dx) - heading
            bearing = np.arctan2(np.sin(bearing), np.cos(bearing))
            required = self.safety_function.required_clearance_batch(bearing, speed)
            unsafe = (distance - required) < 0.0
            newly = unsafe & ~resolved
            result[newly] = step_index * self.step_s
            resolved |= unsafe
            if resolved.all() or step_index == steps:
                break
            # Euler step of the kinematic bicycle model.
            x = x + self.step_s * speed * np.cos(heading)
            y = y + self.step_s * speed * np.sin(heading)
            heading = heading + self.step_s * speed * np.tan(steer_rad) / params.wheelbase_m
            speed = np.clip(speed + self.step_s * accel, 0.0, params.max_speed_mps)

        return result
