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
from repro.core.safety import BrakingDistanceBarrier, SafetyFunction, SafetyInputs
from repro.dynamics.bicycle import KinematicBicycleModel
from repro.dynamics.state import ControlAction, VehicleState
from repro.sim.obstacles import Obstacle
from repro.sim.world import World

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
    function" (Section IV-C); this class provides those evaluations, both one
    at a time and in vectorized batches for table construction.

    Attributes:
        dynamics: Vehicle model used for the rollout.
        safety_function: Barrier ``h``; the vectorized batch path requires a
            :class:`BrakingDistanceBarrier`.
        horizon_s: Cap on the reported safe interval.  Experiments set this to
            ``max_deadline_periods * tau`` so that ``delta_max`` saturates at
            the paper's maximum of four base periods.
        step_s: Integration step of the rollout.
    """

    dynamics: KinematicBicycleModel = field(default_factory=KinematicBicycleModel)
    safety_function: SafetyFunction = field(default_factory=BrakingDistanceBarrier)
    horizon_s: float = 0.08
    step_s: float = 0.005

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.step_s <= 0 or self.step_s > self.horizon_s:
            raise ValueError("step_s must be positive and not exceed horizon_s")

    # ------------------------------------------------------------------
    # Scalar evaluation
    # ------------------------------------------------------------------
    def estimate(
        self,
        state: VehicleState,
        obstacle: Obstacle,
        control: ControlAction,
    ) -> float:
        """Return ``Delta_max`` for one (state, obstacle, control) triple."""
        steps = int(round(self.horizon_s / self.step_s))
        current = state
        for step_index in range(steps + 1):
            inputs = self._relative_inputs(current, obstacle)
            if self.safety_function.evaluate(inputs, control) < 0.0:
                return step_index * self.step_s
            if step_index < steps:
                current = self.dynamics.step(current, control, self.step_s)
        return self.horizon_s

    def estimate_from_world(self, world: World, control: ControlAction) -> float:
        """Convenience wrapper evaluating ``phi`` against the nearest obstacle."""
        view = world.nearest_obstacle_view()
        if view is None:
            return self.horizon_s
        _, _, obstacle = view
        return self.estimate(world.state, obstacle, control)

    @staticmethod
    def _relative_inputs(state: VehicleState, obstacle: Obstacle) -> SafetyInputs:
        """Safety inputs of ``state`` relative to ``obstacle``."""
        dx = obstacle.x_m - state.x_m
        dy = obstacle.y_m - state.y_m
        distance = max(0.0, math.hypot(dx, dy) - obstacle.radius_m)
        bearing = math.atan2(dy, dx) - state.heading_rad
        bearing = math.atan2(math.sin(bearing), math.cos(bearing))
        return SafetyInputs(
            distance_m=distance, bearing_rad=bearing, speed_mps=state.speed_mps
        )

    def estimate_one(
        self,
        distance_m: float,
        bearing_rad: float,
        speed_mps: float,
        steering: float,
        throttle: float,
        obstacle_radius_m: float = 1.0,
    ) -> float:
        """Scalar ``Delta_max`` for one canonical scene.

        Routes through :meth:`estimate_batch` on 1-element arrays (the ego
        vehicle at the origin with heading 0, the obstacle surface
        ``distance_m`` away along ``bearing_rad``) so the scalar and batch
        evaluations share one rollout implementation and cannot drift.
        """
        if not isinstance(self.safety_function, BrakingDistanceBarrier):
            centre_range = distance_m + obstacle_radius_m
            obstacle = Obstacle(
                x_m=centre_range * math.cos(bearing_rad),
                y_m=centre_range * math.sin(bearing_rad),
                radius_m=obstacle_radius_m,
            )
            state = VehicleState(
                x_m=0.0, y_m=0.0, heading_rad=0.0, speed_mps=speed_mps
            )
            return self.estimate(
                state, obstacle, ControlAction(steering=steering, throttle=throttle)
            )

        return float(
            self.estimate_batch(
                np.array([distance_m], dtype=float),
                np.array([bearing_rad], dtype=float),
                np.array([speed_mps], dtype=float),
                np.array([steering], dtype=float),
                np.array([throttle], dtype=float),
                obstacle_radius_m=obstacle_radius_m,
            )[0]
        )

    # ------------------------------------------------------------------
    # Vectorized batch evaluation (used to build the lookup table)
    # ------------------------------------------------------------------
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
        throttles[i])``.

        Only supported for :class:`BrakingDistanceBarrier`; other safety
        functions fall back to the scalar path.
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

        if not isinstance(self.safety_function, BrakingDistanceBarrier):
            return self._estimate_batch_scalar(
                distances_m, bearings_rad, speeds_mps, steerings, throttles,
                obstacle_radius_m,
            )

        count = distances_m.size
        params = self.dynamics.params
        barrier = self.safety_function

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
            heading_weight = np.maximum(0.0, np.cos(bearing))
            required = barrier.clearance_m + heading_weight * (
                speed * barrier.reaction_time_s
                + speed**2 / (2.0 * barrier.max_brake_mps2)
            )
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

    def _estimate_batch_scalar(
        self,
        distances_m: np.ndarray,
        bearings_rad: np.ndarray,
        speeds_mps: np.ndarray,
        steerings: np.ndarray,
        throttles: np.ndarray,
        obstacle_radius_m: float,
    ) -> np.ndarray:
        """Scalar fallback used for non-standard safety functions."""
        results = np.empty(distances_m.size)
        for index in range(distances_m.size):
            centre_range = distances_m[index] + obstacle_radius_m
            obstacle = Obstacle(
                x_m=float(centre_range * np.cos(bearings_rad[index])),
                y_m=float(centre_range * np.sin(bearings_rad[index])),
                radius_m=obstacle_radius_m,
            )
            state = VehicleState(
                x_m=0.0, y_m=0.0, heading_rad=0.0, speed_mps=float(speeds_mps[index])
            )
            control = ControlAction(
                steering=float(steerings[index]), throttle=float(throttles[index])
            )
            results[index] = self.estimate(state, obstacle, control)
        return results
