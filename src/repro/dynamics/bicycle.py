"""Kinematic bicycle model of the ego vehicle.

This is the continuous-time plant ``x_dot = f(x, u)`` referenced throughout
Section III of the paper.  The state is ``(x, y, heading, speed)`` and the
control is a normalized ``(steering, throttle)`` pair which is mapped onto the
physical steering angle and longitudinal acceleration through
:class:`repro.dynamics.params.VehicleParams`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.contracts import kernel_contract
from repro.dynamics.integrators import rk4_step
from repro.dynamics.params import VehicleParams
from repro.dynamics.state import ControlAction, VehicleState, wrap_angle


@kernel_contract(
    xs="(N,) float64",
    ys="(N,) float64",
    headings_rad="(N,) float64",
    speeds_mps="(N,) float64",
    steerings="(N,) float64",
    throttles="(N,) float64",
    returns=("(N,) float64", "(N,) float64", "(N,) float64", "(N,) float64"),
)
def rk4_plant_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    headings_rad: np.ndarray,
    speeds_mps: np.ndarray,
    steerings: np.ndarray,
    throttles: np.ndarray,
    dt: float,
    params: VehicleParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One RK4 plant step over ``(N,)`` pose/control arrays.

    Elementwise bit-identical to :meth:`KinematicBicycleModel.step` with the
    default ``"rk4"`` method: the same saturation, the same expanded RK4
    stage arithmetic (the frozen control makes the acceleration stage-
    constant), the same terminal heading wrap and speed clamp (including the
    ``-0.0`` normalization).  Both paths take the steering tangent from
    ``np.tan`` — the serial step on the scalar, this kernel on the array —
    so the per-element values agree exactly.

    Returns the updated ``(xs, ys, headings_rad, speeds_mps)`` arrays.
    """
    st = np.minimum(np.maximum(steerings, -1.0), 1.0)
    th = np.minimum(np.maximum(throttles, -1.0), 1.0)
    steer_rad = st * params.max_steer_rad
    accel = np.where(
        th >= 0.0, th * params.max_accel_mps2, th * params.max_brake_mps2
    )
    tan_arr = np.tan(steer_rad)
    wheelbase = params.wheelbase_m
    half = 0.5 * dt

    def rates(heading: np.ndarray, speed: np.ndarray) -> np.ndarray:
        """One stage's ``(x, y, heading, speed)`` rates, stacked ``(4, N)``.

        ``speed`` is the stage's speed clamped at zero.
        """
        return np.array((
            speed * np.cos(heading),
            speed * np.sin(heading),
            speed * tan_arr / wheelbase,
            accel,
        ))

    h0 = headings_rad
    v0 = speeds_mps
    k1 = rates(h0, np.where(v0 > 0.0, v0, 0.0))
    v2 = v0 + half * accel
    sp2 = np.where(v2 > 0.0, v2, 0.0)
    k2 = rates(h0 + half * k1[2], sp2)
    # Stage 3 evaluates the speed at the same half step as stage 2
    # (``v0 + half * accel``), so it reuses stage 2's clamped speed.
    k3 = rates(h0 + half * k2[2], sp2)
    v4 = v0 + dt * accel
    k4 = rates(h0 + dt * k3[2], np.where(v4 > 0.0, v4, 0.0))
    # The four state components advance in one stacked update; each row is
    # the expanded RK4 sum ``x0 + dt / 6 * (k1 + 2 k2 + 2 k3 + k4)``.
    xn, yn, hn, vn = np.array((xs, ys, h0, v0)) + dt / 6.0 * (
        k1 + 2.0 * k2 + 2.0 * k3 + k4
    )
    hn = wrap_angle(hn)
    # The -0.0 normalization below also covers the zero min/max may keep.
    vn = np.minimum(np.maximum(vn, 0.0), params.max_speed_mps)
    vn = np.where(vn == 0.0, 0.0, vn)
    return xn, yn, hn, vn


@dataclass
class KinematicBicycleModel:
    """Kinematic bicycle model with actuation saturation.

    The model exhibits the uniform-continuity property the paper relies on
    (Section III-B): for bounded controls, consecutive states differ by an
    amount bounded by a Lipschitz constant of the dynamics, which is what
    makes the safe-interval characterization ``Delta_max = phi(x, x', u)``
    well defined.
    """

    params: VehicleParams = field(default_factory=VehicleParams)

    def control_to_physical(self, control: ControlAction) -> tuple[float, float]:
        """Map a normalized control to (steering angle [rad], acceleration [m/s^2])."""
        clipped = control.clipped()
        steer_rad = clipped.steering * self.params.max_steer_rad
        accel = clipped.throttle * (
            self.params.max_accel_mps2
            if clipped.throttle >= 0.0
            else self.params.max_brake_mps2
        )
        return steer_rad, accel

    def _derivative_fn(
        self, control: ControlAction
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Return an array-to-array derivative function with frozen control."""
        steer_rad, accel = self.control_to_physical(control)
        wheelbase = self.params.wheelbase_m
        # Shared with rk4_plant_batch: both paths take the steering tangent
        # from np.tan (scalar here, array there), keeping them bit-identical.
        tan_steer = float(np.tan(steer_rad))

        def derivative(arr: np.ndarray) -> np.ndarray:
            heading = arr[2]
            speed = max(0.0, arr[3])
            return np.array(
                [
                    speed * math.cos(heading),
                    speed * math.sin(heading),
                    speed * tan_steer / wheelbase,
                    accel,
                ],
                dtype=float,
            )

        return derivative

    def step(self, state: VehicleState, control: ControlAction, dt: float) -> VehicleState:
        """Advance the vehicle by one RK4 step of ``dt`` seconds under a constant control.

        Args:
            state: Current vehicle state.
            control: Normalized control action (held constant over the step).
            dt: Step duration in seconds.

        Returns:
            The state after ``dt`` seconds, with speed clamped to
            ``[0, max_speed]`` and heading wrapped to (-pi, pi].
        """
        nxt = rk4_step(state.as_array(), self._derivative_fn(control), dt)
        nxt[2] = wrap_angle(float(nxt[2]))
        nxt[3] = float(np.clip(nxt[3], 0.0, self.params.max_speed_mps))
        return VehicleState.from_array(nxt)
