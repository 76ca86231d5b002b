"""Tests for the kinematic bicycle model and the RK4 integrator."""

import math

import numpy as np
import pytest

from repro.dynamics.bicycle import KinematicBicycleModel
from repro.dynamics.integrators import rk4_step
from repro.dynamics.params import VehicleParams
from repro.dynamics.state import ControlAction, VehicleState


@pytest.fixture
def model() -> KinematicBicycleModel:
    return KinematicBicycleModel(VehicleParams())


class TestIntegrators:
    def test_rk4_matches_exact_for_linear_system(self):
        # x' = x has exact solution e^t; RK4 should be accurate to ~1e-8 at t=0.1.
        result = rk4_step(np.array([1.0]), lambda s: s, 0.1)
        assert result[0] == pytest.approx(math.exp(0.1), abs=1e-7)

    def test_rk4_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_step(np.zeros(1), lambda s: s, -0.1)


class TestControlMapping:
    def test_positive_throttle_maps_to_acceleration(self, model):
        _, accel = model.control_to_physical(ControlAction(throttle=1.0))
        assert accel == pytest.approx(model.params.max_accel_mps2)

    def test_negative_throttle_maps_to_braking(self, model):
        _, accel = model.control_to_physical(ControlAction(throttle=-1.0))
        assert accel == pytest.approx(-model.params.max_brake_mps2)

    def test_steering_saturates(self, model):
        steer, _ = model.control_to_physical(ControlAction(steering=5.0))
        assert steer == pytest.approx(model.params.max_steer_rad)


class TestStep:
    def test_straight_line_motion(self, model):
        state = VehicleState(speed_mps=10.0)
        nxt = model.step(state, ControlAction(), 0.1)
        assert nxt.x_m == pytest.approx(1.0, rel=1e-6)
        assert nxt.y_m == pytest.approx(0.0, abs=1e-9)
        assert nxt.heading_rad == pytest.approx(0.0, abs=1e-9)

    def test_throttle_increases_speed(self, model):
        state = VehicleState(speed_mps=5.0)
        nxt = model.step(state, ControlAction(throttle=1.0), 0.5)
        assert nxt.speed_mps > 5.0

    def test_braking_reduces_speed_but_not_below_zero(self, model):
        state = VehicleState(speed_mps=1.0)
        nxt = model.step(state, ControlAction(throttle=-1.0), 1.0)
        assert nxt.speed_mps == 0.0

    def test_speed_respects_ceiling(self, model):
        state = VehicleState(speed_mps=model.params.max_speed_mps)
        nxt = model.step(state, ControlAction(throttle=1.0), 1.0)
        assert nxt.speed_mps <= model.params.max_speed_mps

    def test_left_steer_increases_heading(self, model):
        state = VehicleState(speed_mps=5.0)
        nxt = model.step(state, ControlAction(steering=1.0), 0.2)
        assert nxt.heading_rad > 0.0

    def test_right_steer_decreases_heading(self, model):
        state = VehicleState(speed_mps=5.0)
        nxt = model.step(state, ControlAction(steering=-1.0), 0.2)
        assert nxt.heading_rad < 0.0

    def test_zero_speed_does_not_turn(self, model):
        state = VehicleState(speed_mps=0.0)
        nxt = model.step(state, ControlAction(steering=1.0), 0.2)
        assert nxt.heading_rad == pytest.approx(0.0, abs=1e-9)
        assert nxt.x_m == pytest.approx(0.0, abs=1e-6)

    def test_euler_and_rk4_agree_for_small_steps(self, model):
        # One explicit-Euler step of the same derivative is a first-order
        # reference for the RK4 step.
        state = VehicleState(speed_mps=8.0)
        control = ControlAction(steering=0.3, throttle=0.2)
        rk4 = model.step(state, control, 0.01)
        start = state.as_array()
        euler = start + 0.01 * model._derivative_fn(control)(start)
        assert rk4.x_m == pytest.approx(euler[0], abs=1e-3)
        assert rk4.heading_rad == pytest.approx(euler[2], abs=1e-3)


class TestRollout:
    def test_circular_motion_returns_near_start(self, model):
        # Constant steering at constant speed traces a circle; after one full
        # period the vehicle should be back near its starting point.
        speed = 5.0
        steer = 0.5
        steer_rad = steer * model.params.max_steer_rad
        radius = model.params.wheelbase_m / math.tan(steer_rad)
        period = 2.0 * math.pi * radius / speed
        steps = 2000
        dt = period / steps
        end = VehicleState(speed_mps=speed)
        for _ in range(steps):
            end = model.step(end, ControlAction(steering=steer), dt)
        assert math.hypot(end.x_m, end.y_m) < 0.2
