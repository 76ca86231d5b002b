"""Tests for repro.dynamics.state and repro.dynamics.params."""

import math

import numpy as np
import pytest

from repro.dynamics.params import VehicleParams
from repro.dynamics.state import (
    ControlAction,
    VehicleState,
    wrap_angle,
)


class TestWrapAngle:
    def test_identity_within_range(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)

    def test_wraps_above_pi(self):
        assert wrap_angle(math.pi + 0.2) == pytest.approx(-math.pi + 0.2)

    def test_wraps_below_minus_pi(self):
        assert wrap_angle(-math.pi - 0.2) == pytest.approx(math.pi - 0.2)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    def test_large_angle(self):
        assert wrap_angle(7 * math.pi) == pytest.approx(math.pi)


class TestVehicleState:
    def test_round_trip_through_array(self):
        state = VehicleState(x_m=3.0, y_m=-1.0, heading_rad=0.4, speed_mps=5.0)
        recovered = VehicleState.from_array(state.as_array())
        assert recovered == state

    def test_from_array_clamps_negative_speed(self):
        state = VehicleState.from_array(np.array([0.0, 0.0, 0.0, -2.0]))
        assert state.speed_mps == 0.0

    def test_from_array_wraps_heading(self):
        state = VehicleState.from_array(np.array([0.0, 0.0, 3 * math.pi, 1.0]))
        assert -math.pi < state.heading_rad <= math.pi

    def test_from_array_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            VehicleState.from_array(np.zeros(3))

    def test_position_property(self):
        state = VehicleState(x_m=2.0, y_m=3.0)
        assert state.position == (2.0, 3.0)


class TestControlAction:
    def test_clipped_limits_both_channels(self):
        action = ControlAction(steering=2.0, throttle=-3.0).clipped()
        assert action.steering == 1.0
        assert action.throttle == -1.0

    def test_round_trip_through_array(self):
        action = ControlAction(steering=-0.25, throttle=0.5)
        assert ControlAction.from_array(action.as_array()) == action

    def test_from_array_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ControlAction.from_array(np.zeros(3))


class TestVehicleParams:
    def test_default_parameters_are_valid(self):
        params = VehicleParams()
        assert params.wheelbase_m > 0
        assert params.collision_radius_m == pytest.approx(0.5 * params.width_m)

    def test_rejects_nonpositive_wheelbase(self):
        with pytest.raises(ValueError):
            VehicleParams(wheelbase_m=0.0)

    def test_rejects_excessive_steering_angle(self):
        with pytest.raises(ValueError):
            VehicleParams(max_steer_rad=math.pi)

    def test_rejects_nonpositive_speed_limit(self):
        with pytest.raises(ValueError):
            VehicleParams(max_speed_mps=0.0)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            VehicleParams(width_m=0.0)
