"""Tests for the safety barrier, the safety state and the steering shield, on
1-element calls of their kernels."""

import math

import numpy as np
import pytest

from repro.core.intervals import SafeIntervalEstimator
from repro.core.safety import (
    NO_OBSTACLE_DISTANCE_M,
    BrakingDistanceBarrier,
    SafetyInputs,
)
from repro.core.shield import SteeringShield
from repro.dynamics.state import VehicleState
from repro.sim.obstacles import Obstacle
from repro.sim.road import Road
from repro.sim.world import World


def _h(barrier, distance, bearing=0.0, speed=8.0):
    """``h`` of one state."""
    return float(
        barrier.evaluate_batch(np.array([distance]), np.array([bearing]), np.array([speed]))[0]
    )


def _required(barrier, bearing=0.0, speed=8.0):
    """Clearance the barrier requires for one state."""
    return float(barrier.required_clearance_batch(np.array([bearing]), np.array([speed]))[0])


def _filter(
    shield,
    distance,
    bearing=0.0,
    speed=8.0,
    lateral=0.0,
    half_width=6.0,
    steering=0.0,
    throttle=0.0,
    h=None,
):
    """``(steering, throttle, intervened)`` of one state.  ``h`` defaults to
    the default barrier's value at the state."""
    if h is None:
        h = _h(BrakingDistanceBarrier(), distance, bearing, speed)
    fs, ft, intervened = shield.filter_batch(
        np.array([h]),
        np.array([distance]),
        np.array([bearing]),
        np.array([speed]),
        np.array([lateral]),
        np.array([half_width]),
        np.array([steering]),
        np.array([throttle]),
    )
    return float(fs[0]), float(ft[0]), bool(intervened[0])


class TestSafetyState:
    def test_binary_mapping(self):
        """``S = 1`` exactly when ``h >= 0`` (eq. 1): the safe-interval
        rollout reads a state as unsafe, and returns 0, only below zero."""
        barrier = BrakingDistanceBarrier(clearance_m=1.0)
        estimator = SafeIntervalEstimator(safety_function=barrier, horizon_s=0.08, step_s=0.005)
        # A standing vehicle stays where it is: h keeps its initial value.
        for distance, h, safe in ((1.0, 0.0, True), (4.2, 3.2, True), (0.999, -0.001, False)):
            assert _h(barrier, distance, speed=0.0) == pytest.approx(h, abs=1e-12)
            delta = estimator.estimate_batch(
                np.array([distance]), np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1)
            )[0]
            assert delta == (estimator.horizon_s if safe else 0.0)


class TestBrakingDistanceBarrier:
    def test_far_obstacle_is_safe(self):
        assert _h(BrakingDistanceBarrier(), distance=50.0) > 0.0

    def test_close_obstacle_is_unsafe(self):
        assert _h(BrakingDistanceBarrier(), distance=0.5, speed=10.0) < 0.0

    def test_required_clearance_grows_with_speed(self):
        barrier = BrakingDistanceBarrier()
        assert _required(barrier, speed=12.0) > _required(barrier, speed=2.0)

    def test_side_obstacle_needs_less_clearance(self):
        barrier = BrakingDistanceBarrier()
        head_on = _required(barrier, bearing=0.0)
        beside = _required(barrier, bearing=math.pi / 2)
        assert beside < head_on
        assert beside == pytest.approx(barrier.clearance_m)

    def test_no_obstacle_reports_large_h(self):
        h = _h(BrakingDistanceBarrier(), distance=NO_OBSTACLE_DISTANCE_M)
        assert h == pytest.approx(NO_OBSTACLE_DISTANCE_M)

    def test_zero_speed_reduces_to_clearance(self):
        barrier = BrakingDistanceBarrier(clearance_m=1.0)
        assert _h(barrier, distance=1.0, speed=0.0) == pytest.approx(0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BrakingDistanceBarrier(max_brake_mps2=0.0)
        with pytest.raises(ValueError):
            BrakingDistanceBarrier(clearance_m=-1.0)

    def test_inputs_validation(self):
        with pytest.raises(ValueError):
            SafetyInputs(distance_m=-1.0, bearing_rad=0.0, speed_mps=1.0)
        with pytest.raises(ValueError):
            SafetyInputs(distance_m=1.0, bearing_rad=0.0, speed_mps=-1.0)

    def test_from_world_extracts_nearest_view(self, obstacle_view):
        world = World(
            road=Road(),
            obstacles=[Obstacle(x_m=10.0, y_m=0.0, radius_m=1.0)],
            state=VehicleState(speed_mps=6.0),
        )
        distance, bearing, index = obstacle_view(world)
        assert index == 0
        assert distance == pytest.approx(9.0)
        barrier = BrakingDistanceBarrier()
        assert _h(barrier, distance, bearing, world.state.speed_mps) == pytest.approx(
            9.0 - _required(barrier, speed=6.0)
        )

    def test_from_world_without_obstacles(self, empty_world, obstacle_view):
        distance, bearing, index = obstacle_view(empty_world)
        assert index == -1
        h = _h(BrakingDistanceBarrier(), distance, bearing, empty_world.state.speed_mps)
        assert h == NO_OBSTACLE_DISTANCE_M


class TestSteeringShield:
    def test_passes_through_when_safe(self):
        assert _h(BrakingDistanceBarrier(), distance=40.0) >= 0.0
        steering, throttle, intervened = _filter(
            SteeringShield(), distance=40.0, steering=0.3, throttle=0.5
        )
        assert (steering, throttle) == (0.3, 0.5)
        assert not intervened

    def test_intervenes_when_unsafe(self):
        assert _h(BrakingDistanceBarrier(), distance=2.0, bearing=0.05, speed=10.0) < 0.0
        steering, throttle, intervened = _filter(
            SteeringShield(), distance=2.0, bearing=0.05, speed=10.0, throttle=0.8
        )
        assert intervened
        assert throttle < 0.8
        assert steering != 0.0

    def test_never_less_evasive_than_controller(self):
        # The controller already steers hard away from an obstacle on the left.
        steering, _, _ = _filter(SteeringShield(), distance=3.0, bearing=0.3, steering=-0.9)
        assert steering <= -0.9 + 1e-9

    def test_steers_away_from_obstacle_side(self):
        shield = SteeringShield()
        left_obstacle, _, _ = _filter(shield, distance=2.0, bearing=0.4, speed=9.0)
        right_obstacle, _, _ = _filter(shield, distance=2.0, bearing=-0.4, speed=9.0)
        assert left_obstacle < 0.0
        assert right_obstacle > 0.0

    def test_road_edge_awareness_flips_direction(self):
        # Obstacle slightly to the right would normally push the vehicle left,
        # but the vehicle is already near the left road edge.
        steering, _, _ = _filter(
            SteeringShield(), distance=2.0, bearing=-0.1, speed=9.0, lateral=4.5, half_width=5.0
        )
        assert steering < 0.0

    def test_creep_behaviour_at_low_speed(self):
        _, throttle, _ = _filter(
            SteeringShield(), distance=1.5, bearing=0.2, speed=1.0, throttle=-1.0
        )
        assert throttle > 0.0

    def test_counters_track_interventions(self):
        """The kernel flags the rows it changed; its caller counts them."""
        shield = SteeringShield()
        calls = [_filter(shield, distance=40.0), _filter(shield, distance=1.0, speed=10.0)]
        assert [intervened for _, _, intervened in calls] == [False, True]
        # One 2-row call flags the same rows.
        distances, bearings, speeds = np.array([40.0, 1.0]), np.zeros(2), np.array([8.0, 10.0])
        _, _, intervened = shield.filter_batch(
            BrakingDistanceBarrier().evaluate_batch(distances, bearings, speeds),
            distances, bearings, speeds, np.zeros(2), np.full(2, 6.0), np.zeros(2), np.zeros(2),
        )
        assert intervened.tolist() == [False, True]
        assert intervened.mean() == pytest.approx(0.5)

    def test_filter_adapter_uses_world_state(self, small_world, obstacle_view):
        """The shield on a world's state: its nearest threat, its lane pose
        and its road width."""
        distance, bearing, _ = obstacle_view(small_world)
        speed = small_world.state.speed_mps
        steering, throttle, intervened = _filter(
            SteeringShield(),
            distance=distance,
            bearing=bearing,
            speed=speed,
            lateral=small_world.road.to_frenet(small_world.state.x_m, small_world.state.y_m)[1],
            half_width=small_world.road.half_width_m,
            throttle=0.5,
        )
        assert -1.0 <= steering <= 1.0
        safe = _h(BrakingDistanceBarrier(), distance, bearing, speed) >= (
            SteeringShield().intervention_margin_m
        )
        assert intervened != safe
        if safe:
            assert (steering, throttle) == (0.0, 0.5)

    def test_no_obstacle_never_intervenes(self):
        steering, throttle, intervened = _filter(
            SteeringShield(), distance=NO_OBSTACLE_DISTANCE_M, throttle=1.0
        )
        assert not intervened
        assert (steering, throttle) == (0.0, 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SteeringShield(intervention_margin_m=-1.0)
        with pytest.raises(ValueError):
            SteeringShield(blend_band_m=0.0)


class TestShieldBlendContinuity:
    """Regression: the correction must grow from 0 at the intervention margin.

    Severity used to be ``1 - h / blend_band_m`` (band 3 m) while the
    intervention starts at ``intervention_margin_m`` (2 m), so the correction
    jumped from 0 to ~1/3 the instant ``h`` crossed the margin.
    """

    RAW = (0.2, 0.6)

    def _filtered_at(self, h_value):
        steering, throttle, _ = _filter(
            SteeringShield(),
            distance=5.0,
            bearing=0.3,
            steering=self.RAW[0],
            throttle=self.RAW[1],
            h=h_value,
        )
        return steering, throttle

    def test_no_jump_at_margin(self):
        epsilon = 1e-6
        margin = SteeringShield().intervention_margin_m
        above = self._filtered_at(margin + epsilon)
        below = self._filtered_at(margin - epsilon)
        assert above == self.RAW
        assert below[0] == pytest.approx(self.RAW[0], abs=1e-4)
        assert below[1] == pytest.approx(self.RAW[1], abs=1e-4)

    def test_full_override_at_zero(self):
        at_zero = self._filtered_at(0.0)
        just_below = self._filtered_at(-1e-6)
        deep = self._filtered_at(-5.0)
        assert at_zero[1] < 0.0  # hard braking
        assert at_zero[0] < 0.0  # steers away from the left obstacle
        assert just_below == pytest.approx(at_zero)
        # The ramp ends at h = 0 even though the blend band is wider than
        # the margin: from there down the override is total.
        assert deep == pytest.approx(at_zero)

    def test_severity_monotone_in_band(self):
        margin = SteeringShield().intervention_margin_m
        h_values = [margin * fraction for fraction in (0.9, 0.6, 0.3, 0.0)]
        throttles = [self._filtered_at(h)[1] for h in h_values]
        assert throttles == sorted(throttles, reverse=True)

    def test_never_less_evasive_than_raw_inside_band(self):
        margin = SteeringShield().intervention_margin_m
        for h_value in (0.25 * margin, 0.5 * margin, 0.75 * margin):
            steering, throttle = self._filtered_at(h_value)
            # Obstacle on the left: evasive direction is negative steering.
            assert steering <= self.RAW[0] + 1e-9
            assert throttle <= self.RAW[1] + 1e-9

    def test_creep_throttle_stays_positive_inside_band(self):
        # Anti-stall takes precedence over blend continuity: a braking
        # controller at creep speed must not pin the blended throttle
        # negative and freeze the vehicle inside the intervention band.
        margin = SteeringShield().intervention_margin_m
        for h_value in (0.75 * margin, 0.25 * margin, 0.0):
            _, throttle, _ = _filter(
                SteeringShield(), distance=3.0, bearing=0.2, speed=1.0, throttle=-1.0, h=h_value
            )
            assert throttle > 0.0
