"""Tests for safe-interval estimation, discretization and the lookup table."""

import math

import numpy as np
import pytest

from repro.contracts import ContractViolationError
from repro.core.intervals import (
    SafeIntervalEstimator,
    discretize_deadline,
    discretize_period,
)
from repro.core.lookup import DeadlineLookupTable, LookupGrid
from repro.core.safety import NO_OBSTACLE_DISTANCE_M, BrakingDistanceBarrier, SafetyInputs
from repro.dynamics.state import ControlAction, VehicleState
from repro.sim.obstacles import Obstacle


class TestDiscretizePeriod:
    def test_exact_multiples(self):
        assert discretize_period(0.02, 0.02) == 1
        assert discretize_period(0.04, 0.02) == 2
        assert discretize_period(0.1, 0.02) == 5

    def test_non_multiples_round_up(self):
        assert discretize_period(0.03, 0.02) == 2
        assert discretize_period(0.021, 0.02) == 2

    def test_period_smaller_than_tau(self):
        assert discretize_period(0.01, 0.02) == 1

    def test_float_representation_of_exact_multiple(self):
        # 0.06 / 0.02 is not exactly 3.0 in floating point; eq. (4) must still
        # treat it as an exact multiple.
        assert discretize_period(0.06, 0.02) == 3

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            discretize_period(0.0, 0.02)
        with pytest.raises(ValueError):
            discretize_period(0.02, 0.0)


class TestDiscretizeDeadline:
    def test_floor_behaviour(self):
        assert discretize_deadline(0.079, 0.02) == 3
        assert discretize_deadline(0.0, 0.02) == 0
        assert discretize_deadline(0.019, 0.02) == 0

    def test_exact_multiple(self):
        assert discretize_deadline(0.08, 0.02) == 4
        assert discretize_deadline(0.06, 0.02) == 3

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            discretize_deadline(-0.1, 0.02)
        with pytest.raises(ValueError):
            discretize_deadline(0.1, 0.0)


def _delta(estimator, distance, bearing=0.0, speed=8.0, steering=0.0, throttle=0.0):
    """``Delta_max`` of one canonical scene (obstacle radius 1 m)."""
    return float(
        estimator.estimate_batch(
            np.array([distance]),
            np.array([bearing]),
            np.array([speed]),
            np.array([steering]),
            np.array([throttle]),
        )[0]
    )


def _relative_inputs(state, obstacle):
    """``(distance, bearing, speed)`` of ``state`` relative to ``obstacle``."""
    dx = obstacle.x_m - state.x_m
    dy = obstacle.y_m - state.y_m
    distance = max(0.0, math.hypot(dx, dy) - obstacle.radius_m)
    bearing = math.atan2(dy, dx) - state.heading_rad
    bearing = math.atan2(math.sin(bearing), math.cos(bearing))
    return distance, bearing, state.speed_mps


def _scalar_estimate(estimator, state, obstacle, control):
    """Scalar RK4 rollout: the reference of ``SafeIntervalEstimator.estimate_batch``.

    Steps the bicycle model one state at a time and reports the first step
    at which ``h`` is negative, capped at the horizon.
    """
    barrier = estimator.safety_function
    steps = int(round(estimator.horizon_s / estimator.step_s))
    current = state
    for step_index in range(steps + 1):
        h = barrier.evaluate_batch(*(np.array([v]) for v in _relative_inputs(current, obstacle)))
        if h[0] < 0.0:
            return step_index * estimator.step_s
        if step_index < steps:
            current = estimator.dynamics.step(current, control, estimator.step_s)
    return estimator.horizon_s


class TestSafeIntervalEstimator:
    def test_far_obstacle_returns_horizon(self, fast_estimator):
        delta = _delta(fast_estimator, distance=49.0)
        assert delta == pytest.approx(fast_estimator.horizon_s)

    def test_already_unsafe_returns_zero(self, fast_estimator):
        assert _delta(fast_estimator, distance=1.0, speed=10.0) == 0.0

    def test_monotone_in_initial_distance(self, fast_estimator):
        deltas = [
            _delta(fast_estimator, distance=d, speed=10.0, throttle=0.5)
            for d in (8.0, 8.4, 8.8, 10.0, 13.0)
        ]
        assert all(b >= a for a, b in zip(deltas, deltas[1:], strict=False))

    def test_braking_control_never_shortens_interval(self, fast_estimator):
        accelerating = _delta(fast_estimator, distance=8.5, speed=10.0, throttle=1.0)
        braking = _delta(fast_estimator, distance=8.5, speed=10.0, throttle=-1.0)
        assert braking >= accelerating

    def test_estimate_from_world(self, small_world, fast_estimator, obstacle_view):
        distance, bearing, index = obstacle_view(small_world)
        delta = _delta(fast_estimator, distance, bearing, small_world.state.speed_mps)
        assert index >= 0
        assert 0.0 <= delta <= fast_estimator.horizon_s

    def test_estimate_from_empty_world(self, empty_world, fast_estimator, obstacle_view):
        distance, bearing, _ = obstacle_view(empty_world)
        assert distance == NO_OBSTACLE_DISTANCE_M
        delta = _delta(fast_estimator, distance, bearing, empty_world.state.speed_mps)
        assert delta == pytest.approx(fast_estimator.horizon_s)

    def test_batch_matches_scalar_path(self, fast_estimator):
        distances = np.array([3.0, 6.0, 9.0, 15.0, 30.0])
        bearings = np.array([0.0, 0.1, -0.2, 0.5, 0.0])
        speeds = np.array([10.0, 8.0, 6.0, 12.0, 4.0])
        steerings = np.zeros(5)
        throttles = np.array([0.0, 0.5, -0.5, 1.0, 0.0])
        batch = fast_estimator.estimate_batch(
            distances, bearings, speeds, steerings, throttles, obstacle_radius_m=1.0
        )
        for index in range(5):
            centre_range = distances[index] + 1.0
            obstacle = Obstacle(
                x_m=float(centre_range * np.cos(bearings[index])),
                y_m=float(centre_range * np.sin(bearings[index])),
                radius_m=1.0,
            )
            scalar = _scalar_estimate(
                fast_estimator,
                VehicleState(speed_mps=float(speeds[index])),
                obstacle,
                ControlAction(
                    steering=float(steerings[index]), throttle=float(throttles[index])
                ),
            )
            # The batch path integrates with Euler instead of RK4; results may
            # differ by at most one integration step.
            assert batch[index] == pytest.approx(scalar, abs=fast_estimator.step_s)

    def test_estimate_one_matches_batch(self, fast_estimator):
        """A 1-element call equals its row of a batch call, bit for bit."""
        cases = [
            (3.0, 0.0, 10.0, 0.0, 0.0),
            (6.0, 0.1, 8.0, 0.3, 0.5),
            (9.0, -0.2, 6.0, -0.7, -0.5),
            (15.0, 0.5, 12.0, 1.5, 2.0),  # controls beyond [-1, 1] get clipped
            (30.0, 3.0, 4.0, 0.0, 1.0),
            (2.0, math.pi, 9.0, 0.0, -1.0),
        ]
        batch = fast_estimator.estimate_batch(
            *(np.array(column) for column in zip(*cases, strict=True)), obstacle_radius_m=1.5
        )
        for row, case in enumerate(cases):
            one = fast_estimator.estimate_batch(
                *(np.array([value]) for value in case), obstacle_radius_m=1.5
            )
            assert one[0] == batch[row]

    def test_estimate_one_scalar_fallback_for_custom_barrier(self):
        """A custom barrier is the one the rollout evaluates.  (Barriers of
        other types once took a scalar fallback path; every barrier is now
        a ``BrakingDistanceBarrier``, read by the vectorized rollout.)"""
        always_safe = BrakingDistanceBarrier(
            clearance_m=0.0, reaction_time_s=0.0, max_brake_mps2=1e9
        )
        estimator = SafeIntervalEstimator(
            safety_function=always_safe, horizon_s=0.08, step_s=0.01
        )
        default = SafeIntervalEstimator(horizon_s=0.08, step_s=0.01)
        assert _delta(estimator, distance=3.0, speed=5.0) == pytest.approx(0.08)
        assert _delta(default, distance=3.0, speed=5.0) == 0.0

    def test_batch_requires_matching_shapes(self, fast_estimator):
        # The kernel raises ValueError itself; with runtime contracts on,
        # the declared (N,) specs reject the call first.
        with pytest.raises((ValueError, ContractViolationError)):
            fast_estimator.estimate_batch(
                np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), np.zeros(3)
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SafeIntervalEstimator(horizon_s=0.0)
        with pytest.raises(ValueError):
            SafeIntervalEstimator(horizon_s=0.05, step_s=0.1)


class TestDeadlineLookupTable:
    def test_build_shape_and_bounds(self, fast_estimator, small_lookup_grid):
        table = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        assert table.size == small_lookup_grid.num_entries
        assert np.all(table.values >= 0.0)
        assert np.all(table.values <= fast_estimator.horizon_s + 1e-12)

    def test_query_no_obstacle_returns_horizon(self, fast_estimator, small_lookup_grid):
        table = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        inputs = SafetyInputs(distance_m=1e6, bearing_rad=0.0, speed_mps=5.0)
        assert table.query(inputs, ControlAction()) == pytest.approx(table.horizon_s)

    def test_query_beyond_grid_returns_horizon(self, fast_estimator, small_lookup_grid):
        table = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        inputs = SafetyInputs(distance_m=200.0, bearing_rad=0.0, speed_mps=5.0)
        assert table.query(inputs, ControlAction()) == pytest.approx(table.horizon_s)

    def test_query_is_conservative_wrt_exact_value(self, fast_estimator, small_lookup_grid):
        table = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        rng = np.random.default_rng(0)
        for _ in range(30):
            distance = float(rng.uniform(1.0, 25.0))
            bearing = float(rng.uniform(-0.6, 0.6))
            speed = float(rng.uniform(2.0, 11.0))
            control = ControlAction(
                steering=float(rng.uniform(-1, 1)), throttle=float(rng.uniform(-1, 1))
            )
            inputs = SafetyInputs(distance_m=distance, bearing_rad=bearing, speed_mps=speed)
            exact = fast_estimator.estimate_batch(
                np.array([distance]),
                np.array([bearing]),
                np.array([speed]),
                np.array([control.steering]),
                np.array([control.throttle]),
            )[0]
            # Conservative: the table should not report a longer safe interval
            # than the exact evaluation by more than one integration step.
            assert table.query(inputs, control) <= exact + fast_estimator.step_s + 1e-9

    def test_close_obstacle_yields_shorter_deadline_than_far(self, fast_estimator, small_lookup_grid):
        table = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        control = ControlAction(throttle=0.5)
        close = table.query(
            SafetyInputs(distance_m=4.0, bearing_rad=0.0, speed_mps=10.0), control
        )
        far = table.query(
            SafetyInputs(distance_m=25.0, bearing_rad=0.0, speed_mps=10.0), control
        )
        assert close <= far

    def test_bearing_grid_is_endpoint_exclusive(self, small_lookup_grid):
        bearings = small_lookup_grid.bearing_values()
        assert bearings.size == small_lookup_grid.num_bearings
        assert bearings[0] == pytest.approx(-math.pi)
        # -pi and +pi are the same physical angle; only one may be gridded.
        assert np.all(bearings < math.pi)
        wrapped = np.arctan2(np.sin(bearings), np.cos(bearings))
        assert np.unique(np.round(wrapped, 12)).size == bearings.size

    def test_query_wraps_bearing_at_pi(self, fast_estimator, small_lookup_grid):
        """Bearings just either side of +-pi are the same rear obstacle."""
        table = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        control = ControlAction(throttle=0.5)
        for epsilon in (1e-3, 0.05, 0.3):
            rear_left = table.query(
                SafetyInputs(
                    distance_m=6.0, bearing_rad=math.pi - epsilon, speed_mps=8.0
                ),
                control,
            )
            rear_right = table.query(
                SafetyInputs(
                    distance_m=6.0, bearing_rad=-math.pi + epsilon, speed_mps=8.0
                ),
                control,
            )
            assert rear_left == pytest.approx(rear_right)

    def test_rear_obstacle_not_binned_as_frontal(self, fast_estimator, small_lookup_grid):
        """A bearing of -3.1 rad must map to the rear bin, not a distant one."""
        table = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        bearings = small_lookup_grid.bearing_values()
        wrapped_error = np.arctan2(
            np.sin(bearings - (-3.1)), np.cos(bearings - (-3.1))
        )
        best = int(np.argmin(np.abs(wrapped_error)))
        # The nearest wrapped bin is the -pi (rear) bin.
        assert bearings[best] == pytest.approx(-math.pi)
        # And the query for the rear obstacle is never shorter than what the
        # rear-bin neighbourhood holds (it must not fall into a frontal bin).
        distances = small_lookup_grid.distance_values()
        speeds = small_lookup_grid.speed_values()
        d_idx = int(np.searchsorted(distances, 6.0, side="right") - 1)
        s_idx = int(np.searchsorted(speeds, 8.0, side="left"))
        neighbourhood = np.take(
            table.values[d_idx, :, s_idx], [best - 1, best, best + 1], axis=0, mode="wrap"
        )
        value = table.query(
            SafetyInputs(distance_m=6.0, bearing_rad=-3.1, speed_mps=8.0),
            ControlAction(),
        )
        assert value >= float(neighbourhood.min()) - 1e-12

    def test_query_bearing_conservative_across_wrap(
        self, fast_estimator, small_lookup_grid
    ):
        """Quantization may never report longer intervals than the estimator."""
        table = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        for bearing in (-3.1, 3.1, math.pi - 1e-6, -math.pi):
            inputs = SafetyInputs(distance_m=4.0, bearing_rad=bearing, speed_mps=10.0)
            exact = _delta(fast_estimator, 4.0, bearing=bearing, speed=10.0)
            assert table.query(inputs, ControlAction()) <= exact + fast_estimator.step_s + 1e-9

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            LookupGrid(max_distance_m=0.0)
        with pytest.raises(ValueError):
            LookupGrid(num_bearings=1)
        with pytest.raises(ValueError):
            LookupGrid(num_steering_bins=0)

    @pytest.mark.parametrize(
        "grid",
        [LookupGrid(), LookupGrid(num_steering_bins=1, num_throttle_bins=1)],
    )
    def test_cached_axes_equal_grid_values(self, grid):
        """query_batch reads axes built once per table, equal to the grid's."""
        table = DeadlineLookupTable(
            grid=grid,
            values=np.zeros((
                grid.distance_values().size,
                grid.num_bearings,
                grid.speed_values().size,
                grid.num_steering_bins,
                grid.num_throttle_bins,
            )),
            horizon_s=0.08,
        )
        expected = (
            grid.distance_values(),
            grid.bearing_values(),
            grid.speed_values(),
            grid.steering_values(),
            grid.throttle_values(),
        )
        assert len(table._axes) == len(expected)
        for axis, values in zip(table._axes, expected):
            np.testing.assert_array_equal(axis, values)
            assert not axis.flags.writeable

    def test_equality_compares_values(self, fast_estimator, small_lookup_grid):
        """``==`` answers instead of raising on the ``values`` arrays."""
        values = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid).values
        table = DeadlineLookupTable(small_lookup_grid, values, horizon_s=0.5)
        same = DeadlineLookupTable(small_lookup_grid, np.array(values), horizon_s=0.5)
        assert table == same
        changed = np.array(values)
        changed[0, 0, 0, 0, 0] += 0.01
        assert table != DeadlineLookupTable(small_lookup_grid, changed, horizon_s=0.5)
        assert table != DeadlineLookupTable(small_lookup_grid, values, horizon_s=0.25)
        assert table != "table"

    def test_values_shape_mismatch_rejected(self, small_lookup_grid):
        with pytest.raises(ValueError):
            DeadlineLookupTable(
                grid=small_lookup_grid, values=np.zeros((2, 2, 2, 2, 2)), horizon_s=0.08
            )
