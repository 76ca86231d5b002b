"""Property-based tests (hypothesis) on the core invariants.

These tests exercise the formal pieces of the paper's model over randomized
inputs: the discretizations of eqs. (4)-(5), the monotonicity of the safety
barrier and safe-interval estimator, the conservativeness of the energy
models, and the bookkeeping invariants of the scheduler.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import streams
from repro.comm.offload import OffloadPlanner
from repro.comm.server import EdgeServer
from repro.core.energy import (
    baseline_interval_energy_j,
    gating_interval_energy_j,
)
from repro.core.intervals import (
    SafeIntervalEstimator,
    discretize_deadline,
    discretize_period,
)
from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController
from repro.core.lookup import DeadlineLookupTable, LookupGrid
from repro.core.models import ModelSet, SensoryModel
from repro.core.safety import (
    NO_OBSTACLE_DISTANCE_M,
    BrakingDistanceBarrier,
    SafetyInputs,
)
from repro.core.scheduler import SafeRuntimeScheduler
from repro.core.shield import SteeringShield
from repro.dynamics.bicycle import KinematicBicycleModel
from repro.dynamics.state import ControlAction, VehicleState, wrap_angle
from repro.perception.detections import nearest_per_row
from repro.perception.detector import DetectorModel, group_scan_rows
from repro.platform.compute import ComputeProfile
from repro.platform.presets import DRIVE_PX2_RESNET152, ZED_CAMERA, ZERO_POWER_SENSOR
from repro.platform.sensors import SensorPowerSpec
from repro.sim.observation import RangeScanner
from repro.sim.road import ArcSegment, Centerline, StraightSegment
from repro.sim.world import World

TAU = 0.02

finite_angles = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
distances = st.floats(0.0, 200.0, allow_nan=False)
bearings = st.floats(-math.pi, math.pi, allow_nan=False)
speeds = st.floats(0.0, 15.0, allow_nan=False)
controls = st.builds(
    ControlAction,
    steering=st.floats(-1.0, 1.0, allow_nan=False),
    throttle=st.floats(-1.0, 1.0, allow_nan=False),
)
maybe_obstacle_distances = st.one_of(distances, st.just(NO_OBSTACLE_DISTANCE_M))
lateral_offsets = st.floats(-4.0, 4.0, allow_nan=False)
unit_commands = st.floats(-1.0, 1.0, allow_nan=False)
curvatures = st.floats(-0.1, 0.1, allow_nan=False)
coordinates = st.floats(-50.0, 50.0, allow_nan=False)
scan_ranges = st.floats(0.0, 45.0, allow_nan=False)

# A chain exercising every joint kind: straight->arc, arc->straight and a
# sign flip between the arcs, for the projection round-trip tests.
_JOINT_CENTERLINE = Centerline(
    (
        StraightSegment(20.0),
        ArcSegment(30.0, math.radians(60.0)),
        StraightSegment(15.0),
        ArcSegment(25.0, -math.radians(45.0)),
    )
)


# Edges of (-pi, pi]: the bounds and their neighbouring floats, both zeros
# and multiples of 2 pi (with their neighbours).
_WRAP_EDGES = [
    edge
    for centre in (math.pi, -math.pi, *(k * 2.0 * math.pi for k in range(-3, 4)))
    for edge in (centre, math.nextafter(centre, -math.inf), math.nextafter(centre, math.inf))
] + [-0.0]


class TestAngleAndDynamicsProperties:
    @given(angle=finite_angles)
    def test_wrap_angle_stays_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi

    @given(angle=finite_angles)
    def test_wrap_angle_preserves_direction(self, angle):
        wrapped = wrap_angle(angle)
        assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
        assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(angles=st.lists(st.one_of(finite_angles, st.sampled_from(_WRAP_EDGES)), min_size=1))
    def test_wrap_angle_array_path_equals_scalar_path_bitwise(self, angles):
        """Element by element, the array path returns the scalar path's bits.

        Lists drawn only from in-range values take the array path's early
        copy, the others its wrap arithmetic.  Either way the result is a new
        array: writing to it leaves the input as it was.
        """
        array = np.array(angles, dtype=float)
        before = array.copy()
        scalar = np.array([wrap_angle(float(angle)) for angle in angles], dtype=float)
        for shaped in (array, array.reshape(1, -1)):
            wrapped = wrap_angle(shaped)
            assert wrapped.shape == shaped.shape
            assert wrapped.reshape(-1).view(np.int64).tolist() == scalar.view(np.int64).tolist()
            wrapped[...] = 7.0
            assert array.view(np.int64).tolist() == before.view(np.int64).tolist()

    @settings(max_examples=50, deadline=None)
    @given(speed=speeds, control=controls, dt=st.floats(0.001, 0.1, allow_nan=False))
    def test_bicycle_step_respects_speed_bounds(self, speed, control, dt):
        model = KinematicBicycleModel()
        state = VehicleState(speed_mps=speed)
        nxt = model.step(state, control, dt)
        assert 0.0 <= nxt.speed_mps <= model.params.max_speed_mps
        assert -math.pi < nxt.heading_rad <= math.pi

    @settings(max_examples=50, deadline=None)
    @given(speed=speeds, dt=st.floats(0.001, 0.05, allow_nan=False))
    def test_straight_coasting_preserves_lateral_position(self, speed, dt):
        model = KinematicBicycleModel()
        nxt = model.step(VehicleState(speed_mps=speed), ControlAction(), dt)
        assert nxt.y_m == pytest.approx(0.0, abs=1e-9)


class TestDiscretizationProperties:
    @given(
        multiple=st.integers(1, 50),
        tau=st.floats(0.001, 0.2, allow_nan=False),
    )
    def test_exact_multiples_recovered(self, multiple, tau):
        assert discretize_period(multiple * tau, tau) == multiple

    @given(
        period=st.floats(0.001, 1.0, allow_nan=False),
        tau=st.floats(0.001, 0.2, allow_nan=False),
    )
    def test_discretized_period_covers_true_period(self, period, tau):
        delta = discretize_period(period, tau)
        assert delta >= 1
        # The discretized period never under-approximates the true one by
        # more than a floating point epsilon (eq. 4 rounds up).
        assert delta * tau >= period - 1e-9 * max(1.0, period)

    @given(
        delta_max=st.floats(0.0, 1.0, allow_nan=False),
        tau=st.floats(0.001, 0.2, allow_nan=False),
    )
    def test_discretized_deadline_is_conservative(self, delta_max, tau):
        periods = discretize_deadline(delta_max, tau)
        assert periods >= 0
        # eq. (5) floors: the discretized deadline never exceeds the true one.
        assert periods * tau <= delta_max + 1e-9 * max(1.0, delta_max)


class TestSafetyProperties:
    @settings(max_examples=50, deadline=None)
    @given(distance=distances, bearing=bearings, speed=speeds)
    def test_safety_state_is_binary_and_consistent(self, distance, bearing, speed):
        """The safe-interval rollout applies eq. (1)'s binary safety state
        to the barrier kernel's ``h``: it returns 0 exactly when ``h < 0``."""
        h = BrakingDistanceBarrier().evaluate_batch(
            np.array([distance]), np.array([bearing]), np.array([speed])
        )[0]
        # The rollout rebuilds distance and bearing from the scene, to
        # within rounding: a state on the zero level set may read either way.
        assume(abs(h) > 1e-9)
        estimator = SafeIntervalEstimator(horizon_s=0.08, step_s=0.01)
        delta = estimator.estimate_batch(
            np.array([distance]), np.array([bearing]), np.array([speed]), np.zeros(1), np.zeros(1)
        )[0]
        assert (delta > 0.0) == (h >= 0.0)

    @given(
        bearing=bearings,
        speed=speeds,
        near=st.floats(0.0, 100.0, allow_nan=False),
        extra=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_barrier_monotone_in_distance(self, bearing, speed, near, extra):
        h_near, h_far = BrakingDistanceBarrier().evaluate_batch(
            np.array([near, near + extra]), np.full(2, bearing), np.full(2, speed)
        )
        assert h_far >= h_near

    @given(distance=st.floats(0.0, 60.0, allow_nan=False), bearing=bearings, slow=speeds, faster=st.floats(0.0, 5.0, allow_nan=False))
    def test_barrier_antitone_in_speed(self, distance, bearing, slow, faster):
        h_slow, h_fast = BrakingDistanceBarrier().evaluate_batch(
            np.full(2, distance), np.full(2, bearing), np.array([slow, slow + faster])
        )
        assert h_fast <= h_slow + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        distance=st.floats(0.5, 40.0, allow_nan=False),
        bearing=st.floats(-1.0, 1.0, allow_nan=False),
        speed=st.floats(0.0, 14.0, allow_nan=False),
        control=controls,
    )
    def test_safe_interval_is_bounded_and_nonnegative(self, distance, bearing, speed, control):
        estimator = SafeIntervalEstimator(horizon_s=0.08, step_s=0.01)
        value = estimator.estimate_batch(
            np.array([distance]),
            np.array([bearing]),
            np.array([speed]),
            np.array([control.steering]),
            np.array([control.throttle]),
        )[0]
        assert 0.0 <= value <= estimator.horizon_s


def _sensor_spec(measurement, mechanical):
    return SensorPowerSpec(
        name="hyp-sensor", measurement_power_w=measurement, mechanical_power_w=mechanical
    )


class TestEnergyModelProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        delta_max=st.integers(1, 8),
        period_multiple=st.integers(1, 4),
        measurement=st.floats(0.0, 30.0, allow_nan=False),
        mechanical=st.floats(0.0, 5.0, allow_nan=False),
        gate_sensor=st.booleans(),
    )
    def test_gating_never_exceeds_baseline(
        self, delta_max, period_multiple, measurement, mechanical, gate_sensor
    ):
        model = SensoryModel(
            name="m",
            period_s=period_multiple * TAU,
            compute=DRIVE_PX2_RESNET152,
            sensor=_sensor_spec(measurement, mechanical),
        )
        baseline = baseline_interval_energy_j(model, TAU, delta_max)
        gated = gating_interval_energy_j(model, TAU, delta_max, gate_sensor)
        assert gated <= baseline + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        delta_max=st.integers(1, 8),
        period_multiple=st.integers(1, 4),
        measurement=st.floats(0.0, 30.0, allow_nan=False),
        mechanical=st.floats(0.0, 5.0, allow_nan=False),
    )
    def test_sensor_gating_saves_at_least_model_gating(
        self, delta_max, period_multiple, measurement, mechanical
    ):
        model = SensoryModel(
            name="m",
            period_s=period_multiple * TAU,
            compute=DRIVE_PX2_RESNET152,
            sensor=_sensor_spec(measurement, mechanical),
        )
        sensor_gated = gating_interval_energy_j(model, TAU, delta_max, gate_sensor=True)
        model_gated = gating_interval_energy_j(model, TAU, delta_max, gate_sensor=False)
        assert sensor_gated <= model_gated + 1e-12


class TestSchedulerProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        deadline_periods=st.integers(0, 6),
        optimization=st.sampled_from(["none", "model_gating", "sensor_gating", "offload"]),
        steps=st.integers(1, 24),
    )
    def test_scheduler_never_spends_more_than_baseline_plus_transmissions(
        self, deadline_periods, optimization, steps
    ):
        model_set = ModelSet.from_models(
            [
                SensoryModel(
                    name="vae",
                    period_s=TAU,
                    compute=ComputeProfile(name="vae", latency_s=0.004, power_w=4.0),
                    sensor=ZERO_POWER_SENSOR,
                    critical=True,
                ),
                SensoryModel(
                    name="det-fast", period_s=TAU, compute=DRIVE_PX2_RESNET152,
                    sensor=ZED_CAMERA,
                ),
                SensoryModel(
                    name="det-slow", period_s=2 * TAU, compute=DRIVE_PX2_RESNET152,
                    sensor=ZED_CAMERA,
                ),
            ]
        )
        scheduler = SafeRuntimeScheduler(
            model_set=model_set,
            tau_s=TAU,
            deadline_provider=lambda inputs, control: deadline_periods * TAU,
            optimization=optimization,
            rng=np.random.default_rng(0),
        )
        inputs = SafetyInputs(distance_m=20.0, bearing_rad=0.0, speed_mps=8.0)
        for _ in range(steps):
            scheduler.step(inputs, ControlAction())

        fields = scheduler.energy.report_fields(0)
        optimized = fields["energy_by_model_j"]
        baseline = fields["baseline_by_model_j"]
        transmissions = scheduler.energy.transmission.sum()
        for model in model_set.optimizable:
            # Gating/local never exceed the baseline; offloading may add
            # transmission energy on top of avoided compute, and in the worst
            # case (all responses late) also keeps all local inferences.
            assert optimized.get(model.name, 0.0) <= (
                baseline.get(model.name, 0.0) + transmissions + 1e-9
            )
        # delta_max samples are always within the configured clamp.
        assert all(
            0 <= sample <= scheduler.max_deadline_periods
            for sample in scheduler.delta_max_samples
        )


def _assert_rows_equal_alone(kernel, columns):
    """Each row of one N-row ``kernel`` call equals the 1-element call on
    that row alone, bit for bit."""
    together = kernel(*columns)
    together = together if isinstance(together, tuple) else (together,)
    for j in range(len(columns[0])):
        alone = kernel(*(column[j : j + 1] for column in columns))
        alone = alone if isinstance(alone, tuple) else (alone,)
        for one, many in zip(alone, together, strict=True):
            assert one[0] == many[j]


def _columns(states):
    return [np.array(column) for column in zip(*states, strict=True)]


class TestKernelFacadeParity:
    """Batch kernels against serial references and their edge cases, and
    1-element calls (the scalar facades left, such as the centreline
    queries and ``World.status``) against their rows of an N-row call.

    On any randomized state the 1-element call and the corresponding kernel
    element must agree bit-for-bit — this is the no-drift guarantee the
    lockstep batch engine's bit-exactness rests on.
    """

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(maybe_obstacle_distances, bearings, speeds), min_size=1, max_size=12
        )
    )
    def test_barrier_facade_matches_kernel(self, states):
        barrier = BrakingDistanceBarrier()
        distance, bearing, speed = _columns(states)
        _assert_rows_equal_alone(barrier.evaluate_batch, [distance, bearing, speed])
        _assert_rows_equal_alone(barrier.required_clearance_batch, [bearing, speed])

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(
                maybe_obstacle_distances,
                bearings,
                speeds,
                lateral_offsets,
                unit_commands,
                unit_commands,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_shield_facade_matches_kernel(self, states):
        distance, bearing, speed, lateral, steering, throttle = _columns(states)
        h = BrakingDistanceBarrier().evaluate_batch(distance, bearing, speed)
        half_width = np.full(len(states), 4.0)
        _assert_rows_equal_alone(
            SteeringShield().filter_batch,
            [h, distance, bearing, speed, lateral, half_width, steering, throttle],
        )

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(speeds, lateral_offsets, bearings, curvatures), min_size=1, max_size=12
        )
    )
    def test_pure_pursuit_facade_matches_kernel(self, states):
        controller = PurePursuitController()
        speed, lateral, heading, curvature = _columns(states)
        target = np.full(len(states), controller.target_speed_mps)
        _assert_rows_equal_alone(
            controller.act_batch, [speed, target, lateral, heading, curvature]
        )

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(
                speeds,
                lateral_offsets,
                bearings,
                curvatures,
                st.booleans(),
                distances,
                bearings,
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_heuristic_facade_matches_kernel(self, states):
        controller = ObstacleAvoidanceController()
        speed, lateral, heading, curvature, has, distance, bearing, stale = _columns(states)
        target = np.full(len(states), controller.target_speed_mps)
        _assert_rows_equal_alone(
            controller.act_batch,
            [speed, target, lateral, heading, curvature, has, distance, bearing, stale],
        )

    def test_shield_blend_ramp_boundary(self):
        """Exactly at h = intervention_margin_m the shield passes through;
        one ulp below the blend ramp engages."""
        shield = SteeringShield()
        margin = shield.intervention_margin_m
        h = np.array([margin, np.nextafter(margin, -math.inf)])
        fs, ft, intervened = shield.filter_batch(
            h,
            np.array([5.0, 5.0]),
            np.zeros(2),
            np.array([5.0, 5.0]),
            np.zeros(2),
            4.0,
            np.zeros(2),
            np.array([0.5, 0.5]),
        )
        assert not intervened[0]
        assert fs[0] == 0.0 and ft[0] == 0.5
        assert intervened[1]
        assert ft[1] < 0.5

    def test_shield_no_obstacle_sentinel_passes_through(self):
        """The sentinel distance disables the shield regardless of h."""
        shield = SteeringShield()
        fs, ft, intervened = shield.filter_batch(
            np.array([-1.0]),
            np.array([NO_OBSTACLE_DISTANCE_M]),
            np.zeros(1),
            np.array([5.0]),
            np.zeros(1),
            4.0,
            np.array([0.3]),
            np.array([0.2]),
        )
        assert not intervened[0]
        assert fs[0] == 0.3 and ft[0] == 0.2

    # ------------------------------------------------------------------
    # Perception/scan-tail kernels: obstacle view, grouping, projection.
    # ------------------------------------------------------------------

    # The nearer centre is the farther surface: ranking by centre
    # distance picks the wrong obstacle.
    @example(poses=[(0.0, 0.0, 0.0)], obstacle_specs=[(10.0, 0.0, 0.5), (11.0, 0.0, 3.0)])
    @settings(max_examples=50, deadline=None)
    @given(
        poses=st.lists(
            st.tuples(coordinates, coordinates, bearings), min_size=1, max_size=6
        ),
        obstacle_specs=st.lists(
            st.tuples(coordinates, coordinates, st.floats(0.1, 3.0, allow_nan=False)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_obstacle_view_facade_matches_kernel_and_ranking(self, poses, obstacle_specs):
        n, k = len(poses), len(obstacle_specs)
        xs, ys, hs = (np.array(column, dtype=float) for column in zip(*poses, strict=True))
        obs_x, obs_y, obs_r = (
            np.tile(np.array(column, dtype=float), (n, 1))
            for column in zip(*obstacle_specs, strict=True)
        )
        columns = [xs, ys, hs, obs_x, obs_y, obs_r, np.ones((n, k), dtype=bool)]
        surface, bearing, nearest = World.nearest_obstacle_view_batch(*columns)
        _assert_rows_equal_alone(World.nearest_obstacle_view_batch, columns)
        for j, (x, y, h) in enumerate(poses):
            # The kernel's masked argmin reproduces the scalar ranking:
            # ahead-preferred min surface distance, first occurrence on ties.
            views = []
            for ox, oy, orad in obstacle_specs:
                centre = np.hypot(ox - x, oy - y)
                obs_bearing = wrap_angle(np.arctan2(oy - y, ox - x) - h)
                views.append((max(0.0, float(centre - orad)), float(obs_bearing)))
            ahead = [i for i, v in enumerate(views) if abs(v[1]) <= 0.5 * math.pi]
            candidates = ahead if ahead else list(range(len(views)))
            best = min(candidates, key=lambda i: views[i][0])
            assert int(nearest[j]) == best
            assert surface[j] == views[best][0]
            assert bearing[j] == pytest.approx(views[best][1], abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 6))
    def test_obstacle_view_skips_padded_slots(self, seed, slots):
        """A masked slot never ranks, wherever it sits: each row equals the
        kernel over its valid obstacles alone, and a row without one reads
        the no-obstacle view."""
        rng = np.random.default_rng(seed)
        rows = 5
        xs, ys = rng.uniform(-5.0, 5.0, (2, rows))
        hs = rng.uniform(-math.pi, math.pi, rows)
        obs_x = xs[:, None] + rng.uniform(-20.0, 20.0, (rows, slots))
        obs_y = ys[:, None] + rng.uniform(-20.0, 20.0, (rows, slots))
        obs_r = rng.uniform(0.1, 3.0, (rows, slots))
        valid = rng.random((rows, slots)) < 0.6
        valid[0] = False
        # Pads right in front of the vehicle, where an unmasked slot wins.
        pad = ~valid
        obs_x[pad] = (xs[:, None] + 2.0 * np.cos(hs)[:, None]).repeat(slots, 1)[pad]
        obs_y[pad] = (ys[:, None] + 2.0 * np.sin(hs)[:, None]).repeat(slots, 1)[pad]
        surface, bearing, nearest = World.nearest_obstacle_view_batch(
            xs, ys, hs, obs_x, obs_y, obs_r, valid
        )
        for j in range(rows):
            real = valid[j].nonzero()[0]
            if not real.size:
                assert (surface[j], bearing[j], nearest[j]) == (NO_OBSTACLE_DISTANCE_M, 0.0, -1)
                continue
            alone = World.nearest_obstacle_view_batch(
                xs[j : j + 1], ys[j : j + 1], hs[j : j + 1],
                obs_x[j : j + 1, real], obs_y[j : j + 1, real], obs_r[j : j + 1, real],
                np.ones((1, real.size), dtype=bool),
            )
            assert surface[j] == alone[0][0]
            assert bearing[j] == alone[1][0]
            assert nearest[j] == real[alone[2][0]]

    @staticmethod
    def _view(obstacles, heading=0.0, valid=None):
        """Nearest-obstacle view of a vehicle at the origin, one row."""
        obs_x, obs_y, obs_r = (
            np.array([column], dtype=float) for column in zip(*obstacles, strict=True)
        )
        valid = np.ones(obs_x.shape, dtype=bool) if valid is None else np.array([valid])
        surface, bearing, nearest = World.nearest_obstacle_view_batch(
            np.zeros(1), np.zeros(1), np.array([heading]), obs_x, obs_y, obs_r, valid
        )
        return float(surface[0]), float(bearing[0]), int(nearest[0])

    def test_obstacle_view_ahead_boundary_at_half_pi(self):
        """|bearing| == pi/2 exactly still counts as ahead (<=, not <)."""
        behind = (-1.0, 0.0, 0.5)  # closer, behind
        boundary = (0.0, 5.0, 1.0)  # bearing +pi/2
        assert self._view([behind, boundary])[2] == 1
        # One ulp past the boundary the obstacle is behind; with nothing
        # ahead the globally nearest obstacle wins instead.
        assert self._view([behind, boundary], heading=-1e-9)[2] == 0

    def test_obstacle_view_empty_world_returns_none(self):
        """A row whose slots are all padding (an empty world) reads the
        no-obstacle view (index -1), whatever the pad holds."""
        pad = (1.0, 0.0, 1.0)  # would be 0 m ahead if it ranked
        view = self._view([pad], valid=[False])
        assert view == (NO_OBSTACLE_DISTANCE_M, 0.0, -1)

    @staticmethod
    def _serial_groups(row, threshold):
        """The pre-vectorization serial grouping loop, as reference."""
        hit = row < threshold
        groups = []
        start = None
        for index in range(len(row) + 1):
            is_hit = index < len(row) and hit[index]
            if is_hit and start is None:
                start = index
            elif not is_hit and start is not None:
                segment = row[start:index]
                offset = int(np.argmin(segment))
                groups.append((start, index - start, offset, float(segment[offset])))
                start = None
        return groups

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.lists(scan_ranges, min_size=32, max_size=32), min_size=1, max_size=4
        ),
        threshold=st.floats(1.0, 44.0, allow_nan=False),
    )
    def test_grouping_kernel_matches_serial_loop(self, rows, threshold):
        matrix = np.array(rows, dtype=float)
        group_row, start, length, best_offset, best_distance = group_scan_rows(
            matrix, threshold
        )
        expected = [
            (r, *group)
            for r in range(matrix.shape[0])
            for group in self._serial_groups(matrix[r], threshold)
        ]
        assert len(expected) == group_row.size
        for g, (row, g_start, g_length, g_offset, g_distance) in enumerate(expected):
            assert group_row[g] == row
            assert start[g] == g_start
            assert length[g] == g_length
            assert best_offset[g] == g_offset
            assert best_distance[g] == g_distance

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.lists(scan_ranges, min_size=32, max_size=32), min_size=1, max_size=3
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_detect_batch_matches_scalar_draw_reference(self, rows, seed):
        """Stream draws reproduce the legacy per-detection scalar draws —
        same values bit for bit, and each row's stream cursor ends exactly
        where the scalar draws leave its generator (the serial/batch
        lockstep guarantee)."""
        detector = DetectorModel(name="hyp-det", seed=seed)
        matrix = np.array(rows, dtype=float)
        threshold = detector.scanner.max_range_m - detector.detection_threshold_m
        angles = detector.scanner.beam_angles()
        row_seeds = [seed + r for r in range(matrix.shape[0])]
        noise = streams.DrawStream(row_seeds, "standard_normal")
        serial_rngs = [np.random.default_rng(row_seed) for row_seed in row_seeds]
        counts, distances, bearings, spans = detector.detect_batch(matrix, noise)
        cursor = 0
        for r in range(matrix.shape[0]):
            rng = serial_rngs[r]
            expected = []
            for g_start, g_length, g_offset, g_distance in self._serial_groups(
                matrix[r], threshold
            ):
                distance = g_distance
                bearing = float(angles[g_start + g_offset])
                if detector.range_noise_std_m > 0.0:
                    distance = max(
                        0.0, distance + rng.normal(0.0, detector.range_noise_std_m)
                    )
                if detector.bearing_noise_std_rad > 0.0:
                    bearing += rng.normal(0.0, detector.bearing_noise_std_rad)
                expected.append((distance, bearing, g_length))
            assert int(counts[r]) == len(expected)
            for distance, bearing, span in expected:
                assert distances[cursor] == distance
                assert bearings[cursor] == bearing
                assert spans[cursor] == span
                cursor += 1
        assert cursor == distances.size
        # The stream consumed exactly the scalar draw count per row.
        following = noise.take(np.arange(len(row_seeds)), np.ones(len(row_seeds)))
        assert following.tolist() == [rng.standard_normal() for rng in serial_rngs]

    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 5), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nearest_per_row_matches_serial_min(self, counts, seed):
        rng = np.random.default_rng(seed)
        counts_arr = np.array(counts, dtype=np.int64)
        distances = rng.integers(0, 4, size=int(counts_arr.sum())).astype(float)
        has, first = nearest_per_row(counts_arr, distances)
        offsets = np.concatenate(([0], np.cumsum(counts_arr)))
        cursor = 0
        for r, count in enumerate(counts):
            assert has[r] == (count > 0)
            if count > 0:
                row_slice = distances[offsets[r] : offsets[r + 1]]
                assert first[cursor] == offsets[r] + int(np.argmin(row_slice))
                cursor += 1
        assert cursor == first.size

    @settings(max_examples=50, deadline=None)
    @given(
        joint=st.integers(0, 2),
        offset=st.floats(-2.0, 2.0, allow_nan=False),
        lateral=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_projection_facade_and_round_trip_near_joints(
        self, joint, offset, lateral
    ):
        centerline = _JOINT_CENTERLINE
        joints = centerline._seg_s0[1:]
        s = float(min(max(joints[joint] + offset, 0.0), centerline.length_m))
        x, y = centerline.from_frenet(s, lateral)
        # Facade == kernel element, bit for bit.
        s_scalar, d_scalar = centerline.project(x, y)
        s_batch, d_batch = centerline.project_batch(
            np.array([x], dtype=float), np.array([y], dtype=float)
        )
        assert s_scalar == s_batch[0]
        assert d_scalar == d_batch[0]
        assert centerline.heading_at(s) == centerline.heading_at_batch(
            np.array([s], dtype=float)
        )[0]
        # Round trip: projecting the synthesized point recovers (s, d).
        s_back, d_back = centerline.to_frenet(x, y)
        assert s_back == pytest.approx(s, abs=1e-6)
        assert d_back == pytest.approx(lateral, abs=1e-6)


# Several arcs of both turn directions, including a half circle, with
# straights between and around them.
_MULTI_ARC_CENTERLINE = Centerline(
    (
        StraightSegment(12.0),
        ArcSegment(20.0, math.radians(80.0)),
        ArcSegment(9.0, -math.pi),
        StraightSegment(6.0),
        ArcSegment(15.0, math.radians(40.0)),
        StraightSegment(10.0),
    )
)
# Starts on an arc, so that arc wins the tie at its own centre (r == 0)
# and the degenerate branch decides the result.
_ARC_FIRST_CENTERLINE = Centerline(
    (
        ArcSegment(10.0, math.radians(135.0)),
        StraightSegment(5.0),
        ArcSegment(6.0, -math.radians(90.0)),
    )
)
_REFERENCE_CENTERLINES = (_MULTI_ARC_CENTERLINE, _ARC_FIRST_CENTERLINE)


def _scalar_project(centerline, x, y):
    """Scalar walk over the placed segments: the reference of ``project_batch``.

    Each segment projects through ``_PlacedSegment.project``; only the first
    segment may extend below its start and only the last past its end; the
    foot point comes from ``point_at`` and a strictly smaller gap wins.
    """
    placed = centerline._placed
    best = None
    for index, anchored in enumerate(placed):
        s_local, d = anchored.project(x, y)
        if index > 0:
            s_local = max(s_local, 0.0)
        if index < len(placed) - 1:
            s_local = min(s_local, anchored.length_m)
        px, py = anchored.point_at(min(max(s_local, 0.0), anchored.length_m))
        gap = float(np.hypot(x - px, y - py))
        if best is None or gap < best[0]:
            best = (gap, anchored.s0 + s_local, d)
    return best[1], best[2]


def _special_points(centerline):
    """Before the start, past the end, every joint and every arc centre."""
    end_x, end_y = centerline.from_frenet(centerline.length_m, 0.0)
    end_heading = centerline.heading_at(centerline.length_m)
    points = [
        (-4.0, 1.5),
        (-0.5, -3.0),
        (end_x + 3.0 * math.cos(end_heading), end_y + 3.0 * math.sin(end_heading)),
        (end_x + 0.5 * math.cos(end_heading), end_y - 2.0),
    ]
    for anchored in centerline._placed:
        points.append((anchored.x0, anchored.y0))
        if isinstance(anchored.segment, ArcSegment):
            _, cx, cy = anchored._arc_frame()
            points.append((cx, cy))  # r == 0: the degenerate arc branch
    return points


def _ray_circle_distance(origin, direction, centre, radius):
    """Distance along a ray to a circle, or None if the ray misses it."""
    ox, oy = origin
    dx, dy = direction
    cx, cy = centre
    fx, fy = ox - cx, oy - cy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - radius * radius
    discriminant = b * b - 4.0 * c
    if discriminant < 0.0:
        return None
    sqrt_disc = math.sqrt(discriminant)
    t1 = (-b - sqrt_disc) / 2.0
    t2 = (-b + sqrt_disc) / 2.0
    if t1 >= 0.0:
        return t1
    if t2 >= 0.0:
        return 0.0
    return None


def _scalar_scan(scanner, x, y, heading, circles):
    """Per-beam scalar raycast: the reference of ``RangeScanner.scan_batch``."""
    ranges = []
    for angle in scanner.beam_angles() + heading:
        direction = (math.cos(angle), math.sin(angle))
        best = scanner.max_range_m
        for cx, cy, radius in circles:
            hit = _ray_circle_distance((x, y), direction, (cx, cy), radius)
            if hit is not None and hit < best:
                best = hit
        ranges.append(best)
    return np.array(ranges, dtype=float)


#: Obstacle placements of the scan tests: anywhere nearby, with the near
#: surface at (and just inside or past) ``max_range_m`` along a beam,
#: grazing a beam at the window's tangent edge, behind the vehicle (across
#: +-pi on a full-circle fan), and with the origin on or inside the circle.
_SCAN_GEOMETRIES = ("random", "range_edge", "tangent", "behind", "inside")


def _scan_test_scanner(full_circle):
    return RangeScanner(
        num_beams=24,
        fov_rad=2.0 * math.pi if full_circle else math.radians(120.0),
        max_range_m=30.0,
    )


def _scan_inputs(scanner, seed, rows, num_obstacles, geometry):
    """``scan_batch`` arguments: ``rows`` poses, ``num_obstacles`` slots each.

    Radii span 1e-9 to 4 m: for a tiny circle the discriminant is mostly
    rounding, so its computed hits stray farthest from the exact geometry.
    About 30% of slots are padding holding NaN, +-inf or a real circle.
    """
    rng = np.random.default_rng(seed)
    shape = (rows, num_obstacles)
    xs = rng.uniform(-10.0, 10.0, rows)
    ys = rng.uniform(-10.0, 10.0, rows)
    hs = rng.uniform(-math.pi, math.pi, rows)
    obs_r = rng.choice([1e-9, 1e-6, 0.3, 1.0, 4.0], shape) * rng.uniform(1.0, 1.5, shape)
    if geometry == "random":
        obs_r = rng.uniform(0.3, 4.0, shape)
        dist = rng.uniform(0.0, 35.0, shape)
        bearing = rng.uniform(-math.pi, math.pi, shape)
        lateral = np.zeros(shape)
    elif geometry == "behind":
        dist = rng.uniform(0.5, 1.0, shape) * (scanner.max_range_m + obs_r)
        bearing = hs[:, None] + math.pi + rng.uniform(-0.2, 0.2, shape)
        lateral = np.zeros(shape)
    elif geometry == "inside":
        dist = obs_r * rng.choice([0.0, 0.5, 1.0], shape)
        bearing = rng.uniform(-math.pi, math.pi, shape)
        lateral = np.zeros(shape)
    else:
        # Along a beam of the fan: surface at the range edge, or grazing.
        beam = scanner.beam_angles()[rng.integers(0, scanner.num_beams, shape)]
        bearing = beam + hs[:, None]
        if geometry == "range_edge":
            dist = (scanner.max_range_m + obs_r) * (1.0 + rng.uniform(-3e-8, 3e-8, shape))
            lateral = np.zeros(shape)
        else:
            dist = rng.uniform(1.0, scanner.max_range_m, shape)
            side = rng.choice([-1.0, 1.0], shape)
            lateral = side * (obs_r + rng.uniform(-1e-7, 1e-7, shape) * dist)
    obs_x = xs[:, None] + dist * np.cos(bearing) - lateral * np.sin(bearing)
    obs_y = ys[:, None] + dist * np.sin(bearing) + lateral * np.cos(bearing)
    valid = rng.random(shape) < 0.7
    junk = rng.choice([np.nan, np.inf, -np.inf, 1.0], (3,) + shape)
    for column, pad in zip((obs_x, obs_y, obs_r), junk):
        column[~valid] = pad[~valid]
    return xs, ys, hs, obs_x, obs_y, obs_r, valid


def _scalar_scans(scanner, xs, ys, hs, obs_x, obs_y, obs_r, valid):
    return np.array(
        [
            _scalar_scan(
                scanner, xs[i], ys[i], hs[i],
                list(zip(obs_x[i][valid[i]], obs_y[i][valid[i]], obs_r[i][valid[i]])),
            )
            for i in range(xs.shape[0])
        ]
    ).reshape(xs.shape[0], scanner.num_beams)


def _assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestVectorizedGeometryReferences:
    """The segment-axis projection and the beam-fan raycast against scalar
    walks that share no vectorized code with them, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        centerline=st.sampled_from(_REFERENCE_CENTERLINES),
    )
    def test_project_batch_matches_scalar_walk(self, seed, centerline):
        rng = np.random.default_rng(seed)
        anchors = np.array([(a.x0, a.y0) for a in centerline._placed])
        low, high = anchors.min(axis=0) - 25.0, anchors.max(axis=0) + 25.0
        points = rng.uniform(low, high, size=(200, 2)).tolist()
        points += _special_points(centerline)
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        s_batch, d_batch = centerline.project_batch(xs, ys)
        reference = [_scalar_project(centerline, x, y) for x, y in points]
        _assert_bitwise_equal(s_batch, np.array([r[0] for r in reference]))
        _assert_bitwise_equal(d_batch, np.array([r[1] for r in reference]))

    @pytest.mark.parametrize("centerline", _REFERENCE_CENTERLINES)
    def test_project_batch_covers_the_extent_cases(self, centerline):
        points = _special_points(centerline)
        s_batch, d_batch = centerline.project_batch(
            np.array([p[0] for p in points]), np.array([p[1] for p in points])
        )
        assert s_batch[0] < 0.0 and s_batch[1] < 0.0
        assert s_batch[2] > centerline.length_m
        for index, (x, y) in enumerate(points):
            assert (s_batch[index], d_batch[index]) == _scalar_project(centerline, x, y)
        if centerline is _ARC_FIRST_CENTERLINE:
            # Point 5 is the first arc's centre: it projects to the start.
            assert s_batch[5] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_obstacles=st.integers(0, 5),
        full_circle=st.booleans(),
        geometry=st.sampled_from(_SCAN_GEOMETRIES),
    )
    def test_scan_batch_matches_scalar_raycast(
        self, seed, num_obstacles, full_circle, geometry
    ):
        scanner = _scan_test_scanner(full_circle)
        args = _scan_inputs(scanner, seed, 6, num_obstacles, geometry)
        _assert_bitwise_equal(
            scanner.scan_batch(*args), _scalar_scans(scanner, *args)
        )

    @pytest.mark.parametrize("full_circle", [False, True])
    @pytest.mark.parametrize("geometry", _SCAN_GEOMETRIES)
    def test_scan_batch_window_edges(self, geometry, full_circle):
        # Many poses per geometry, so each boundary case below is present
        # (checked first), not left to the draw.
        scanner = _scan_test_scanner(full_circle)
        args = _scan_inputs(scanner, 7, 128, 2, geometry)
        xs, ys, hs, obs_x, obs_y, obs_r, valid = args
        expected = _scalar_scans(scanner, *args)
        max_range = scanner.max_range_m

        def alone(i, k):
            """Row ``i``'s scalar scan against its circle ``k`` alone."""
            return _scalar_scan(
                scanner, xs[i], ys[i], hs[i], [(obs_x[i, k], obs_y[i, k], obs_r[i, k])]
            )

        if geometry == "range_edge":
            # A centre past ``max_range_m + r`` whose computed hit still
            # lands inside ``max_range_m``: the reach test needs its slack.
            fx, fy = xs[:, None] - obs_x, ys[:, None] - obs_y
            reach = max_range + obs_r
            beyond = valid & ~(fx * fx + fy * fy < reach * reach)
            assert any((alone(i, k) < max_range).any() for i, k in zip(*np.nonzero(beyond)))
        elif geometry == "inside":
            assert (expected == 0.0).all(axis=1).any()
        elif geometry == "behind" and full_circle:
            # One circle hit on both sides of +-pi (first and last beam).
            assert any(
                (alone(i, k)[[0, -1]] < max_range).all() for i, k in zip(*np.nonzero(valid))
            )
        _assert_bitwise_equal(scanner.scan_batch(*args), expected)

    def test_scan_batch_edge_cases(self):
        scanner = RangeScanner(num_beams=33, max_range_m=40.0)
        angles = scanner.beam_angles()
        # Grazing: a circle tangent to beam 5's ray, 12 m out.
        dx, dy = math.cos(angles[5]), math.sin(angles[5])
        radius = 1.5
        grazing = (12.0 * dx - radius * dy, 12.0 * dy + radius * dx, radius)
        cases = [
            [(0.5, 0.2, 2.0)],  # origin inside: every beam reads 0.0
            [(-8.0, 0.0, 1.0), (-3.0, 2.0, 0.5)],  # behind the vehicle
            [grazing],
            [grazing, (20.0, 0.0, 1.0), (20.0, 0.0, 1.0)],  # equal hits
            [],  # K = 0
        ]
        for circles in cases:
            expected = _scalar_scan(scanner, 0.0, 0.0, 0.0, circles)
            columns = np.array(circles, dtype=float).reshape(1, len(circles), 3)
            result = scanner.scan_batch(
                np.zeros(1), np.zeros(1), np.zeros(1),
                columns[..., 0], columns[..., 1], columns[..., 2],
                np.ones((1, len(circles)), dtype=bool),
            )
            _assert_bitwise_equal(result[0], expected)
        inside = _scalar_scan(scanner, 0.0, 0.0, 0.0, cases[0])
        assert (inside == 0.0).all()
        behind = _scalar_scan(scanner, 0.0, 0.0, 0.0, cases[1])
        assert (behind == scanner.max_range_m).all()
        assert (_scalar_scan(scanner, 0.0, 0.0, 0.0, []) == scanner.max_range_m).all()

    @pytest.mark.parametrize("first_inside", [True, False])
    def test_scan_batch_keeps_the_first_of_equal_zero_hits(self, first_inside):
        # On a circle, with beam 16 (angle 0.0) perpendicular to the
        # radius, the beam's hit is -0.0; strictly inside, every hit is
        # 0.0.  The first of the two equal hits keeps its sign.
        scanner = RangeScanner(num_beams=33, max_range_m=40.0)
        assert scanner.beam_angles()[16] == 0.0
        inside, on_circle = (0.5, 0.2, 2.0), (0.0, 1.0, 1.0)
        circles = [inside, on_circle] if first_inside else [on_circle, inside]
        expected = _scalar_scan(scanner, 0.0, 0.0, 0.0, circles)
        assert np.signbit(expected[16]) == (not first_inside)
        columns = np.array(circles).reshape(1, 2, 3)
        result = scanner.scan_batch(
            np.zeros(1), np.zeros(1), np.zeros(1),
            columns[..., 0], columns[..., 1], columns[..., 2], np.ones((1, 2), dtype=bool),
        )
        _assert_bitwise_equal(result[0], expected)

    def test_beam_fan_is_built_once_and_read_only(self):
        scanner = RangeScanner(num_beams=7)
        assert scanner.beam_angles() is scanner.beam_angles()
        with pytest.raises(ValueError):
            scanner.beam_angles()[0] = 0.0
        assert scanner == RangeScanner(num_beams=7)
        assert hash(scanner) == hash(RangeScanner(num_beams=7))


def _loop_lookup(table, d, b, v, s, u):
    """``Delta_max`` of one query: quantize, then a loop over 27 neighbours."""
    grid = table.grid
    if not (d < NO_OBSTACLE_DISTANCE_M and d < grid.max_distance_m):
        return table.horizon_s
    distances, bearings, speeds = (
        grid.distance_values(), grid.bearing_values(), grid.speed_values()
    )
    steerings, throttles = grid.steering_values(), grid.throttle_values()
    s, u = min(max(s, -1.0), 1.0), min(max(u, -1.0), 1.0)
    i_d = max((i for i, x in enumerate(distances) if x <= d), default=0)
    i_v = min((i for i, x in enumerate(speeds) if x >= v), default=speeds.size - 1)
    i_b = min(range(bearings.size), key=lambda i: abs(wrap_angle(bearings[i] - b)))
    i_s = min(range(steerings.size), key=lambda i: abs(steerings[i] - s))
    i_u = min(range(throttles.size), key=lambda i: abs(throttles[i] - u))
    best = math.inf
    for db in (-1, 0, 1):
        for ds in (-1, 0, 1):
            for du in (-1, 0, 1):
                cell = table.values[
                    i_d,
                    (i_b + db) % bearings.size,
                    i_v,
                    min(max(i_s + ds, 0), steerings.size - 1),
                    min(max(i_u + du, 0), throttles.size - 1),
                ]
                best = min(best, float(cell))
    return best


class TestLookupNeighbourhoodMinimum:
    """``query_batch`` against a per-query loop over the 27 neighbour cells."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bearings=st.sampled_from([2, 3, 9]),
        steering_bins=st.sampled_from([1, 2, 3]),
        throttle_bins=st.sampled_from([1, 2, 3]),
    )
    def test_query_batch_equals_loop_minimum(
        self, seed, num_bearings, steering_bins, throttle_bins
    ):
        grid = LookupGrid(
            max_distance_m=10.0, distance_step_m=2.5, num_bearings=num_bearings,
            max_speed_mps=6.0, speed_step_mps=2.0,
            num_steering_bins=steering_bins, num_throttle_bins=throttle_bins,
        )
        rng = np.random.default_rng(seed)
        shape = (
            grid.distance_values().size, num_bearings, grid.speed_values().size,
            steering_bins, throttle_bins,
        )
        table = DeadlineLookupTable(grid, rng.random(shape), horizon_s=2.0)
        count = 64
        d = rng.uniform(-1.0, 12.0, count)
        b = rng.uniform(-4.0, 4.0, count)
        b[:4] = [math.pi, -math.pi, math.nextafter(math.pi, 0.0), -math.nextafter(math.pi, 0.0)]
        v = rng.uniform(-1.0, 8.0, count)
        s = rng.uniform(-1.5, 1.5, count)
        u = rng.uniform(-1.5, 1.5, count)
        sizes = []
        query_batch = DeadlineLookupTable.query_batch

        def spy(self, distances_m, *rest):
            sizes.append(distances_m.size)
            return query_batch(self, distances_m, *rest)

        with mock.patch.object(DeadlineLookupTable, "query_batch", spy):
            expected = np.array(
                [_loop_lookup(table, *row) for row in zip(d, b, v, s, u)]
            )
            got = table.query_batch(d, b, v, s, u)
        _assert_bitwise_equal(got, expected)
        # The reference never reaches the kernel: one batch of every query.
        assert sizes == [count]

    def test_values_are_read_only_and_owned_by_the_table(self):
        grid = LookupGrid(max_distance_m=10.0, num_bearings=3)
        rng = np.random.default_rng(3)
        values = rng.random((
            grid.distance_values().size, 3, grid.speed_values().size, 3, 3
        ))
        table = DeadlineLookupTable(grid, values, horizon_s=2.0)
        with pytest.raises(ValueError):
            table.values[0, 0, 0, 0, 0] = 0.0
        # The table holds its own copy: the caller's array stays writable,
        # and writing to it cannot reach the table.
        values[...] = 0.0
        assert table.values.min() > 0.0


class TestDrawStreams:
    """``DrawStream`` replays scalar draws of a fresh generator per row."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(streams.STREAM_KINDS),
        chunk=st.integers(1, 3),
        seeds=st.lists(st.integers(0, 3), min_size=1, max_size=4),
        takes=st.lists(
            st.lists(st.integers(0, 4), min_size=4, max_size=4), max_size=8
        ),
    )
    def test_take_equals_scalar_draws_across_refills(self, kind, chunk, seeds, takes):
        rows = np.arange(len(seeds))
        references = [np.random.default_rng(seed) for seed in seeds]
        with mock.patch.object(streams, "_CHUNK", chunk):
            stream = streams.DrawStream(seeds, kind)
            for counts in takes:
                counts = np.array(counts[: len(seeds)], dtype=np.int64)
                # Zero-count rows are left out half the time: either way
                # they must consume nothing.
                selected = rows if counts[0] % 2 else rows[counts > 0]
                got = stream.take(selected, counts[selected])
                expected = [
                    getattr(references[r], kind)()
                    for r in selected
                    for _ in range(counts[r])
                ]
                assert got.tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(
        chunk=st.integers(1, 3),
        first=st.integers(0, 6),
        second=st.integers(0, 6),
    )
    def test_rows_sharing_a_seed_keep_independent_cursors(self, chunk, first, second):
        with mock.patch.object(streams, "_CHUNK", chunk):
            stream = streams.DrawStream([9, 9], "standard_normal")
            ahead = stream.take(np.array([0]), np.array([first]))
            both = stream.take(np.array([0, 1]), np.array([second, first + second]))
        replay = np.random.default_rng(9).standard_normal(first + second)
        assert ahead.tolist() == replay[:first].tolist()
        assert both[:second].tolist() == replay[first:].tolist()
        assert both[second:].tolist() == replay.tolist()

    def test_retired_row_releases_its_group_buffer(self):
        with mock.patch.object(streams, "_CHUNK", 3):
            stream = streams.DrawStream([9, 9], "random")
            stream.retire(np.array([1]))
            got = [stream.take(np.array([0]), np.array([1]))[0] for _ in range(500)]
            # Only the live row's unread draws are held, not all 500.
            assert stream._buffer.shape[1] <= 2 * 3
        assert got == np.random.default_rng(9).random(500).tolist()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            streams.DrawStream([0], "gamma")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 6),
        jitter=st.sampled_from([0.0, 0.002]),
        tau=st.sampled_from([0.01, 0.02, 0.05]),
    )
    def test_offload_sample_batch_equals_scalar_samples(self, seed, size, jitter, tau):
        planner = OffloadPlanner(server=EdgeServer(queueing_jitter_s=jitter))
        per_sample = planner.draws_per_sample
        exp_draws = np.random.default_rng(seed).standard_exponential(size * per_sample)
        transmission, round_trip, energy, periods = planner.sample_batch(
            tau, exp_draws.reshape(size, per_sample)
        )
        rng = np.random.default_rng(seed)
        # Independent reference: eqs. (6)-(7) written out over
        # ``Generator.rayleigh`` and ``Generator.exponential`` draws.
        legacy_rng = np.random.default_rng(seed)
        link, server = planner.link, planner.server
        for m in range(size):
            outcome = planner.sample(tau, rng)
            assert outcome.transmission_time_s == transmission[m]
            assert outcome.round_trip_s == round_trip[m]
            assert outcome.transmission_energy_j == energy[m]
            assert outcome.response_periods == periods[m]
            rate_mbps = float(legacy_rng.rayleigh(link.channel.scale_mbps))
            rate_bps = max(link.channel.min_rate_mbps, rate_mbps) * 1e6
            legacy_tx = link.overhead_s + (planner.payload_bytes * 8.0) / rate_bps
            wait = float(legacy_rng.exponential(jitter)) if jitter > 0 else 0.0
            legacy_rt = legacy_tx + (
                server.profile.latency_s + wait + server.downlink_time_s
            )
            assert transmission[m] == legacy_tx
            assert energy[m] == legacy_tx * link.tx_power_w
            assert round_trip[m] == legacy_rt
            assert periods[m] == max(1, math.ceil(legacy_rt / tau))
