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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import streams
from repro.comm.offload import OffloadPlanner
from repro.comm.server import EdgeServer
from repro.core.energy import (
    baseline_interval_energy_j,
    gating_interval_energy_j,
    offload_interval_energy_j,
)
from repro.core.intervals import (
    SafeIntervalEstimator,
    discretize_deadline,
    discretize_period,
)
from repro.control.base import ControlInputs
from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController
from repro.core.models import ModelSet, SensoryModel
from repro.core.safety import (
    NO_OBSTACLE_DISTANCE_M,
    BrakingDistanceBarrier,
    SafetyInputs,
    safety_state,
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
from repro.sim import observation
from repro.sim.observation import RangeScanner
from repro.sim.obstacles import Obstacle
from repro.sim.road import ArcSegment, Centerline, Road, StraightSegment
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
maybe_obstacle_distances = st.one_of(
    distances, st.just(NO_OBSTACLE_DISTANCE_M)
)
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
    @given(distance=distances, bearing=bearings, speed=speeds)
    def test_safety_state_is_binary_and_consistent(self, distance, bearing, speed):
        barrier = BrakingDistanceBarrier()
        h = barrier.evaluate(
            SafetyInputs(distance_m=distance, bearing_rad=bearing, speed_mps=speed)
        )
        state = safety_state(h)
        assert state in (0, 1)
        assert (state == 1) == (h >= 0.0)

    @given(
        bearing=bearings,
        speed=speeds,
        near=st.floats(0.0, 100.0, allow_nan=False),
        extra=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_barrier_monotone_in_distance(self, bearing, speed, near, extra):
        barrier = BrakingDistanceBarrier()
        h_near = barrier.evaluate(
            SafetyInputs(distance_m=near, bearing_rad=bearing, speed_mps=speed)
        )
        h_far = barrier.evaluate(
            SafetyInputs(distance_m=near + extra, bearing_rad=bearing, speed_mps=speed)
        )
        assert h_far >= h_near

    @given(distance=st.floats(0.0, 60.0, allow_nan=False), bearing=bearings, slow=speeds, faster=st.floats(0.0, 5.0, allow_nan=False))
    def test_barrier_antitone_in_speed(self, distance, bearing, slow, faster):
        barrier = BrakingDistanceBarrier()
        h_slow = barrier.evaluate(
            SafetyInputs(distance_m=distance, bearing_rad=bearing, speed_mps=slow)
        )
        h_fast = barrier.evaluate(
            SafetyInputs(distance_m=distance, bearing_rad=bearing, speed_mps=slow + faster)
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

    @settings(max_examples=100, deadline=None)
    @given(
        delta_max=st.integers(1, 8),
        period_multiple=st.integers(1, 4),
        tx_energy=st.floats(0.0, 0.118, allow_nan=False),
        fallback=st.booleans(),
    )
    def test_offloading_cheaper_than_baseline_when_tx_cheaper_than_inference(
        self, delta_max, period_multiple, tx_energy, fallback
    ):
        model = SensoryModel(
            name="m",
            period_s=period_multiple * TAU,
            compute=DRIVE_PX2_RESNET152,
            sensor=ZERO_POWER_SENSOR,
        )
        baseline = baseline_interval_energy_j(model, TAU, delta_max)
        offloaded = offload_interval_energy_j(
            model, TAU, delta_max, tx_energy, fallback_invoked=fallback
        )
        if model.discretized_period(TAU) < delta_max and not fallback:
            assert offloaded <= baseline + 1e-12
        else:
            # With no optimization window (or a fallback re-invocation) the
            # optimized energy may equal or slightly exceed the baseline, but
            # never by more than one extra local inference.
            assert offloaded <= baseline + model.compute.energy_per_inference_j + 1e-12


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


class TestKernelFacadeParity:
    """Scalar facades are 1-element views of the batch kernels.

    On any randomized state the facade and the corresponding kernel element
    must agree bit-for-bit — this is the no-drift guarantee the lockstep
    batch engine's bit-exactness rests on.
    """

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(maybe_obstacle_distances, bearings, speeds),
            min_size=1,
            max_size=12,
        )
    )
    def test_barrier_facade_matches_kernel(self, states):
        barrier = BrakingDistanceBarrier()
        d, b, v = (np.array(column, dtype=float) for column in zip(*states, strict=True))
        h = barrier.evaluate_batch(d, b, v)
        required = barrier.required_clearance_batch(b, v)
        for j, (dj, bj, vj) in enumerate(states):
            inputs = SafetyInputs(distance_m=dj, bearing_rad=bj, speed_mps=vj)
            assert barrier.evaluate(inputs) == h[j]
            assert barrier.required_clearance_m(inputs) == required[j]

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
        shield = SteeringShield()
        barrier = shield.safety_function
        d, b, v, lat, s, th = (
            np.array(column, dtype=float) for column in zip(*states, strict=True)
        )
        h = barrier.evaluate_batch(d, b, v)
        fs, ft, intervened = shield.filter_batch(h, d, b, v, lat, 4.0, s, th)
        for j, (dj, bj, vj, latj, sj, thj) in enumerate(states):
            inputs = SafetyInputs(
                distance_m=dj,
                bearing_rad=bj,
                speed_mps=vj,
                lateral_offset_m=latj,
                road_half_width_m=4.0,
            )
            filtered, decision = shield.filter_action(
                inputs, ControlAction(steering=sj, throttle=thj)
            )
            assert decision.intervened == bool(intervened[j])
            assert filtered.steering == fs[j]
            assert filtered.throttle == ft[j]

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

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(speeds, lateral_offsets, bearings, curvatures),
            min_size=1,
            max_size=12,
        )
    )
    def test_pure_pursuit_facade_matches_kernel(self, states):
        controller = PurePursuitController()
        v, lat, hd, cv = (np.array(column, dtype=float) for column in zip(*states, strict=True))
        target = np.full(len(states), controller.target_speed_mps)
        steering, throttle = controller.act_batch(v, target, lat, hd, cv)
        for j, (vj, latj, hdj, cvj) in enumerate(states):
            action = controller.act_from_inputs(
                ControlInputs(
                    speed_mps=vj,
                    target_speed_mps=controller.target_speed_mps,
                    lateral_offset_m=latj,
                    heading_rad=hdj,
                    road_curvature_per_m=cvj,
                )
            )
            assert action.steering == steering[j]
            assert action.throttle == throttle[j]

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(
                speeds,
                lateral_offsets,
                bearings,
                curvatures,
                st.one_of(
                    st.none(), st.tuples(distances, bearings, st.booleans())
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_heuristic_facade_matches_kernel(self, states):
        controller = ObstacleAvoidanceController()
        n = len(states)
        v, lat, hd, cv = (
            np.array([state[k] for state in states], dtype=float)
            for k in range(4)
        )
        has_obstacle = np.array([state[4] is not None for state in states])
        obs_d = np.array(
            [state[4][0] if state[4] else 0.0 for state in states], dtype=float
        )
        obs_b = np.array(
            [state[4][1] if state[4] else 0.0 for state in states], dtype=float
        )
        obs_stale = np.array(
            [state[4][2] if state[4] else False for state in states]
        )
        target = np.full(n, controller.target_speed_mps)
        steering, throttle = controller.act_batch(
            v, target, lat, hd, cv, has_obstacle, obs_d, obs_b, obs_stale
        )
        for j, (vj, latj, hdj, cvj, obs) in enumerate(states):
            action = controller.act_from_inputs(
                ControlInputs(
                    speed_mps=vj,
                    target_speed_mps=controller.target_speed_mps,
                    lateral_offset_m=latj,
                    heading_rad=hdj,
                    road_curvature_per_m=cvj,
                    obstacle_distance_m=obs[0] if obs else None,
                    obstacle_bearing_rad=obs[1] if obs else None,
                    obstacle_stale=obs[2] if obs else False,
                )
            )
            assert action.steering == steering[j]
            assert action.throttle == throttle[j]

    # ------------------------------------------------------------------
    # Perception/scan-tail kernels: obstacle view, grouping, projection.
    # ------------------------------------------------------------------

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
    def test_obstacle_view_facade_matches_kernel_and_ranking(
        self, poses, obstacle_specs
    ):
        obstacles = [Obstacle(x_m=ox, y_m=oy, radius_m=orad) for ox, oy, orad in obstacle_specs]
        xs, ys, hs = (np.array(column, dtype=float) for column in zip(*poses, strict=True))
        n = len(poses)
        obs_x = np.tile([o.x_m for o in obstacles], (n, 1))
        obs_y = np.tile([o.y_m for o in obstacles], (n, 1))
        obs_r = np.tile([o.radius_m for o in obstacles], (n, 1))
        surface, bearing, nearest = World.nearest_obstacle_view_batch(
            xs, ys, hs, obs_x, obs_y, obs_r
        )
        for j, (x, y, h) in enumerate(poses):
            world = World(
                road=Road(), obstacles=obstacles,
                state=VehicleState(x_m=x, y_m=y, heading_rad=h),
            )
            view = world.nearest_obstacle_view()
            assert view is not None
            # Facade == kernel row, bit for bit.
            assert view[0] == surface[j]
            assert view[1] == bearing[j]
            assert view[2] is obstacles[int(nearest[j])]
            assert world.nearest_obstacle() is view[2]
            # The kernel's masked argmin reproduces the scalar ranking:
            # ahead-preferred min surface distance, first occurrence on ties.
            views = []
            for o in obstacles:
                centre = np.hypot(o.x_m - x, o.y_m - y)
                obs_bearing = wrap_angle(np.arctan2(o.y_m - y, o.x_m - x) - h)
                views.append((max(0.0, float(centre - o.radius_m)), float(obs_bearing)))
            ahead = [k for k, v in enumerate(views) if abs(v[1]) <= 0.5 * math.pi]
            candidates = ahead if ahead else list(range(len(views)))
            best = min(candidates, key=lambda k: views[k][0])
            assert int(nearest[j]) == best
            assert surface[j] == views[best][0]

    def test_obstacle_view_ahead_boundary_at_half_pi(self):
        """|bearing| == pi/2 exactly still counts as ahead (<=, not <)."""
        boundary = Obstacle(x_m=0.0, y_m=5.0, radius_m=1.0)  # bearing +pi/2
        behind = Obstacle(x_m=-1.0, y_m=0.0, radius_m=0.5)  # closer, behind
        world = World(road=Road(), obstacles=[behind, boundary], state=VehicleState())
        view = world.nearest_obstacle_view()
        assert view is not None and view[2] is boundary
        # One ulp past the boundary the obstacle is behind; with nothing
        # ahead the globally nearest obstacle wins instead.
        tilted = World(
            road=Road(),
            obstacles=[behind, boundary],
            state=VehicleState(heading_rad=-1e-9),
        )
        tilted_view = tilted.nearest_obstacle_view()
        assert tilted_view is not None and tilted_view[2] is behind

    def test_obstacle_view_empty_world_returns_none(self):
        world = World(road=Road(), obstacles=[])
        assert world.nearest_obstacle_view() is None
        assert world.nearest_obstacle() is None

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
        assert centerline.curvature_at(s) == centerline.curvature_at_batch(
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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_obstacles=st.integers(0, 5),
        full_circle=st.booleans(),
        group=st.sampled_from([None, 1, 2]),
    )
    def test_scan_batch_matches_scalar_raycast(
        self, seed, num_obstacles, full_circle, group
    ):
        # ``group`` obstacles per pass (None: the default budget, which
        # takes all of them at once here).
        rows = 6
        budget = observation._GRID_ELEMENTS if group is None else group * rows * 24
        scanner = RangeScanner(
            num_beams=24,
            fov_rad=2.0 * math.pi if full_circle else math.radians(120.0),
            max_range_m=30.0,
        )
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-10.0, 10.0, rows)
        ys = rng.uniform(-10.0, 10.0, rows)
        hs = rng.uniform(-math.pi, math.pi, rows)
        obs_x = xs[:, None] + rng.uniform(-25.0, 25.0, (rows, num_obstacles))
        obs_y = ys[:, None] + rng.uniform(-25.0, 25.0, (rows, num_obstacles))
        obs_r = rng.uniform(0.3, 4.0, (rows, num_obstacles))
        with mock.patch.object(observation, "_GRID_ELEMENTS", budget):
            result = scanner.scan_batch(xs, ys, hs, obs_x, obs_y, obs_r)
        expected = np.array(
            [
                _scalar_scan(
                    scanner, xs[i], ys[i], hs[i],
                    list(zip(obs_x[i], obs_y[i], obs_r[i])),
                )
                for i in range(rows)
            ]
        )
        _assert_bitwise_equal(result, expected)

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
            )
            _assert_bitwise_equal(result[0], expected)
        inside = _scalar_scan(scanner, 0.0, 0.0, 0.0, cases[0])
        assert (inside == 0.0).all()
        behind = _scalar_scan(scanner, 0.0, 0.0, 0.0, cases[1])
        assert (behind == scanner.max_range_m).all()
        assert (_scalar_scan(scanner, 0.0, 0.0, 0.0, []) == scanner.max_range_m).all()

    def test_beam_fan_is_built_once_and_read_only(self):
        scanner = RangeScanner(num_beams=7)
        assert scanner.beam_angles() is scanner.beam_angles()
        with pytest.raises(ValueError):
            scanner.beam_angles()[0] = 0.0
        assert scanner == RangeScanner(num_beams=7)
        assert hash(scanner) == hash(RangeScanner(num_beams=7))


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
