"""Tests for the scenario-diversity subsystem: segment roads, the Frenet
frame, obstacle motion, sensor degradation, and the sim-layer bugfix
regressions (unified nearest-threat queries, road extent clamping,
full-circle beam grids)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.control.heuristic import ObstacleAvoidanceController
from repro.core.framework import SEOConfig, SEOFramework
from repro.dynamics.state import VehicleState, wrap_angle
from repro.sim.episode import EpisodeRunner
from repro.sim.obstacles import (
    ConstantVelocity,
    Obstacle,
    WaypointLoop,
    attach_motion,
)
from repro.sim.observation import RangeScanner
from repro.sim.road import ArcSegment, Road, StraightSegment
from repro.sim.scenario import DEFAULT_SUITE, ScenarioConfig, build_world
from repro.sim.world import World


def _curved_road(width_m: float = 10.0) -> Road:
    return Road(
        width_m=width_m,
        segments=(
            StraightSegment(20.0),
            ArcSegment(radius_m=40.0, sweep_rad=math.radians(45.0)),
            StraightSegment(15.0),
            ArcSegment(radius_m=40.0, sweep_rad=math.radians(-45.0)),
            StraightSegment(10.0),
        ),
    )


# ----------------------------------------------------------------------
# Segment geometry and the Frenet frame
# ----------------------------------------------------------------------
class TestSegments:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            StraightSegment(0.0)
        with pytest.raises(ValueError):
            ArcSegment(radius_m=0.0, sweep_rad=0.5)
        with pytest.raises(ValueError):
            ArcSegment(radius_m=10.0, sweep_rad=0.0)
        with pytest.raises(ValueError):
            ArcSegment(radius_m=10.0, sweep_rad=3.5)

    def test_arc_length(self):
        arc = ArcSegment(radius_m=50.0, sweep_rad=math.radians(90.0))
        assert arc.length_m == pytest.approx(50.0 * math.pi / 2.0)

    def test_road_length_derived_from_segments(self):
        road = Road(segments=(StraightSegment(30.0), ArcSegment(50.0, 0.5)))
        assert road.length_m == pytest.approx(30.0 + 25.0)
        assert not road.is_straight

    def test_default_road_is_straight_single_segment(self):
        road = Road(length_m=100.0)
        assert road.is_straight
        assert road.length_m == 100.0

    def test_straight_road_frenet_is_exact_identity(self):
        # The generalized geometry must keep the paper's straight road
        # bit-identical: (s, d) == (x, y) with no floating-point drift.
        road = Road(length_m=100.0, width_m=8.0)
        for x, y in [(0.0, 0.0), (12.34, -1.7), (99.99, 3.2), (55.5, 0.0)]:
            s, d = road.to_frenet(x, y)
            assert s == x and d == y
            assert road.from_frenet(s, d) == (x, y)
        assert road.heading_at(42.0) == 0.0
        assert road.curvature_at(42.0) == 0.0

    def test_arc_geometry_quarter_circle(self):
        road = Road(segments=(ArcSegment(radius_m=50.0, sweep_rad=0.5 * math.pi),))
        end_x, end_y = road.from_frenet(road.length_m, 0.0)
        # A left quarter circle of radius 50 ends at (50, 50) heading +90 deg.
        assert end_x == pytest.approx(50.0, abs=1e-9)
        assert end_y == pytest.approx(50.0, abs=1e-9)
        assert road.heading_at(road.length_m) == pytest.approx(0.5 * math.pi)
        assert road.curvature_at(1.0) == pytest.approx(1.0 / 50.0)

    def test_heading_continuous_at_joints(self):
        road = _curved_road()
        boundaries = np.cumsum(
            [0.0] + [segment.length_m for segment in road.segments]
        )
        for s in boundaries[1:-1]:
            before = road.heading_at(s - 1e-6)
            after = road.heading_at(s + 1e-6)
            assert wrap_angle(after - before) == pytest.approx(0.0, abs=1e-4)

    def test_centerline_continuous_at_joints(self):
        road = _curved_road()
        for s in np.linspace(0.5, road.length_m - 0.5, 200):
            p0 = road.from_frenet(s - 0.01, 0.0)
            p1 = road.from_frenet(s + 0.01, 0.0)
            assert math.hypot(p1[0] - p0[0], p1[1] - p0[1]) == pytest.approx(
                0.02, abs=1e-6
            )

    def test_lane_pose_on_curve(self):
        road = Road(segments=(ArcSegment(radius_m=50.0, sweep_rad=0.5 * math.pi),))
        x, y = road.from_frenet(30.0, 1.5)
        pose = road.lane_pose(
            VehicleState(x_m=x, y_m=y, heading_rad=wrap_angle(30.0 / 50.0))
        )
        assert pose.arc_length_m == pytest.approx(30.0, abs=1e-6)
        assert pose.lateral_offset_m == pytest.approx(1.5, abs=1e-6)
        assert pose.heading_error_rad == pytest.approx(0.0, abs=1e-9)
        assert pose.curvature_per_m == pytest.approx(0.02)


segment_lists = st.lists(
    st.one_of(
        st.floats(8.0, 40.0).map(StraightSegment),
        st.tuples(
            st.floats(30.0, 80.0),
            st.floats(math.radians(10.0), math.radians(50.0)),
            st.booleans(),
        ).map(
            lambda t: ArcSegment(radius_m=t[0], sweep_rad=t[1] if t[2] else -t[1])
        ),
    ),
    min_size=1,
    max_size=4,
)


def _max_cumulative_heading(segments) -> float:
    heading = 0.0
    worst = 0.0
    for segment in segments:
        if isinstance(segment, ArcSegment):
            heading += segment.sweep_rad
        worst = max(worst, abs(heading))
    return worst


class TestFrenetRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        segments=segment_lists,
        s_fraction=st.floats(0.0, 1.0),
        d=st.floats(-6.0, 6.0),
    )
    def test_round_trip_across_segment_boundaries(self, segments, s_fraction, d):
        # Keep the generated roads gently curved so the nearest-point
        # projection is unambiguous within the sampled lateral band.
        assume(_max_cumulative_heading(segments) < 1.2)
        road = Road(width_m=14.0, segments=tuple(segments))
        s = s_fraction * road.length_m
        x, y = road.from_frenet(s, d)
        s_back, d_back = road.to_frenet(x, y)
        assert s_back == pytest.approx(s, abs=1e-6)
        assert d_back == pytest.approx(d, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        radius=st.floats(30.0, 80.0),
        sweep=st.floats(math.radians(15.0), math.radians(60.0)),
        d=st.floats(-5.0, 5.0),
        offset=st.floats(-2.0, 2.0),
    )
    def test_round_trip_at_arc_straight_joint(self, radius, sweep, d, offset):
        road = Road(
            width_m=12.0,
            segments=(
                StraightSegment(20.0),
                ArcSegment(radius_m=radius, sweep_rad=sweep),
                StraightSegment(20.0),
            ),
        )
        s = 20.0 + radius * sweep + offset  # straddle the arc->straight joint
        s = min(max(s, 0.0), road.length_m)
        x, y = road.from_frenet(s, d)
        s_back, d_back = road.to_frenet(x, y)
        assert s_back == pytest.approx(s, abs=1e-6)
        assert d_back == pytest.approx(d, abs=1e-6)


# ----------------------------------------------------------------------
# Road extent clamping (bugfix regressions)
# ----------------------------------------------------------------------
class TestRoadExtent:
    def test_contains_bounded_above_by_length(self):
        road = Road(length_m=100.0, width_m=8.0)
        assert road.contains(99.0, 0.0)
        assert not road.contains(101.0, 0.0)
        assert not road.contains(-1.0, 0.0)

    def test_off_road_and_progress_on_curve(self):
        road = _curved_road(width_m=10.0)
        x, y = road.from_frenet(40.0, 6.5)
        assert road.off_road(VehicleState(x_m=x, y_m=y))
        x, y = road.from_frenet(40.0, 2.0)
        state = VehicleState(x_m=x, y_m=y)
        assert not road.off_road(state)
        assert road.progress(state) == pytest.approx(40.0 / road.length_m, abs=1e-6)
        end_x, end_y = road.from_frenet(road.length_m, 0.0)
        assert road.finished(VehicleState(x_m=end_x, y_m=end_y))


# ----------------------------------------------------------------------
# Beam grid (full-circle endpoint bugfix)
# ----------------------------------------------------------------------
class TestBeamAngles:
    def test_full_circle_fov_is_endpoint_exclusive(self):
        scanner = RangeScanner(num_beams=8, fov_rad=2.0 * math.pi)
        angles = scanner.beam_angles()
        assert len(angles) == 8
        spacing = 2.0 * math.pi / 8
        assert np.allclose(np.diff(angles), spacing)
        # -pi and +pi are the same direction; only one of them may appear.
        assert angles[-1] == pytest.approx(math.pi - spacing)
        directions = {(round(math.cos(a), 9), round(math.sin(a), 9)) for a in angles}
        assert len(directions) == 8

    def test_partial_fov_keeps_inclusive_endpoints(self):
        scanner = RangeScanner(num_beams=5, fov_rad=math.radians(90.0))
        angles = scanner.beam_angles()
        assert angles[0] == pytest.approx(-math.radians(45.0))
        assert angles[-1] == pytest.approx(math.radians(45.0))


# ----------------------------------------------------------------------
# Unified nearest-threat query (bugfix regression)
# ----------------------------------------------------------------------
class TestNearestThreatUnification:
    def test_nearest_obstacle_agrees_with_view(self):
        # A small obstacle slightly behind vs a large obstacle ahead: centre
        # distance and surface distance disagree, and only the ahead one is
        # the safety-relevant threat.  Both queries must name the same one.
        behind = Obstacle(x_m=-3.0, y_m=0.0, radius_m=0.5)
        ahead = Obstacle(x_m=4.0, y_m=0.0, radius_m=3.0)
        world = World(
            road=Road(),
            obstacles=[behind, ahead],
            state=VehicleState(x_m=0.0, y_m=0.0, heading_rad=0.0),
        )
        view = world.nearest_obstacle_view()
        assert view is not None and view[2] is ahead
        assert world.nearest_obstacle() is ahead

    def test_nearest_obstacle_falls_back_to_behind(self):
        behind = Obstacle(x_m=-2.0, y_m=0.0)
        world = World(road=Road(), obstacles=[behind], state=VehicleState())
        assert world.nearest_obstacle() is behind

    def test_nearest_obstacle_none_when_empty(self):
        world = World(road=Road(), obstacles=[], state=VehicleState())
        assert world.nearest_obstacle() is None


# ----------------------------------------------------------------------
# Obstacle motion
# ----------------------------------------------------------------------
class TestObstacleMotion:
    def test_constant_velocity(self):
        obstacle = Obstacle(x_m=10.0, y_m=0.0, motion=ConstantVelocity(-2.0, 1.0))
        moved = obstacle.at_time(2.0)
        assert moved.x_m == pytest.approx(6.0)
        assert moved.y_m == pytest.approx(2.0)
        assert obstacle.at_time(0.0).position == (10.0, 0.0)

    def test_static_obstacle_at_time_is_self(self):
        obstacle = Obstacle(x_m=10.0, y_m=0.0)
        assert obstacle.at_time(5.0) is obstacle

    def test_waypoint_loop_oscillates(self):
        # Loop origin -> (10, 4) -> origin: perimeter 8, so at speed 2 the
        # full cycle takes 4 s.
        obstacle = Obstacle(
            x_m=10.0, y_m=0.0, motion=WaypointLoop(waypoints=((10.0, 4.0),), speed_mps=2.0)
        )
        assert obstacle.at_time(1.0).y_m == pytest.approx(2.0)
        assert obstacle.at_time(2.0).y_m == pytest.approx(4.0)
        assert obstacle.at_time(3.0).y_m == pytest.approx(2.0)
        assert obstacle.at_time(4.0).y_m == pytest.approx(0.0)
        assert obstacle.at_time(5.0).y_m == pytest.approx(2.0)

    def test_waypoint_loop_validation(self):
        with pytest.raises(ValueError):
            WaypointLoop(waypoints=(), speed_mps=1.0)
        with pytest.raises(ValueError):
            WaypointLoop(waypoints=((1.0, 1.0),), speed_mps=0.0)

    def test_world_step_moves_obstacles_and_reset_restores(self):
        obstacle = Obstacle(x_m=30.0, y_m=0.0, motion=ConstantVelocity(0.0, 1.0))
        world = World(road=Road(width_m=20.0), obstacles=[obstacle], state=VehicleState())
        from repro.dynamics.state import ControlAction

        for _ in range(10):
            world.step(ControlAction(), 0.1)
        assert world.obstacles[0].y_m == pytest.approx(1.0)
        world.reset()
        assert world.obstacles[0].y_m == pytest.approx(0.0)

    def test_collision_uses_moved_position(self):
        # The obstacle starts clear of the ego but crosses its position.
        obstacle = Obstacle(
            x_m=0.0, y_m=6.0, radius_m=1.0, motion=ConstantVelocity(0.0, -2.0)
        )
        world = World(
            road=Road(width_m=20.0),
            obstacles=[obstacle],
            state=VehicleState(x_m=0.0, y_m=0.0, speed_mps=0.0),
        )
        from repro.dynamics.state import ControlAction

        assert not world.status().collided
        collided_at = None
        for _ in range(40):
            world.step(ControlAction(), 0.1)
            if world.status().collided:
                collided_at = world.time_s
                break
        assert collided_at is not None
        # y(t) = 6 - 2t reaches the collision envelope (radius + vehicle
        # collision radius) shortly before t = 3.
        envelope = world.obstacles[0].radius_m + world.vehicle_params.collision_radius_m
        assert world.obstacles[0].y_m <= envelope + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        radius=st.floats(30.0, 70.0),
        sweep=st.floats(math.radians(15.0), math.radians(60.0)),
        speed=st.floats(0.5, 3.0),
        time=st.floats(0.0, 20.0),
    )
    def test_moving_obstacle_position_continuous_at_segment_joints(
        self, radius, sweep, speed, time
    ):
        # An obstacle looping laterally across a segment joint must move
        # continuously (no jumps as its path crosses the joint), so the
        # collision check cannot tunnel through a discontinuity.
        road = Road(
            width_m=12.0,
            segments=(StraightSegment(20.0), ArcSegment(radius_m=radius, sweep_rad=sweep)),
        )
        joint_s = 20.0
        x0, y0 = road.from_frenet(joint_s, 2.0)
        far = road.from_frenet(joint_s, -2.0)
        obstacle = Obstacle(
            x_m=x0, y_m=y0, motion=WaypointLoop(waypoints=(far,), speed_mps=speed)
        )
        eps = 0.01
        a = obstacle.at_time(time)
        b = obstacle.at_time(time + eps)
        step = math.hypot(b.x_m - a.x_m, b.y_m - a.y_m)
        assert step <= speed * eps + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        radius=st.floats(30.0, 70.0),
        sweep=st.floats(math.radians(20.0), math.radians(60.0)),
        speed=st.floats(0.8, 2.5),
    )
    def test_moving_obstacle_collision_detected_at_segment_joint(
        self, radius, sweep, speed
    ):
        # Ego parked on the centreline at a segment joint; an obstacle
        # oscillates across the corridor through that exact point.  Stepping
        # the world must produce a collision the moment the moved disc
        # overlaps the ego envelope — evaluated against the moved position.
        from repro.dynamics.state import ControlAction
        from repro.sim.collision import first_collision

        road = Road(
            width_m=12.0,
            segments=(StraightSegment(20.0), ArcSegment(radius_m=radius, sweep_rad=sweep)),
        )
        joint_s = 20.0
        start = road.from_frenet(joint_s, 4.0)
        far = road.from_frenet(joint_s, -4.0)
        obstacle = Obstacle(
            x_m=start[0],
            y_m=start[1],
            radius_m=1.0,
            motion=WaypointLoop(waypoints=(far,), speed_mps=speed),
        )
        ego_x, ego_y = road.from_frenet(joint_s, 0.0)
        world = World(
            road=road,
            obstacles=[obstacle],
            state=VehicleState(x_m=ego_x, y_m=ego_y, speed_mps=0.0),
        )
        envelope = obstacle.radius_m + world.vehicle_params.collision_radius_m
        saw_collision = False
        for _ in range(400):
            world.step(ControlAction(), 0.05)
            moved = world.obstacles[0]
            expected = moved.distance_to(ego_x, ego_y) <= envelope
            actual = (
                first_collision(
                    world.state, world.obstacles, world.vehicle_params.collision_radius_m
                )
                is not None
            )
            assert actual == expected
            saw_collision = saw_collision or actual
        assert saw_collision  # the loop crosses the ego point every cycle


# ----------------------------------------------------------------------
# Scenario configs and families
# ----------------------------------------------------------------------
class TestScenarioFamilies:
    def test_new_families_registered(self):
        for name in ("curved-road", "s-curve-narrow", "moving-traffic", "sensor-dropout"):
            assert name in DEFAULT_SUITE

    def test_config_validates_motion_mode(self):
        with pytest.raises(ValueError):
            ScenarioConfig(obstacle_motion="teleport")
        with pytest.raises(ValueError):
            ScenarioConfig(obstacle_motion="lateral-loop", obstacle_speed_mps=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(sensor_dropout_probability=1.0)

    def test_every_family_builds_a_world(self):
        for family in DEFAULT_SUITE:
            world = build_world(family.build(seed=3))
            assert world.road.length_m > 0
            assert len(world.obstacles) == family.base.num_obstacles

    def test_moving_traffic_obstacles_carry_motion(self):
        world = build_world(DEFAULT_SUITE.build("moving-traffic", seed=1))
        assert world.obstacles
        assert all(o.motion is not None for o in world.obstacles)

    def test_curved_family_obstacles_lie_on_road(self):
        world = build_world(DEFAULT_SUITE.build("curved-road", seed=2))
        for obstacle in world.obstacles:
            assert world.road.contains(obstacle.x_m, obstacle.y_m)

    def test_attach_motion_static_is_identity(self):
        road = Road()
        obstacles = [Obstacle(80.0, 1.0)]
        assert attach_motion(obstacles, road, "static", 0.0) == obstacles

    def test_attach_motion_oncoming_moves_against_route(self):
        road = Road()
        [moving] = attach_motion([Obstacle(80.0, 1.0)], road, "oncoming", 2.0)
        later = moving.at_time(1.0)
        assert later.x_m == pytest.approx(78.0)

    def test_build_world_deterministic_with_motion(self):
        config = DEFAULT_SUITE.build("moving-traffic", seed=9)
        assert build_world(config).obstacles == build_world(config).obstacles

    def test_curved_episode_completes_with_heuristic_controller(self):
        config = DEFAULT_SUITE.build("curved-road", seed=4)
        world = build_world(config)
        runner = EpisodeRunner(
            world=world,
            controller=ObstacleAvoidanceController(
                target_speed_mps=config.target_speed_mps
            ),
            max_steps=1500,
        )
        result = runner.run()
        assert result.completed
        assert not result.off_road

    def test_sensor_dropout_exercises_stale_fallback(self):
        config = SEOConfig(
            scenario=DEFAULT_SUITE.build("sensor-dropout", seed=0),
            optimization="none",
            filtered=True,
            target_speed_mps=7.0,
            max_steps=150,
            seed=0,
        )
        report = SEOFramework(config).run_episode(0)
        assert report.sensor_dropouts > 0

    def test_zero_dropout_reports_none(self):
        config = SEOConfig(
            scenario=ScenarioConfig(num_obstacles=2, seed=0),
            optimization="none",
            filtered=True,
            max_steps=100,
            seed=0,
        )
        report = SEOFramework(config).run_episode(0)
        assert report.sensor_dropouts == 0
