"""Tests for the driving-world substrate (road, obstacles, world, scenario)."""

import math

import numpy as np
import pytest

from repro.dynamics.state import ControlAction, VehicleState
from repro.sim.collision import circle_hit, first_collision
from repro.sim.obstacles import Obstacle, place_obstacles
from repro.sim.road import ArcSegment, Centerline, Road, StraightSegment
from repro.sim.scenario import ScenarioConfig, build_world
from repro.sim.world import World


class TestRoad:
    def test_default_obstacle_zone_is_final_third(self):
        road = Road(length_m=100.0)
        assert road.obstacle_zone_start_m == pytest.approx(100.0 * 2.0 / 3.0)

    def test_contains_center(self):
        road = Road()
        assert road.contains(10.0, 0.0)

    def test_contains_respects_margin(self):
        road = Road(width_m=8.0)
        assert road.contains(10.0, 3.9)
        assert not road.contains(10.0, 3.9, margin_m=1.0)

    def test_progress_clamped_to_unit_interval(self):
        road = Road(length_m=100.0)
        assert road.progress(VehicleState(x_m=-5.0)) == 0.0
        assert road.progress(VehicleState(x_m=50.0)) == pytest.approx(0.5)
        assert road.progress(VehicleState(x_m=500.0)) == 1.0

    def test_finished(self):
        road = Road(length_m=100.0)
        assert road.finished(VehicleState(x_m=100.0))
        assert not road.finished(VehicleState(x_m=99.0))

    def test_off_road_laterally(self):
        road = Road(width_m=8.0)
        assert road.off_road(VehicleState(x_m=10.0, y_m=5.0))
        assert not road.off_road(VehicleState(x_m=10.0, y_m=1.0))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Road(length_m=0.0)
        with pytest.raises(ValueError):
            Road(obstacle_zone_start_fraction=1.5)


class TestObstacles:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Obstacle(x_m=0.0, y_m=0.0, radius_m=0.0)

    def test_surface_distance(self):
        obstacle = Obstacle(x_m=3.0, y_m=4.0, radius_m=1.0)
        assert obstacle.surface_distance_to(0.0, 0.0) == pytest.approx(4.0)

    def test_placement_count_and_zone(self, rng):
        road = Road(length_m=100.0)
        obstacles = place_obstacles(road, 4, rng)
        assert len(obstacles) == 4
        for obstacle in obstacles:
            assert obstacle.x_m >= road.obstacle_zone_start_m
            assert obstacle.x_m <= road.length_m
            assert abs(obstacle.y_m) < road.half_width_m

    def test_placement_zero_obstacles(self, rng):
        assert place_obstacles(Road(), 0, rng) == []

    def test_placement_rejects_negative_count(self, rng):
        with pytest.raises(ValueError):
            place_obstacles(Road(), -1, rng)

    def test_placement_sorted_longitudinally(self, rng):
        obstacles = place_obstacles(Road(), 5, rng)
        positions = [o.x_m for o in obstacles]
        assert positions == sorted(positions)

    def test_placement_is_seed_deterministic(self):
        road = Road()
        first = place_obstacles(road, 3, np.random.default_rng(7))
        second = place_obstacles(road, 3, np.random.default_rng(7))
        assert first == second

    def test_world_nearest_obstacle_matches_view(self):
        # The world-level query is the single nearest-threat rule: it must
        # name the same obstacle as nearest_obstacle_view.
        world = World(
            road=Road(),
            obstacles=[Obstacle(10.0, 0.0), Obstacle(20.0, 0.0)],
            state=VehicleState(x_m=12.0, y_m=0.0),
        )
        assert world.nearest_obstacle() is world.nearest_obstacle_view()[2]


class TestCollision:
    def test_circle_hit_true_when_overlapping(self):
        state = VehicleState(x_m=0.0, y_m=0.0)
        assert circle_hit(state, Obstacle(1.0, 0.0, radius_m=1.0), vehicle_radius_m=0.5)

    def test_circle_hit_false_when_clear(self):
        state = VehicleState(x_m=0.0, y_m=0.0)
        assert not circle_hit(state, Obstacle(5.0, 0.0, radius_m=1.0), vehicle_radius_m=0.5)

    def test_first_collision_returns_hit_obstacle(self):
        state = VehicleState()
        obstacles = [Obstacle(10.0, 0.0), Obstacle(0.5, 0.0)]
        assert first_collision(state, obstacles, 1.0) is obstacles[1]

    def test_first_collision_none_when_clear(self):
        assert first_collision(VehicleState(), [Obstacle(50.0, 0.0)], 1.0) is None


class TestWorld:
    def test_step_advances_time_and_state(self, empty_world):
        start_x = empty_world.state.x_m
        empty_world.step(ControlAction(), 0.02)
        assert empty_world.time_s == pytest.approx(0.02)
        assert empty_world.state.x_m > start_x

    def test_reset_restores_initial_state(self, empty_world):
        initial = empty_world.state
        empty_world.step(ControlAction(throttle=1.0), 0.5)
        empty_world.reset()
        assert empty_world.state == initial
        assert empty_world.time_s == 0.0

    def test_nearest_obstacle_view_prefers_ahead(self):
        world = World(
            road=Road(),
            obstacles=[Obstacle(x_m=5.0, y_m=0.0), Obstacle(x_m=-1.0, y_m=0.0)],
            state=VehicleState(x_m=0.0, y_m=0.0, heading_rad=0.0, speed_mps=5.0),
        )
        distance, bearing, obstacle = world.nearest_obstacle_view()
        assert obstacle.x_m == 5.0
        assert abs(bearing) < math.pi / 2
        assert distance == pytest.approx(4.0)

    def test_nearest_obstacle_view_falls_back_to_behind(self):
        world = World(
            road=Road(),
            obstacles=[Obstacle(x_m=-2.0, y_m=0.0)],
            state=VehicleState(x_m=0.0, y_m=0.0),
        )
        _, bearing, obstacle = world.nearest_obstacle_view()
        assert obstacle.x_m == -2.0
        assert abs(bearing) > math.pi / 2

    def test_nearest_obstacle_view_none_when_empty(self, empty_world):
        assert empty_world.nearest_obstacle_view() is None

    def test_status_detects_completion(self, empty_world):
        empty_world.state = VehicleState(x_m=empty_world.road.length_m + 1.0)
        status = empty_world.status()
        assert status.finished and status.done

    def test_status_detects_collision(self, small_world):
        obstacle = small_world.obstacles[0]
        small_world.state = VehicleState(x_m=obstacle.x_m, y_m=obstacle.y_m)
        assert small_world.status().collided

    def test_status_detects_off_road(self, empty_world):
        empty_world.state = VehicleState(x_m=10.0, y_m=empty_world.road.half_width_m + 1.0)
        assert empty_world.status().off_road


class TestLanePoseMemo:
    """``World`` projects each vehicle state once; every query reads it."""

    ROAD = Road(
        width_m=8.0,
        segments=(
            StraightSegment(20.0),
            ArcSegment(25.0, math.radians(70.0)),
            StraightSegment(10.0),
            ArcSegment(18.0, -math.radians(50.0)),
        ),
    )

    @classmethod
    def _assert_matches_road(cls, world):
        road, state = world.road, world.state
        half_width = 0.5 * world.vehicle_params.width_m
        status = world.status()
        assert world.lane_pose() == road.lane_pose(state)
        assert status.off_road == road.off_road(state, vehicle_half_width_m=half_width)
        assert status.finished == road.finished(state)
        assert world.progress() == road.progress(state)

    def _state_at(self, s_m, d_m, heading_offset=0.0):
        x, y = self.ROAD.from_frenet(s_m, d_m)
        heading = self.ROAD.heading_at(s_m) + heading_offset
        return VehicleState(x_m=x, y_m=y, heading_rad=heading, speed_mps=6.0)

    def test_queries_follow_step_reset_and_assignment(self):
        world = World(road=self.ROAD, state=self._state_at(5.0, 0.5, 0.1))
        self._assert_matches_road(world)
        for _ in range(40):
            world.step(ControlAction(steering=0.3, throttle=0.5), 0.05)
            self._assert_matches_road(world)
        world.reset()
        self._assert_matches_road(world)
        length = self.ROAD.length_m
        for state, off_road, finished in (
            (self._state_at(30.0, -1.0, -0.4), False, False),
            (self._state_at(45.0, self.ROAD.half_width_m + 1.0), True, False),
            (self._state_at(length, 0.0), False, True),
            (VehicleState(x_m=-3.0, y_m=0.5), False, False),  # before the start
        ):
            world.state = state
            self._assert_matches_road(world)
            assert (world.status().off_road, world.status().finished) == (
                off_road,
                finished,
            )
        # Past the end: the projection's raw arc length exceeds the route.
        end_x, end_y = self.ROAD.from_frenet(length, 0.0)
        heading = self.ROAD.heading_at(length)
        world.state = VehicleState(
            x_m=end_x + 2.0 * math.cos(heading), y_m=end_y + 2.0 * math.sin(heading)
        )
        self._assert_matches_road(world)
        assert world.status().finished

    def test_one_projection_per_state(self, monkeypatch):
        calls = []
        project_batch = Centerline.project_batch

        def counting(self, xs, ys):
            calls.append(xs.size)
            return project_batch(self, xs, ys)

        monkeypatch.setattr(Centerline, "project_batch", counting)
        world = World(road=self.ROAD, state=self._state_at(5.0, 0.0))
        for _ in range(3):
            world.step(ControlAction(throttle=0.5), 0.05)
            world.status()
            world.lane_pose()
            world.lane_pose()
            world.progress()
        assert calls == [1, 1, 1]
        world.state = self._state_at(12.0, 0.0)
        world.status()
        world.lane_pose()
        assert calls == [1, 1, 1, 1]


class TestScenario:
    def test_build_world_places_requested_obstacles(self):
        world = build_world(ScenarioConfig(num_obstacles=4, seed=1))
        assert len(world.obstacles) == 4

    def test_build_world_initial_speed(self):
        world = build_world(ScenarioConfig(num_obstacles=0, initial_speed_mps=6.0, seed=1))
        assert world.state.speed_mps == pytest.approx(6.0)

    def test_build_world_deterministic_for_seed(self):
        config = ScenarioConfig(num_obstacles=3, seed=11)
        first = build_world(config)
        second = build_world(config)
        assert first.obstacles == second.obstacles

    def test_build_world_requires_seed_or_rng(self):
        with pytest.raises(ValueError):
            build_world(ScenarioConfig(num_obstacles=1, seed=None))

    def test_config_rejects_negative_obstacles(self):
        with pytest.raises(ValueError):
            ScenarioConfig(num_obstacles=-1)

    def test_config_rejects_nonpositive_target_speed(self):
        with pytest.raises(ValueError):
            ScenarioConfig(target_speed_mps=0.0)
