"""Tests for range-scan observations and the episode runner."""

import math

import pytest

from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController
from repro.core.shield import SteeringShield
from repro.dynamics.state import VehicleState
from repro.sim.episode import EpisodeRunner
from repro.sim.obstacles import Obstacle
from repro.sim.observation import RangeScanner
from repro.sim.road import Road
from repro.sim.scenario import ScenarioConfig, build_world
from repro.sim.world import World


def _world_with_single_obstacle(distance: float = 10.0) -> World:
    return World(
        road=Road(width_m=60.0),
        obstacles=[Obstacle(x_m=distance, y_m=0.0, radius_m=1.0)],
        state=VehicleState(x_m=0.0, y_m=0.0, heading_rad=0.0, speed_mps=5.0),
    )


class TestRangeScanner:
    def test_scan_length_matches_num_beams(self):
        scanner = RangeScanner(num_beams=16)
        world = _world_with_single_obstacle()
        assert scanner.scan(world).shape == (16,)

    def test_obstacle_ahead_shortens_central_beam(self):
        scanner = RangeScanner(num_beams=31, max_range_m=40.0)
        world = _world_with_single_obstacle(distance=10.0)
        scan = scanner.scan(world)
        central = scan[len(scan) // 2]
        assert central == pytest.approx(9.0, abs=0.2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RangeScanner(num_beams=1)
        with pytest.raises(ValueError):
            RangeScanner(max_range_m=0.0)

    def test_beam_angles_span_fov(self):
        scanner = RangeScanner(num_beams=5, fov_rad=math.radians(90))
        angles = scanner.beam_angles()
        assert angles[0] == pytest.approx(-math.radians(45))
        assert angles[-1] == pytest.approx(math.radians(45))


class TestEpisodeRunner:
    def test_empty_road_is_completed(self):
        world = build_world(ScenarioConfig(num_obstacles=0, road_length_m=40.0, seed=1))
        runner = EpisodeRunner(world=world, controller=ObstacleAvoidanceController())
        result = runner.run()
        assert result.success
        assert result.progress == pytest.approx(1.0)

    def test_obstacle_course_with_heuristic_controller(self):
        world = build_world(ScenarioConfig(num_obstacles=2, seed=2))
        runner = EpisodeRunner(world=world, controller=ObstacleAvoidanceController())
        result = runner.run()
        assert result.completed
        assert not result.collided

    def test_pure_pursuit_collides_without_filter(self):
        # The obstacle-blind controller on a head-on obstacle must collide.
        world = World(
            road=Road(width_m=12.0, length_m=60.0),
            obstacles=[Obstacle(x_m=40.0, y_m=0.0, radius_m=1.5)],
            state=VehicleState(speed_mps=8.0),
        )
        runner = EpisodeRunner(world=world, controller=PurePursuitController())
        result = runner.run()
        assert result.collided

    def test_safety_filter_reduces_collisions_for_blind_controller(self):
        world = World(
            road=Road(width_m=12.0, length_m=60.0),
            obstacles=[Obstacle(x_m=40.0, y_m=0.0, radius_m=1.5)],
            state=VehicleState(speed_mps=8.0),
        )
        runner = EpisodeRunner(
            world=world,
            controller=PurePursuitController(),
            safety_filter=SteeringShield(),
        )
        result = runner.run()
        assert not result.collided
        assert result.filter_interventions > 0

    def test_max_steps_bounds_episode_length(self):
        world = build_world(ScenarioConfig(num_obstacles=0, seed=1))
        runner = EpisodeRunner(
            world=world, controller=ObstacleAvoidanceController(), max_steps=10
        )
        result = runner.run()
        assert result.steps == 10
        assert not result.completed

    def test_rejects_bad_parameters(self):
        world = build_world(ScenarioConfig(num_obstacles=0, seed=1))
        with pytest.raises(ValueError):
            EpisodeRunner(world=world, controller=ObstacleAvoidanceController(), dt_s=0.0)
