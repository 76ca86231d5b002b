"""Tests for the controllers and the aggregated control inputs."""

import pytest

from repro.control.base import ControlInputs
from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController
from repro.dynamics.state import VehicleState
from repro.sim.obstacles import Obstacle
from repro.sim.road import Road
from repro.sim.world import World


def _inputs(**overrides):
    defaults = dict(
        speed_mps=8.0,
        target_speed_mps=8.0,
        lateral_offset_m=0.0,
        heading_rad=0.0,
        road_half_width_m=6.0,
    )
    defaults.update(overrides)
    return ControlInputs(**defaults)


class TestControlInputs:
    def test_from_world_without_obstacles(self, empty_world):
        inputs = ControlInputs.from_world(empty_world, 8.0)
        assert not inputs.has_obstacle
        assert inputs.speed_mps == empty_world.state.speed_mps

    def test_from_world_with_obstacle(self):
        world = World(
            road=Road(),
            obstacles=[Obstacle(x_m=10.0, y_m=0.0, radius_m=1.0)],
            state=VehicleState(speed_mps=5.0),
        )
        inputs = ControlInputs.from_world(world, 8.0)
        assert inputs.has_obstacle
        assert inputs.obstacle_distance_m == pytest.approx(9.0)


class TestObstacleAvoidanceController:
    def test_accelerates_toward_target_speed(self):
        controller = ObstacleAvoidanceController(target_speed_mps=8.0)
        action = controller.act_from_inputs(_inputs(speed_mps=2.0))
        assert action.throttle > 0.0

    def test_brakes_above_target_speed(self):
        controller = ObstacleAvoidanceController(target_speed_mps=8.0)
        action = controller.act_from_inputs(_inputs(speed_mps=12.0))
        assert action.throttle < 0.0

    def test_steers_back_to_centre(self):
        controller = ObstacleAvoidanceController()
        left_of_centre = controller.act_from_inputs(_inputs(lateral_offset_m=2.0))
        right_of_centre = controller.act_from_inputs(_inputs(lateral_offset_m=-2.0))
        assert left_of_centre.steering < 0.0
        assert right_of_centre.steering > 0.0

    def test_steers_away_from_close_obstacle(self):
        controller = ObstacleAvoidanceController()
        obstacle_left = controller.act_from_inputs(
            _inputs(obstacle_distance_m=8.0, obstacle_bearing_rad=0.2)
        )
        obstacle_right = controller.act_from_inputs(
            _inputs(obstacle_distance_m=8.0, obstacle_bearing_rad=-0.2)
        )
        assert obstacle_left.steering < 0.0
        assert obstacle_right.steering > 0.0

    def test_brakes_for_head_on_obstacle(self):
        controller = ObstacleAvoidanceController()
        clear = controller.act_from_inputs(_inputs())
        blocked = controller.act_from_inputs(
            _inputs(obstacle_distance_m=6.0, obstacle_bearing_rad=0.0)
        )
        assert blocked.throttle < clear.throttle

    def test_ignores_far_obstacles(self):
        controller = ObstacleAvoidanceController()
        far = controller.act_from_inputs(
            _inputs(obstacle_distance_m=30.0, obstacle_bearing_rad=0.0)
        )
        clear = controller.act_from_inputs(_inputs())
        assert far.steering == pytest.approx(clear.steering)

    def test_stale_detections_brake_harder(self):
        controller = ObstacleAvoidanceController()
        fresh = controller.act_from_inputs(
            _inputs(obstacle_distance_m=6.0, obstacle_bearing_rad=0.0)
        )
        stale = controller.act_from_inputs(
            _inputs(obstacle_distance_m=6.0, obstacle_bearing_rad=0.0, obstacle_stale=True)
        )
        assert stale.throttle <= fresh.throttle

    def test_actions_always_bounded(self):
        controller = ObstacleAvoidanceController()
        action = controller.act_from_inputs(
            _inputs(
                lateral_offset_m=10.0,
                heading_rad=1.0,
                obstacle_distance_m=0.5,
                obstacle_bearing_rad=0.0,
            )
        )
        assert -1.0 <= action.steering <= 1.0
        assert -1.0 <= action.throttle <= 1.0

    def test_inputs_require_distance_and_bearing_together(self):
        with pytest.raises(ValueError):
            _inputs(obstacle_distance_m=5.0)


class TestPurePursuitController:
    def test_tracks_centreline(self):
        controller = PurePursuitController()
        off_left = controller.act_from_inputs(_inputs(lateral_offset_m=2.0))
        assert off_left.steering < 0.0

    def test_holds_target_speed(self):
        controller = PurePursuitController(target_speed_mps=8.0)
        action = controller.act_from_inputs(_inputs(speed_mps=8.0))
        assert action.throttle == pytest.approx(0.0, abs=1e-6)

    def test_ignores_obstacles(self):
        controller = PurePursuitController()
        clear = controller.act_from_inputs(_inputs())
        blocked = controller.act_from_inputs(
            _inputs(obstacle_distance_m=5.0, obstacle_bearing_rad=0.0)
        )
        assert clear.steering == pytest.approx(blocked.steering)
        assert clear.throttle == pytest.approx(blocked.throttle)
