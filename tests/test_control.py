"""Tests for the controllers, on 1-element calls of their ``act_batch`` kernels."""

import inspect

import numpy as np
import pytest

from repro.contracts import ContractViolationError
from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController
from repro.dynamics.state import VehicleState, wrap_angle
from repro.sim.obstacles import Obstacle
from repro.sim.road import Road
from repro.sim.world import World


def _act(
    controller,
    speed_mps=8.0,
    lateral_offset_m=0.0,
    heading_rad=0.0,
    road_curvature_per_m=0.0,
    obstacle_distance_m=None,
    obstacle_bearing_rad=0.0,
    obstacle_stale=False,
):
    """``(steering, throttle)`` of one state; no distance means no obstacle."""
    pose = (
        np.array([speed_mps]),
        np.array([controller.target_speed_mps]),
        np.array([lateral_offset_m]),
        np.array([heading_rad]),
        np.array([road_curvature_per_m]),
    )
    if isinstance(controller, PurePursuitController):
        steering, throttle = controller.act_batch(*pose)
    else:
        has_obstacle = obstacle_distance_m is not None
        steering, throttle = controller.act_batch(
            *pose,
            np.array([has_obstacle]),
            np.array([obstacle_distance_m if has_obstacle else 0.0]),
            np.array([obstacle_bearing_rad]),
            np.array([obstacle_stale]),
        )
    return float(steering[0]), float(throttle[0])


def _inputs_from_world(world, obstacle_view):
    """``_act`` keyword inputs of a world's ground truth: the lane pose and
    the nearest threat (no distance when the world has no obstacle)."""
    road, state = world.road, world.state
    s, d = road.to_frenet(state.x_m, state.y_m)
    distance, bearing, index = obstacle_view(world)
    return dict(
        speed_mps=state.speed_mps,
        lateral_offset_m=d,
        heading_rad=wrap_angle(state.heading_rad - road.heading_at(s)),
        road_curvature_per_m=float(road.centerline.curvature_at_batch(np.array([s]))[0]),
        obstacle_distance_m=None if index < 0 else distance,
        obstacle_bearing_rad=bearing,
    )


class TestControlInputs:
    def test_from_world_without_obstacles(self, empty_world, obstacle_view):
        inputs = _inputs_from_world(empty_world, obstacle_view)
        assert inputs["obstacle_distance_m"] is None
        assert inputs["speed_mps"] == empty_world.state.speed_mps

    def test_from_world_with_obstacle(self, obstacle_view):
        world = World(
            road=Road(),
            obstacles=[Obstacle(x_m=10.0, y_m=0.0, radius_m=1.0)],
            state=VehicleState(speed_mps=5.0),
        )
        inputs = _inputs_from_world(world, obstacle_view)
        assert inputs["obstacle_distance_m"] == pytest.approx(9.0)
        assert inputs["obstacle_bearing_rad"] == 0.0
        # The head-on obstacle makes the controller swerve off the centreline.
        clear = dict(inputs, obstacle_distance_m=None)
        controller = ObstacleAvoidanceController()
        assert _act(controller, **clear)[0] == 0.0
        assert _act(controller, **inputs)[0] != 0.0


class TestObstacleAvoidanceController:
    def test_accelerates_toward_target_speed(self):
        controller = ObstacleAvoidanceController(target_speed_mps=8.0)
        _, throttle = _act(controller, speed_mps=2.0)
        assert throttle > 0.0

    def test_brakes_above_target_speed(self):
        controller = ObstacleAvoidanceController(target_speed_mps=8.0)
        _, throttle = _act(controller, speed_mps=12.0)
        assert throttle < 0.0

    def test_steers_back_to_centre(self):
        controller = ObstacleAvoidanceController()
        left_of_centre, _ = _act(controller, lateral_offset_m=2.0)
        right_of_centre, _ = _act(controller, lateral_offset_m=-2.0)
        assert left_of_centre < 0.0
        assert right_of_centre > 0.0

    def test_steers_away_from_close_obstacle(self):
        controller = ObstacleAvoidanceController()
        obstacle_left, _ = _act(controller, obstacle_distance_m=8.0, obstacle_bearing_rad=0.2)
        obstacle_right, _ = _act(controller, obstacle_distance_m=8.0, obstacle_bearing_rad=-0.2)
        assert obstacle_left < 0.0
        assert obstacle_right > 0.0

    def test_brakes_for_head_on_obstacle(self):
        controller = ObstacleAvoidanceController()
        _, clear = _act(controller)
        _, blocked = _act(controller, obstacle_distance_m=6.0, obstacle_bearing_rad=0.0)
        assert blocked < clear

    def test_ignores_far_obstacles(self):
        controller = ObstacleAvoidanceController()
        far, _ = _act(controller, obstacle_distance_m=30.0, obstacle_bearing_rad=0.0)
        clear, _ = _act(controller)
        assert far == pytest.approx(clear)

    def test_stale_detections_brake_harder(self):
        controller = ObstacleAvoidanceController()
        _, fresh = _act(controller, obstacle_distance_m=6.0)
        _, stale = _act(controller, obstacle_distance_m=6.0, obstacle_stale=True)
        assert stale <= fresh

    def test_actions_always_bounded(self):
        controller = ObstacleAvoidanceController()
        steering, throttle = _act(
            controller,
            lateral_offset_m=10.0,
            heading_rad=1.0,
            obstacle_distance_m=0.5,
            obstacle_bearing_rad=0.0,
        )
        assert -1.0 <= steering <= 1.0
        assert -1.0 <= throttle <= 1.0

    def test_masked_rows_ignore_obstacle_inputs(self):
        """A row without an obstacle ignores its distance, bearing and stale
        columns."""
        controller = ObstacleAvoidanceController()
        clear = _act(controller)
        # A close head-on obstacle, which would brake and steer if unmasked.
        steering, throttle = controller.act_batch(
            np.array([8.0]), np.array([8.0]), np.zeros(1), np.zeros(1), np.zeros(1),
            np.array([False]), np.array([0.6]), np.array([0.0]), np.array([True]),
        )
        assert (float(steering[0]), float(throttle[0])) == clear

    def test_inputs_require_distance_and_bearing_together(self):
        """An obstacle's distance and bearing columns are read row by row:
        a bearing column that does not align with the distances is refused,
        not broadcast."""
        controller = ObstacleAvoidanceController()
        rows = np.zeros(3)
        with pytest.raises((ValueError, ContractViolationError)):
            controller.act_batch(
                rows + 8.0, rows + 8.0, rows, rows, rows,
                np.ones(3, dtype=bool), rows + 5.0, np.zeros(2), np.zeros(3, dtype=bool),
            )


class TestPurePursuitController:
    def test_tracks_centreline(self):
        controller = PurePursuitController()
        off_left, _ = _act(controller, lateral_offset_m=2.0)
        assert off_left < 0.0

    def test_holds_target_speed(self):
        controller = PurePursuitController(target_speed_mps=8.0)
        _, throttle = _act(controller, speed_mps=8.0)
        assert throttle == pytest.approx(0.0, abs=1e-6)

    def test_curvature_feeds_forward(self):
        controller = PurePursuitController()
        straight, _ = _act(controller)
        left_turn, _ = _act(controller, road_curvature_per_m=0.05)
        assert straight == 0.0
        assert left_turn > 0.0

    def test_ignores_obstacles(self):
        """Pure pursuit is the obstacle-blind controller the shield protects:
        its kernel reads the lane pose and the target speed, nothing else."""
        parameters = inspect.signature(PurePursuitController.act_batch).parameters
        assert list(parameters) == [
            "self",
            "speeds_mps",
            "target_speeds_mps",
            "lateral_offsets_m",
            "headings_rad",
            "road_curvatures_per_m",
        ]
