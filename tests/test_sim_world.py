"""Tests for the driving-world substrate (road, obstacles, world, scenario)."""

import math
import re

import numpy as np
import pytest

from repro.dynamics.params import VehicleParams
from repro.dynamics.state import ControlAction, VehicleState
from repro.sim.collision import circle_hit, first_collision
from repro.sim.obstacles import OBSTACLE_ZONE_END_FRACTION, Obstacle, place_obstacles
from repro.sim.road import ArcSegment, Road, StraightSegment
from repro.sim.scenario import ScenarioConfig, build_world
from repro.sim.world import NO_OBSTACLE_DISTANCE_M, World


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

    def test_finished(self):
        road = Road(length_m=100.0)
        assert World(road=road, state=VehicleState(x_m=100.0)).status().finished
        assert not World(road=road, state=VehicleState(x_m=99.0)).status().finished

    def test_off_road_laterally(self):
        road = Road(width_m=8.0)
        assert World(road=road, state=VehicleState(x_m=10.0, y_m=5.0)).status().off_road
        assert not World(road=road, state=VehicleState(x_m=10.0, y_m=1.0)).status().off_road

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


    def test_world_nearest_obstacle_matches_view(self, obstacle_view):
        # The reported distance and bearing are those of the obstacle the
        # view names: the one ahead, not the nearer one just passed.
        obstacles = [Obstacle(10.0, 0.0), Obstacle(20.0, 0.0)]
        world = World(road=Road(), obstacles=obstacles, state=VehicleState(x_m=12.0, y_m=0.0))
        distance, bearing, index = obstacle_view(world)
        assert index == 1
        assert distance == pytest.approx(8.0 - obstacles[1].radius_m)
        assert bearing == 0.0


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

    def test_collided_batch_matches_first_collision_on_valid_slots(self):
        """Each row's ``World.status_batch`` collided verdict is
        ``first_collision`` over its valid slots alone; padded slots never
        collide, even on top of the vehicle."""
        rng = np.random.default_rng(4)
        rows, slots = 40, 4
        xs, ys = rng.uniform(-3.0, 3.0, (2, rows))
        obs_x = rng.uniform(-4.0, 4.0, (rows, slots))
        obs_y = rng.uniform(-4.0, 4.0, (rows, slots))
        obs_r = rng.uniform(0.2, 1.5, (rows, slots))
        valid = rng.random((rows, slots)) < 0.5
        valid[0] = False
        # Pads sit right on the vehicle: an unmasked pad always collides.
        obs_x[~valid] = xs.repeat(slots).reshape(rows, slots)[~valid]
        obs_y[~valid] = ys.repeat(slots).reshape(rows, slots)[~valid]
        vehicle = VehicleParams(width_m=1.6)
        assert vehicle.collision_radius_m == 0.8
        on_road = np.zeros(rows)
        collided, _off_road, _finished = World.status_batch(
            xs, ys, on_road, on_road, obs_x, obs_y, obs_r, valid,
            np.full(rows, 100.0), np.full(rows, 4.0), vehicle,
        )
        expected = [
            first_collision(
                VehicleState(x_m=xs[j], y_m=ys[j]),
                [
                    Obstacle(obs_x[j, k], obs_y[j, k], radius_m=obs_r[j, k])
                    for k in valid[j].nonzero()[0]
                ],
                0.8,
            )
            is not None
            for j in range(rows)
        ]
        assert collided.tolist() == expected
        assert 0 < sum(expected) < rows
        assert not collided[0]


class TestWorld:
    def test_step_advances_time_and_state(self, empty_world):
        start_x = empty_world.state.x_m
        empty_world.step(ControlAction(), 0.02)
        assert empty_world.time_s == pytest.approx(0.02)
        assert empty_world.state.x_m > start_x

    def test_nearest_obstacle_view_prefers_ahead(self, obstacle_view):
        world = World(
            road=Road(),
            obstacles=[Obstacle(x_m=5.0, y_m=0.0), Obstacle(x_m=-1.0, y_m=0.0)],
            state=VehicleState(x_m=0.0, y_m=0.0, heading_rad=0.0, speed_mps=5.0),
        )
        distance, bearing, index = obstacle_view(world)
        assert world.obstacles[index].x_m == 5.0
        assert abs(bearing) < math.pi / 2
        assert distance == pytest.approx(4.0)

    def test_nearest_obstacle_view_falls_back_to_behind(self, obstacle_view):
        world = World(
            road=Road(),
            obstacles=[Obstacle(x_m=-2.0, y_m=0.0)],
            state=VehicleState(x_m=0.0, y_m=0.0),
        )
        _, bearing, index = obstacle_view(world)
        assert world.obstacles[index].x_m == -2.0
        assert abs(bearing) > math.pi / 2

    def test_nearest_obstacle_view_none_when_empty(self, empty_world, obstacle_view):
        # "None" is the no-obstacle view: the sentinel distance and index -1.
        assert obstacle_view(empty_world) == (NO_OBSTACLE_DISTANCE_M, 0.0, -1)

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
    """``World.status`` reads the vehicle's lane pose on curved roads: the
    clamped Frenet coordinates of its current state, projected per call."""

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
        """``status()`` equals its row of one multi-row ``status_batch``
        call on the raw projection."""
        road, state = world.road, world.state
        status = world.status()
        # The world's row (it has no obstacles: its one slot is padding)
        # sits between a row past the route end and a row on an obstacle.
        assert not world.obstacles
        end_x, end_y = road.from_frenet(road.length_m, 0.0)
        heading = road.heading_at(road.length_m)
        xs = np.array([end_x + 2.0 * math.cos(heading), state.x_m, 3.0])
        ys = np.array([end_y + 2.0 * math.sin(heading), state.y_m, -2.0])
        s_raw, d_raw = road.centerline.project_batch(xs, ys)
        flags = World.status_batch(
            xs, ys, s_raw, d_raw, np.full((3, 1), 3.0), np.full((3, 1), -2.0), np.ones((3, 1)),
            np.array([[False], [False], [True]]),
            np.full(3, road.length_m), np.full(3, road.half_width_m), world.vehicle_params,
        )
        assert [bool(flag[1]) for flag in flags] == [
            status.collided, status.off_road, status.finished
        ]
        assert [bool(flag[0]) for flag in flags] == [False, False, True]
        assert [bool(flag[2]) for flag in flags] == [True, False, False]

    def test_vehicle_touching_the_edge_is_on_road(self):
        """A vehicle whose side touches the road edge, placed through the
        Frenet frame of a curved road, stays on it: the end condition's
        ``1e-9`` tolerance absorbs the projection's rounding."""
        world = World(road=self.ROAD)
        limit = self.ROAD.half_width_m - 0.5 * world.vehicle_params.width_m
        for s_m in np.linspace(1.0, self.ROAD.length_m - 1.0, 40):
            for d_m in (limit, -limit):
                world.state = self._state_at(s_m, d_m)
                assert not world.status().off_road, (s_m, d_m)
                world.state = self._state_at(s_m, d_m * (1.0 + 1e-6))
                assert world.status().off_road, (s_m, d_m)

    def _state_at(self, s_m, d_m, heading_offset=0.0):
        x, y = self.ROAD.from_frenet(s_m, d_m)
        heading = self.ROAD.heading_at(s_m) + heading_offset
        return VehicleState(x_m=x, y_m=y, heading_rad=heading, speed_mps=6.0)

    def test_queries_follow_step_reset_and_assignment(self):
        initial = self._state_at(5.0, 0.5, 0.1)
        world = World(road=self.ROAD, state=initial)
        self._assert_matches_road(world)
        for _ in range(40):
            world.step(ControlAction(steering=0.3, throttle=0.5), 0.05)
            self._assert_matches_road(world)
        # Back at the start: the first state, projected before the steps,
        # is projected again rather than read from the last step's pose.
        world.state = initial
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

    # Refused up front, naming the field, instead of inside build_world.
    @pytest.mark.parametrize("length", [0.0, -5.0])
    def test_config_rejects_nonpositive_straight_road_length(self, length):
        with pytest.raises(ValueError, match="road_length_m must be positive"):
            ScenarioConfig(road_length_m=length)
        # A curved road takes its length from its segments.
        ScenarioConfig(road_length_m=length, road_segments=(StraightSegment(50.0),))

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_config_rejects_nonpositive_road_width(self, width):
        with pytest.raises(ValueError, match="road_width_m must be positive"):
            ScenarioConfig(road_width_m=width)

    @pytest.mark.parametrize("radius", [0.0, -0.5])
    def test_config_rejects_nonpositive_obstacle_radius(self, radius):
        with pytest.raises(ValueError, match="obstacle_radius_m must be positive"):
            ScenarioConfig(obstacle_radius_m=radius)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "road_length_m",
            "road_width_m",
            "obstacle_radius_m",
            "obstacle_speed_mps",
            "initial_speed_mps",
            "target_speed_mps",
            "initial_lateral_offset_m",
        ],
    )
    def test_config_rejects_non_finite_floats(self, field, bad):
        # Each used to be accepted by NaN and +inf (the two signed fields
        # by -inf too): initial_speed_mps=nan ran an episode that left the
        # road after one step, obstacle_speed_mps=nan ran all its steps.
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
            ScenarioConfig(**{field: bad})

    @pytest.mark.parametrize(
        ("field", "bad"),
        [
            ("num_obstacles", 2.5),
            ("num_obstacles", 2.0),
            ("num_obstacles", True),
            ("num_obstacles", None),
            ("num_obstacles", "3"),
            ("seed", 1.5),
            ("seed", False),
            ("seed", np.float64(3.0)),
        ],
    )
    def test_config_rejects_non_integral_counts(self, field, bad):
        # num_obstacles=2.5 used to build a config and a work-unit key, then
        # fail in place_obstacles naming no field; num_obstacles=True equals
        # num_obstacles=1 but serialized to a different key.
        message = re.escape(f"{field} must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScenarioConfig(**{field: bad})

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
    def test_config_rejects_obstacle_zone_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match=r"obstacle_zone_start_fraction must be in \[0, 1\)"):
            ScenarioConfig(obstacle_zone_start_fraction=fraction)
        ScenarioConfig(obstacle_zone_start_fraction=0.0)

    @pytest.mark.parametrize("fraction", [OBSTACLE_ZONE_END_FRACTION, 0.98])
    def test_config_rejects_obstacle_zone_starting_where_it_ends(self, fraction):
        # Used to build a config, then fail in place_obstacles with "road
        # obstacle zone is empty", naming no field.
        message = (
            f"obstacle_zone_start_fraction must be below {OBSTACLE_ZONE_END_FRACTION}, "
            f"where the obstacle zone ends, when num_obstacles > 0, got {fraction}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(num_obstacles=2, obstacle_zone_start_fraction=fraction)
        # An empty zone is fine when nothing is placed in it.
        ScenarioConfig(num_obstacles=0, obstacle_zone_start_fraction=fraction)
        # Just below the end the zone is short but not empty.
        build_world(ScenarioConfig(num_obstacles=2, obstacle_zone_start_fraction=0.96))
