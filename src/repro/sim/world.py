"""Mutable driving world: vehicle + road + obstacles.

The world is the single source of ground truth the rest of the stack queries:
the controller and perception models observe it (possibly with noise), and
the safety machinery reads the relative state of the nearest obstacle from it
— mirroring the paper, which retrieves the safety-filter state estimates
"directly from Carla for simplicity" (Section VI-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.contracts import kernel_contract
from repro.dynamics.bicycle import KinematicBicycleModel
from repro.dynamics.params import VehicleParams
from repro.dynamics.state import ControlAction, VehicleState, wrap_angle
from repro.sim.collision import first_collision
from repro.sim.obstacles import Obstacle
from repro.sim.road import LanePose, Road

#: Distance reported when no obstacle is in range (effectively "infinitely far").
NO_OBSTACLE_DISTANCE_M = 1e6


@dataclass
class WorldStatus:
    """Episode termination flags for the current world state."""

    collided: bool = False
    off_road: bool = False
    finished: bool = False

    @property
    def done(self) -> bool:
        """True if the episode should terminate."""
        return self.collided or self.off_road or self.finished


@dataclass
class World:
    """The simulated driving world.

    Attributes:
        road: Road geometry.
        obstacles: Obstacles along the route, as seen at the current time
            (obstacles with a motion policy are moved by :meth:`step`).
        vehicle_params: Physical parameters of the ego vehicle.
        state: Current ego vehicle state.
        time_s: Simulation time elapsed since reset.
    """

    road: Road
    obstacles: list[Obstacle] = field(default_factory=list)
    vehicle_params: VehicleParams = field(default_factory=VehicleParams)
    state: VehicleState = field(default_factory=VehicleState)
    time_s: float = 0.0

    def __post_init__(self) -> None:
        self._model = KinematicBicycleModel(self.vehicle_params)
        self._initial_state = self.state
        self._initial_obstacles = list(self.obstacles)
        self._has_moving_obstacles = any(
            obstacle.motion is not None for obstacle in self.obstacles
        )
        # Lane pose of ``_pose_state``: states are frozen, so a state's
        # identity keys its one centreline projection (the reference held
        # here keeps the identity from being reused).
        self._pose_state: VehicleState | None = None
        self._pose: LanePose | None = None

    @property
    def dynamics(self) -> KinematicBicycleModel:
        """The kinematic bicycle model advancing the ego vehicle."""
        return self._model

    def reset(self, state: VehicleState | None = None) -> VehicleState:
        """Reset time, the ego vehicle and the obstacles to their initial state."""
        self.state = state if state is not None else self._initial_state
        self.time_s = 0.0
        if self._has_moving_obstacles:
            self.obstacles = list(self._initial_obstacles)
        return self.state

    def step(self, control: ControlAction, dt: float) -> VehicleState:
        """Advance the world by ``dt`` seconds under ``control``.

        Moving obstacles are re-evaluated at the new simulation time, so
        every subsequent query (status, nearest threat, scans) sees their
        moved positions.
        """
        self.state = self._model.step(self.state, control, dt)
        self.time_s += dt
        if self._has_moving_obstacles:
            self.obstacles = [
                obstacle.at_time(self.time_s) for obstacle in self._initial_obstacles
            ]
        return self.state

    # ------------------------------------------------------------------
    # Queries used by perception, control and the safety machinery.
    # ------------------------------------------------------------------
    def nearest_obstacle(self) -> Obstacle | None:
        """The safety-relevant nearest obstacle, if any.

        Uses the same ranking as :meth:`nearest_obstacle_view` — surface
        distance with a forward-half-plane preference — so the two queries
        always name the same threat for the same state.
        """
        view = self.nearest_obstacle_view()
        return None if view is None else view[2]

    def lane_pose(self) -> LanePose:
        """Road-relative (Frenet) pose of the ego vehicle.

        Projected once per vehicle state: :meth:`status`, :meth:`progress`
        and every caller in the same frame read the same pose.
        """
        if self._pose is None or self._pose_state is not self.state:
            self._pose = self.road.lane_pose(self.state)
            self._pose_state = self.state
        return self._pose

    @staticmethod
    @kernel_contract(
        xs="(N,) float64",
        ys="(N,) float64",
        hs="(N,) float64",
        obs_x="(N, K) float64",
        obs_y="(N, K) float64",
        obs_r="(N, K) float64",
        obs_valid="(N, K) bool",
        returns=("(N,) float64", "(N,) float64", "(N,) int64"),
    )
    def nearest_obstacle_view_batch(
        xs: np.ndarray,
        ys: np.ndarray,
        hs: np.ndarray,
        obs_x: np.ndarray,
        obs_y: np.ndarray,
        obs_r: np.ndarray,
        obs_valid: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized nearest-obstacle-view kernel over ``(N,)`` states.

        Ranks the valid obstacles among the ``K`` slots of each of ``N``
        episodes at once: surface distance (``max(0, centre_distance -
        radius)``) and bearing relative to the heading, with obstacles in
        the forward half-plane (``|bearing| <= pi/2``) preferred and the
        globally nearest one used only when nothing lies ahead.
        ``np.argmin``'s first-occurrence tie-break matches the scalar
        ``min()`` over the obstacle list.

        Slots with ``obs_valid`` False are padding (rows of a lockstep call
        carry different obstacle counts) and never rank, whatever they
        hold: a pad "ahead" would otherwise hide the fallback to an
        obstacle behind, and a NaN pad would win the ``argmin``.  A row
        without a valid obstacle reads :data:`NO_OBSTACLE_DISTANCE_M`,
        bearing ``0.0`` and index ``-1``.

        Args:
            xs, ys, hs: ``(N,)`` vehicle poses.
            obs_x, obs_y, obs_r: ``(N, K)`` obstacle centres and radii,
                with ``K >= 1`` (callers pad a call without obstacles).
            obs_valid: ``(N, K)`` mask of the slots holding an obstacle.

        Returns:
            ``(surface_distance, bearing, obstacle_index)`` arrays of shape
            ``(N,)``.
        """
        dx = obs_x - xs[:, None]
        dy = obs_y - ys[:, None]
        centre_distance = np.hypot(dx, dy)
        bearing = wrap_angle(np.arctan2(dy, dx) - hs[:, None])
        surface = np.maximum(0.0, centre_distance - obs_r)
        ahead = (np.abs(bearing) <= 0.5 * math.pi) & obs_valid
        any_ahead = np.logical_or.reduce(ahead, axis=1)
        ranking = np.where(ahead | (obs_valid & ~any_ahead[:, None]), surface, np.inf)
        nearest = ranking.argmin(axis=1)
        rows = np.arange(xs.shape[0])
        present = np.logical_or.reduce(obs_valid, axis=1)
        return (
            np.where(present, surface[rows, nearest], NO_OBSTACLE_DISTANCE_M),
            np.where(present, bearing[rows, nearest], 0.0),
            np.where(present, nearest, -1),
        )

    def nearest_obstacle_view(self) -> tuple[float, float, Obstacle] | None:
        """Return ``(surface_distance, bearing, obstacle)`` for the nearest threat.

        The distance is measured to the obstacle's safety boundary (its
        surface), matching the paper's remark that ``x'`` characterizes the
        obstacle's safety-bound coordinates rather than its exact state.

        Obstacles in the forward half-plane are preferred: an obstacle that
        has already been passed (behind the vehicle) is not the safety-
        relevant reference point even if it is momentarily the closest one.
        When no obstacle lies ahead, the globally nearest one is returned.

        1-element view of :meth:`nearest_obstacle_view_batch` (the kernel).
        """
        if not self.obstacles:
            return None
        distance, bearing, nearest = self.nearest_obstacle_view_batch(
            np.array([self.state.x_m], dtype=float),
            np.array([self.state.y_m], dtype=float),
            np.array([self.state.heading_rad], dtype=float),
            np.array([[obstacle.x_m for obstacle in self.obstacles]], dtype=float),
            np.array([[obstacle.y_m for obstacle in self.obstacles]], dtype=float),
            np.array(
                [[obstacle.radius_m for obstacle in self.obstacles]], dtype=float
            ),
            np.ones((1, len(self.obstacles)), dtype=bool),
        )
        return float(distance[0]), float(bearing[0]), self.obstacles[int(nearest[0])]

    def status(self) -> WorldStatus:
        """Evaluate collision / off-road / completion flags."""
        vehicle_radius = self.vehicle_params.collision_radius_m
        collided = (
            first_collision(self.state, self.obstacles, vehicle_radius) is not None
        )
        pose = self.lane_pose()
        off_road = self.road.off_road_at(
            pose.lateral_offset_m,
            vehicle_half_width_m=0.5 * self.vehicle_params.width_m,
        )
        finished = self.road.finished_at(pose.arc_length_m)
        return WorldStatus(collided=collided, off_road=off_road, finished=finished)

    def progress(self) -> float:
        """Fraction of the route completed, in [0, 1]."""
        return self.road.progress_at(self.lane_pose().arc_length_m)
