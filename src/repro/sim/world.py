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
from repro.sim.obstacles import Obstacle
from repro.sim.road import Road

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
        time_s: Simulation time elapsed since the world was built.
    """

    road: Road
    obstacles: list[Obstacle] = field(default_factory=list)
    vehicle_params: VehicleParams = field(default_factory=VehicleParams)
    state: VehicleState = field(default_factory=VehicleState)
    time_s: float = 0.0

    def __post_init__(self) -> None:
        self._model = KinematicBicycleModel(self.vehicle_params)
        self._initial_obstacles = list(self.obstacles)
        self._has_moving_obstacles = any(
            obstacle.motion is not None for obstacle in self.obstacles
        )

    @property
    def dynamics(self) -> KinematicBicycleModel:
        """The kinematic bicycle model advancing the ego vehicle."""
        return self._model

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

    @staticmethod
    @kernel_contract(
        xs="(N,) float64",
        ys="(N,) float64",
        s_m="(N,) float64",
        d_m="(N,) float64",
        obs_x="(N, K) float64",
        obs_y="(N, K) float64",
        obs_r="(N, K) float64",
        obs_valid="(N, K) bool",
        length_m="(N,) float64",
        half_width_m="(N,) float64",
        returns=("(N,) bool", "(N,) bool", "(N,) bool"),
    )
    def status_batch(
        xs: np.ndarray,
        ys: np.ndarray,
        s_m: np.ndarray,
        d_m: np.ndarray,
        obs_x: np.ndarray,
        obs_y: np.ndarray,
        obs_r: np.ndarray,
        obs_valid: np.ndarray,
        length_m: np.ndarray,
        half_width_m: np.ndarray,
        vehicle: VehicleParams,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized episode end condition: ``(collided, off_road, finished)`` masks.

        A row *collides* when its vehicle disc meets a valid obstacle disc
        (:func:`~repro.sim.collision.circle_hit`'s ``<=``; padded slots never
        collide, whatever they hold), is *off road* when ``|d_m|`` exceeds
        the half width less half the vehicle width (``1e-9`` tolerance), and
        *finished* at ``s_m >= length_m``, on raw or clamped arc length alike
        (a raw ``s >= length`` clamps to ``length`` itself).
        """
        reach = obs_r + vehicle.collision_radius_m
        hit = np.hypot(obs_x - xs[:, None], obs_y - ys[:, None]) <= reach
        edge = half_width_m - 0.5 * vehicle.width_m + 1e-9
        return (
            np.logical_or.reduce(hit & obs_valid, axis=1),
            ~(np.abs(d_m) <= edge),
            s_m >= length_m,
        )

    def status(self) -> WorldStatus:
        """Collision / off-road / completion flags: a 1-element view of
        :meth:`status_batch` (the kernel) on the clamped Frenet coordinates
        of the vehicle."""
        s_m, d_m = self.road.to_frenet(self.state.x_m, self.state.y_m)
        flags = self.status_batch(
            np.array([self.state.x_m]), np.array([self.state.y_m]),
            np.array([s_m]), np.array([d_m]),
            np.array([[obstacle.x_m for obstacle in self.obstacles]], dtype=float),
            np.array([[obstacle.y_m for obstacle in self.obstacles]], dtype=float),
            np.array([[obstacle.radius_m for obstacle in self.obstacles]], dtype=float),
            np.ones((1, len(self.obstacles)), dtype=bool),
            np.array([self.road.length_m]), np.array([self.road.half_width_m]),
            self.vehicle_params,
        )
        return WorldStatus(*(bool(flag[0]) for flag in flags))
