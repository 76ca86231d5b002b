"""Collision predicates between the ego vehicle and obstacles.

The predicates are pure functions of the obstacle discs they are given:
for moving obstacles the caller (``World.status``) passes the discs as
moved to the current simulation time, so collision checks always see the
positions the rest of the stack observes.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.contracts import kernel_contract
from repro.dynamics.state import VehicleState
from repro.sim.obstacles import Obstacle


def circle_hit(
    state: VehicleState, obstacle: Obstacle, vehicle_radius_m: float
) -> bool:
    """Return True if the vehicle disc intersects the obstacle disc."""
    return obstacle.distance_to(state.x_m, state.y_m) <= (
        obstacle.radius_m + vehicle_radius_m
    )


def first_collision(
    state: VehicleState,
    obstacles: Iterable[Obstacle],
    vehicle_radius_m: float,
) -> Obstacle | None:
    """Return the first obstacle the vehicle collides with, or None."""
    for obstacle in obstacles:
        if circle_hit(state, obstacle, vehicle_radius_m):
            return obstacle
    return None


@kernel_contract(
    xs="(N,) float64",
    ys="(N,) float64",
    obs_x="(N, K) float64",
    obs_y="(N, K) float64",
    obs_r="(N, K) float64",
    obs_valid="(N, K) bool",
    returns="(N,) bool",
)
def collided_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    obs_x: np.ndarray,
    obs_y: np.ndarray,
    obs_r: np.ndarray,
    obs_valid: np.ndarray,
    vehicle_radius_m: float,
) -> np.ndarray:
    """Vectorized :func:`first_collision` test over ``(N,)`` vehicle positions.

    A row collides when its vehicle disc meets the disc of any of its valid
    obstacle slots (:func:`circle_hit`'s ``<=``); slots with ``obs_valid``
    False are padding and never collide, whatever they hold.
    """
    hit = np.hypot(obs_x - xs[:, None], obs_y - ys[:, None]) <= (obs_r + vehicle_radius_m)
    return np.logical_or.reduce(hit & obs_valid, axis=1)
