"""Collision predicates between the ego vehicle and obstacles.

The predicates are pure functions of the obstacle discs they are given
(for moving obstacles, the discs as moved to the current simulation time).
They are the scalar reference for the collision column of
:meth:`repro.sim.world.World.status_batch`, the episode end condition.
"""

from __future__ import annotations

from collections.abc import Iterable

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
