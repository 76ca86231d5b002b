"""Vehicle dynamics substrate.

This package provides the closed-loop plant ``x_dot = f(x, u)`` of the paper's
system model (Section III-A): a kinematic bicycle model of a road vehicle, the
state and control containers used throughout the repository, and a fixed-step
RK4 integrator.

The paper evaluates on CARLA; SEO itself only ever consumes the vehicle pose,
speed, and the relative geometry (distance / bearing) to the nearest obstacle,
which the world derives from this model's states.
"""

from repro.dynamics.params import VehicleParams
from repro.dynamics.state import ControlAction, VehicleState
from repro.dynamics.integrators import rk4_step
from repro.dynamics.bicycle import KinematicBicycleModel

__all__ = [
    "ControlAction",
    "KinematicBicycleModel",
    "VehicleParams",
    "VehicleState",
    "rk4_step",
]
