"""Safety characterization of the closed-loop system (paper Section III-A).

The paper characterizes safety through a real-valued function ``h(x, u)``:
the system is in a safe state ``S = 1`` whenever ``h`` is non-negative
(eq. 1).  For the autonomous-driving use case the state ``x`` consumed by the
safety machinery is the *relative* state with respect to the nearest
obstacle: its distance (to the safety bound, i.e. the obstacle surface), its
relative orientation angle, and the ego speed.

:class:`BrakingDistanceBarrier` is the concrete ``h`` used throughout the
reproduction: the clearance to the obstacle minus the distance the vehicle
needs to come to a stop (plus a reaction margin), weighted by how head-on the
obstacle is.  It plays the same role as the ShieldNN barrier of [19]: a
conservative, monotone-in-distance safety measure whose zero level set
separates recoverable from unrecoverable states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.contracts import kernel_contract
from repro.dynamics.state import ControlAction
from repro.sim.world import NO_OBSTACLE_DISTANCE_M, World


@dataclass(frozen=True)
class SafetyInputs:
    """The relative state ``x`` consumed by the safety function and filter.

    Attributes:
        distance_m: Distance from the vehicle to the nearest obstacle's
            safety bound (its surface).  ``NO_OBSTACLE_DISTANCE_M`` when no
            obstacle exists.
        bearing_rad: Relative orientation of the obstacle w.r.t. the vehicle
            heading (0 means dead ahead, positive to the left).
        speed_mps: Current ego speed.
        lateral_offset_m: Signed lateral offset of the vehicle from the lane
            centre; used by the shield to pick an evasive direction that
            stays on the road.
        road_half_width_m: Half-width of the drivable corridor (infinite when
            the road geometry is unknown).
    """

    distance_m: float
    bearing_rad: float
    speed_mps: float
    lateral_offset_m: float = 0.0
    road_half_width_m: float = float("inf")

    def __post_init__(self) -> None:
        if self.distance_m < 0:
            raise ValueError("distance_m must be non-negative")
        if self.speed_mps < 0:
            raise ValueError("speed_mps must be non-negative")

    @property
    def obstacle_present(self) -> bool:
        """True if a real obstacle (not the sentinel) is being tracked."""
        return self.distance_m < NO_OBSTACLE_DISTANCE_M

    @classmethod
    def from_world(cls, world: World) -> "SafetyInputs":
        """Extract the safety inputs from ground truth (the paper reads them
        directly from the simulator, Section VI-A).

        The lateral offset is the Frenet offset from the road centreline, so
        the shield's evasive-direction choice stays road-aware on curved
        centrelines too.
        """
        view = world.nearest_obstacle_view()
        lateral_offset_m = world.lane_pose().lateral_offset_m
        if view is None:
            return cls(
                distance_m=NO_OBSTACLE_DISTANCE_M,
                bearing_rad=0.0,
                speed_mps=world.state.speed_mps,
                lateral_offset_m=lateral_offset_m,
                road_half_width_m=world.road.half_width_m,
            )
        distance, bearing, _ = view
        return cls(
            distance_m=distance,
            bearing_rad=bearing,
            speed_mps=world.state.speed_mps,
            lateral_offset_m=lateral_offset_m,
            road_half_width_m=world.road.half_width_m,
        )


class SafetyFunction:
    """Interface of the real-valued safety function ``h(x, u)``."""

    def evaluate(
        self, inputs: SafetyInputs, control: ControlAction | None = None
    ) -> float:
        """Return ``h(x, u)``; non-negative values mean the state is safe."""
        raise NotImplementedError


def safety_state(h_value: float) -> int:
    """Binary safety state ``S`` of eq. (1): 1 if ``h >= 0`` else 0."""
    return 1 if h_value >= 0.0 else 0


@dataclass(frozen=True)
class BrakingDistanceBarrier(SafetyFunction):
    """Distance-to-obstacle barrier with a braking-distance margin.

    ``h = distance - (clearance + w(bearing) * (v * t_react + v^2 / (2 b)))``

    where ``w(bearing) = max(0, cos(bearing))`` discounts obstacles that are
    not ahead of the vehicle.  ``h`` is positive when the vehicle could still
    brake to a stop before reaching the obstacle's safety bound.

    Attributes:
        clearance_m: Hard minimum clearance kept from the obstacle surface.
        reaction_time_s: Reaction-time margin converted to distance at the
            current speed.
        max_brake_mps2: Braking capability assumed by the barrier.
    """

    clearance_m: float = 1.5
    reaction_time_s: float = 0.2
    max_brake_mps2: float = 7.0

    def __post_init__(self) -> None:
        if self.clearance_m < 0:
            raise ValueError("clearance_m must be non-negative")
        if self.reaction_time_s < 0:
            raise ValueError("reaction_time_s must be non-negative")
        if self.max_brake_mps2 <= 0:
            raise ValueError("max_brake_mps2 must be positive")

    @kernel_contract(
        bearings_rad="(N,) float64",
        speeds_mps="(N,) float64",
        returns="(N,) float64",
    )
    def required_clearance_batch(
        self, bearings_rad: np.ndarray, speeds_mps: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`required_clearance_m` over ``(N,)`` state arrays.

        This is the single implementation of the clearance math; the scalar
        method is a 1-element view of it, so the serial and batch paths
        cannot drift.
        """
        bearings = np.asarray(bearings_rad, dtype=float)
        speeds = np.asarray(speeds_mps, dtype=float)
        heading_weight = np.maximum(0.0, np.cos(bearings))
        stopping = (
            speeds * self.reaction_time_s + speeds**2 / (2.0 * self.max_brake_mps2)
        )
        return self.clearance_m + heading_weight * stopping

    @kernel_contract(
        distances_m="(N,) float64",
        bearings_rad="(N,) float64",
        speeds_mps="(N,) float64",
        returns="(N,) float64",
    )
    def evaluate_batch(
        self,
        distances_m: np.ndarray,
        bearings_rad: np.ndarray,
        speeds_mps: np.ndarray,
    ) -> np.ndarray:
        """Vectorized ``h`` over ``(N,)`` state arrays.

        Elements at the :data:`NO_OBSTACLE_DISTANCE_M` sentinel report the
        raw distance, exactly like the scalar ``evaluate``.
        """
        distances = np.asarray(distances_m, dtype=float)
        required = self.required_clearance_batch(bearings_rad, speeds_mps)
        present = distances < NO_OBSTACLE_DISTANCE_M
        return np.where(present, distances - required, distances)

    def required_clearance_m(self, inputs: SafetyInputs) -> float:
        """Distance the barrier requires for the current speed and bearing."""
        return float(
            self.required_clearance_batch(
                np.array([inputs.bearing_rad]), np.array([inputs.speed_mps])
            )[0]
        )

    def evaluate(
        self, inputs: SafetyInputs, control: ControlAction | None = None
    ) -> float:
        """Evaluate ``h``; the control argument is accepted for interface
        compatibility but this barrier depends on the state only."""
        return float(
            self.evaluate_batch(
                np.array([inputs.distance_m]),
                np.array([inputs.bearing_rad]),
                np.array([inputs.speed_mps]),
            )[0]
        )
