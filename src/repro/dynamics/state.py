"""State and control containers plus relative-geometry helpers.

The safety machinery of the paper (Sections III-B and IV-B) works on the
*relative* state of the ego vehicle with respect to the nearest obstacle:
the distance to the obstacle's safety bound and the relative orientation
angle.  The helpers at the bottom of this module compute exactly those two
quantities from absolute poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import overload

import numpy as np


@overload
def wrap_angle(angle_rad: float) -> float: ...


@overload
def wrap_angle(angle_rad: np.ndarray) -> np.ndarray: ...


def wrap_angle(angle_rad: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle (scalar or ndarray) to the interval (-pi, pi].

    The array path mirrors the scalar branch structure exactly (including
    the pass-through of already-in-range values) so both produce bitwise
    identical results element by element; ``np.fmod`` matches ``math.fmod``.
    An array already inside the interval is returned as a copy without the
    wrap arithmetic; the result never aliases the input.
    """
    if isinstance(angle_rad, np.ndarray):
        inside = (angle_rad > -math.pi) & (angle_rad <= math.pi)
        if np.count_nonzero(inside) == inside.size:
            return angle_rad.copy()
        wrapped = np.fmod(angle_rad + math.pi, 2.0 * math.pi)
        wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * math.pi, wrapped)
        return np.where(inside, angle_rad, wrapped - math.pi)
    if -math.pi < angle_rad <= math.pi:
        return angle_rad
    wrapped = math.fmod(angle_rad + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class VehicleState:
    """Planar pose and speed of the ego vehicle.

    Attributes:
        x_m: Longitudinal position along the road frame (metres).
        y_m: Lateral position (metres); 0 is the lane centre.
        heading_rad: Heading angle; 0 points along +x.
        speed_mps: Forward speed (non-negative).
    """

    x_m: float = 0.0
    y_m: float = 0.0
    heading_rad: float = 0.0
    speed_mps: float = 0.0

    def as_array(self) -> np.ndarray:
        """Return the state as a length-4 float array (x, y, heading, speed)."""
        return np.array(
            [self.x_m, self.y_m, self.heading_rad, self.speed_mps], dtype=float
        )

    @classmethod
    def from_array(cls, values: np.ndarray) -> "VehicleState":
        """Build a state from a length-4 array (x, y, heading, speed)."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (4,):
            raise ValueError(f"expected a length-4 array, got shape {arr.shape}")
        return cls(
            x_m=float(arr[0]),
            y_m=float(arr[1]),
            heading_rad=wrap_angle(float(arr[2])),
            speed_mps=max(0.0, float(arr[3])),
        )

    @property
    def position(self) -> tuple[float, float]:
        """Planar position (x, y) in metres."""
        return (self.x_m, self.y_m)

    def with_speed(self, speed_mps: float) -> "VehicleState":
        """Return a copy of this state with a different speed."""
        return replace(self, speed_mps=max(0.0, float(speed_mps)))


@dataclass(frozen=True)
class ControlAction:
    """Control command produced by the downstream controller.

    Attributes:
        steering: Normalized steering command in [-1, 1]; positive steers left.
        throttle: Normalized longitudinal command in [-1, 1]; negative brakes.
    """

    steering: float = 0.0
    throttle: float = 0.0

    def clipped(self) -> "ControlAction":
        """Return a copy with both channels clipped to [-1, 1]."""
        return ControlAction(
            steering=float(np.clip(self.steering, -1.0, 1.0)),
            throttle=float(np.clip(self.throttle, -1.0, 1.0)),
        )

    def as_array(self) -> np.ndarray:
        """Return the action as a length-2 float array (steering, throttle)."""
        return np.array([self.steering, self.throttle], dtype=float)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "ControlAction":
        """Build an action from a length-2 array (steering, throttle)."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (2,):
            raise ValueError(f"expected a length-2 array, got shape {arr.shape}")
        return cls(steering=float(arr[0]), throttle=float(arr[1]))


def relative_distance(state: VehicleState, point: tuple[float, float]) -> float:
    """Euclidean distance from the vehicle reference point to ``point``."""
    return math.hypot(point[0] - state.x_m, point[1] - state.y_m)


def relative_bearing(state: VehicleState, point: tuple[float, float]) -> float:
    """Bearing of ``point`` relative to the vehicle heading, in (-pi, pi].

    A bearing of zero means the point lies dead ahead; positive bearings are
    to the left of the heading direction.
    """
    angle_to_point = math.atan2(point[1] - state.y_m, point[0] - state.x_m)
    return wrap_angle(angle_to_point - state.heading_rad)


def relative_view(
    state: VehicleState, point: tuple[float, float]
) -> tuple[float, float]:
    """Return ``(distance, bearing)`` of a point relative to the vehicle.

    This is the (distance to obstacle, relative orientation angle) pair that
    the paper's safety filter and deadline lookup table consume (Section IV-B
    and IV-C).
    """
    return relative_distance(state, point), relative_bearing(state, point)
