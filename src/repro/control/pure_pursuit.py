"""Pure-pursuit lane follower (obstacle-blind baseline controller).

This controller tracks the lane centre line with a pure-pursuit steering law
and holds a constant cruise speed.  It ignores obstacles entirely, which makes
it useful for exercising the safety filter: with the shield disabled it will
collide on obstacle-laden routes, with the shield enabled it should not.

The tracking runs in the road's Frenet frame (lateral offset and heading
error relative to the centreline), so the same law follows straight and
curved roads; the centreline curvature enters as a feedforward term on top
of the pursuit curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.contracts import kernel_contract


@dataclass
class PurePursuitController:
    """Pure-pursuit tracking of the straight lane centre line.

    Attributes:
        target_speed_mps: Cruise speed.
        lookahead_m: Pure-pursuit lookahead distance.
        wheelbase_m: Vehicle wheelbase used in the curvature law.
        max_steer_rad: Steering angle corresponding to a full-scale command.
        speed_gain: Throttle gain on the speed error.
    """

    target_speed_mps: float = 8.0
    lookahead_m: float = 8.0
    wheelbase_m: float = 2.7
    max_steer_rad: float = math.radians(35.0)
    speed_gain: float = 0.5

    @kernel_contract(
        speeds_mps="(N,) float64",
        target_speeds_mps="(N,) float64",
        lateral_offsets_m="(N,) float64",
        headings_rad="(N,) float64",
        road_curvatures_per_m="(N,) float64",
        returns=("(N,) float64", "(N,) float64"),
    )
    def act_batch(
        self,
        speeds_mps: np.ndarray,
        target_speeds_mps: np.ndarray,
        lateral_offsets_m: np.ndarray,
        headings_rad: np.ndarray,
        road_curvatures_per_m: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized pure-pursuit law over ``(N,)`` Frenet-pose arrays.

        Returns ``(steering, throttle)`` arrays, both clipped to [-1, 1].
        """
        # Lookahead point on the centre line, expressed in the road-aligned
        # vehicle frame (Frenet offsets); the centreline curvature is fed
        # forward so curved roads are tracked without a steady-state error.
        dx = self.lookahead_m
        dy = -np.asarray(lateral_offsets_m, dtype=float)
        alpha = np.arctan2(dy, dx) - np.asarray(headings_rad, dtype=float)
        curvature = 2.0 * np.sin(alpha) / self.lookahead_m + np.asarray(
            road_curvatures_per_m, dtype=float
        )
        steer_rad = np.arctan(curvature * self.wheelbase_m)
        steering = steer_rad / self.max_steer_rad
        throttle = self.speed_gain * (
            np.asarray(target_speeds_mps, dtype=float)
            - np.asarray(speeds_mps, dtype=float)
        )
        return (
            np.minimum(np.maximum(steering, -1.0), 1.0),
            np.minimum(np.maximum(throttle, -1.0), 1.0),
        )
