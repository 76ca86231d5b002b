"""The safety filter ``Psi`` (paper Section III-A and IV-B).

The filter receives the raw control prediction ``u`` from the downstream
controller and the relative state ``x`` produced by the critical model
subset, and returns a filtered control ``u'``:

* when the system is safe (``h(x, u) >= margin``) the control passes through
  unchanged;
* otherwise a corrective behaviour ``psi(x; U)`` is applied — the shield
  steers away from the obstacle and brakes, the same corrective action family
  as the controller shield of ShieldNN [19] which filters steering angles for
  autonomous driving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.contracts import kernel_contract
from repro.core.safety import NO_OBSTACLE_DISTANCE_M


@dataclass
class SteeringShield:
    """Controller shield filtering steering/throttle commands.

    The shield reads ``h`` from its caller (the frame loop evaluates the
    barrier once per frame for every live row) and keeps no per-episode
    state.

    Attributes:
        intervention_margin_m: The shield intervenes while ``h`` is below this
            margin, not only when it is already negative; a positive margin
            makes the filtered system keep a healthier distance from
            obstacles (the behaviour the paper observes in Section VI-B).
        steer_authority: Magnitude of the corrective steering command.
        brake_authority: Magnitude of the corrective braking command.
        blend_band_m: Width of the band over which the correction is blended
            with the raw control.  The ramp starts at 0 where the
            intervention starts (``h = intervention_margin_m``) and reaches
            full override at ``h = max(0, intervention_margin_m -
            blend_band_m)`` — the band is capped at the margin so the blend
            is continuous and full override always holds at ``h <= 0``.
    """

    intervention_margin_m: float = 2.0
    steer_authority: float = 0.35
    brake_authority: float = 1.0
    blend_band_m: float = 3.0
    creep_speed_mps: float = 2.0

    def __post_init__(self) -> None:
        if self.intervention_margin_m < 0:
            raise ValueError("intervention_margin_m must be non-negative")
        if self.blend_band_m <= 0:
            raise ValueError("blend_band_m must be positive")

    @kernel_contract(
        h_values="(N,) float64",
        distances_m="(N,) float64",
        bearings_rad="(N,) float64",
        speeds_mps="(N,) float64",
        lateral_offsets_m="(N,) float64",
        road_half_widths_m="(N,) float64",
        steerings="(N,) float64",
        throttles="(N,) float64",
        returns=("(N,) float64", "(N,) float64", "(N,) bool"),
    )
    def filter_batch(
        self,
        h_values: np.ndarray,
        distances_m: np.ndarray,
        bearings_rad: np.ndarray,
        speeds_mps: np.ndarray,
        lateral_offsets_m: np.ndarray,
        road_half_widths_m: np.ndarray,
        steerings: np.ndarray,
        throttles: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized safety filter over ``(N,)`` state/control arrays.

        ``h_values`` is the barrier evaluated at each state (precomputed by
        the caller, so the kernel stays generic over safety functions).
        Returns ``(filtered_steering, filtered_throttle, intervened)``.
        The kernel is side-effect free: callers count the interventions.

        The composed action is never *less* evasive than the raw one: the
        steering component along the chosen evasive direction is the larger
        of the controller's and the shield's, and the throttle is the
        smaller (more braking) of the two.  The filtered action interpolates
        raw → fully-shielded with a severity that grows from 0 exactly at
        ``h = intervention_margin_m`` (so the correction is continuous where
        the intervention starts) to 1 at the end of the blend band, and
        saturates at (and below) ``h = 0``.  Exception: at creep speed the
        corrective throttle (small and positive) is applied in full as soon
        as the shield intervenes — anti-stall takes precedence over blend
        continuity, otherwise a braking controller could pin the blended
        throttle negative and freeze the vehicle inside the intervention
        band.
        """
        h_values = np.asarray(h_values, dtype=float)
        distances = np.asarray(distances_m, dtype=float)
        bearings = np.asarray(bearings_rad, dtype=float)
        speeds = np.asarray(speeds_mps, dtype=float)
        laterals = np.asarray(lateral_offsets_m, dtype=float)
        half_widths = np.asarray(road_half_widths_m, dtype=float)
        steerings = np.asarray(steerings, dtype=float)
        throttles = np.asarray(throttles, dtype=float)

        obstacle_present = distances < NO_OBSTACLE_DISTANCE_M
        passthrough = ~obstacle_present | (h_values >= self.intervention_margin_m)
        if np.count_nonzero(passthrough) == passthrough.size:
            # No row needs the shield: every raw action passes as it is,
            # which is what the blend below selects for passthrough rows.
            return steerings.copy(), throttles.copy(), np.zeros(passthrough.shape, dtype=bool)

        # A zero ramp band means the shield only ever acts at h < 0, where
        # the override is total.
        ramp_band_m = min(self.blend_band_m, self.intervention_margin_m)
        severity = (
            (self.intervention_margin_m - h_values) / ramp_band_m
            if ramp_band_m > 0.0
            else np.ones_like(h_values)
        )
        severity = np.minimum(1.0, np.maximum(0.0, severity))

        # The corrective behaviour ``psi``: steer away from the obstacle,
        # brake.  Braking is released below a small creep speed so the
        # filtered vehicle can still manoeuvre around the obstacle instead
        # of freezing in front of it (the admissible-action set ``U``
        # excludes a permanent stop).
        steer_direction = np.where(
            np.abs(bearings) > 1e-3, -np.copysign(1.0, bearings), 1.0
        )
        # Prefer the evasive side that keeps the vehicle on the road: if
        # steering away from the obstacle would push it near the road edge,
        # evade toward the lane centre instead.
        projected_offset = laterals + steer_direction * 2.0
        centre_direction = -np.copysign(1.0, np.where(laterals != 0.0, laterals, 1.0))
        steer_direction = np.where(
            np.abs(projected_offset) > 0.75 * half_widths,
            centre_direction,
            steer_direction,
        )
        # Obstacles behind the vehicle need no steering correction.
        ahead_weight = np.maximum(0.0, np.cos(bearings))
        creeping = speeds <= self.creep_speed_mps
        corrective_steering = np.where(
            creeping,
            steer_direction,
            steer_direction * self.steer_authority * ahead_weight,
        )
        corrective_throttle = np.where(
            creeping, 0.15, -self.brake_authority * ahead_weight
        )

        raw_along_away = steerings * steer_direction
        shielded_steering = steer_direction * np.maximum(
            raw_along_away, np.abs(corrective_steering)
        )
        blended_steering = (
            1.0 - severity
        ) * steerings + severity * shielded_steering
        shielded_throttle = np.minimum(throttles, corrective_throttle)
        blended_throttle = np.where(
            creeping,
            corrective_throttle,
            (1.0 - severity) * throttles + severity * shielded_throttle,
        )
        blended_steering = np.minimum(np.maximum(blended_steering, -1.0), 1.0)
        blended_throttle = np.minimum(np.maximum(blended_throttle, -1.0), 1.0)

        filtered_steering = np.where(passthrough, steerings, blended_steering)
        filtered_throttle = np.where(passthrough, throttles, blended_throttle)
        intervened = ~passthrough & (
            (filtered_steering != steerings) | (filtered_throttle != throttles)
        )
        return filtered_steering, filtered_throttle, intervened
