"""Sensor power specifications.

Equation (8) of the paper separates a sensor's power draw into a mechanical
component ``P_mech`` (which cannot be gated — e.g. a LiDAR motor must keep
spinning) and a measurement component ``P_meas`` (which sensor gating can
switch off).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SensorPowerSpec:
    """Power rating of a physical sensor.

    Attributes:
        name: Sensor identifier, e.g. ``"zed-stereo-camera"``.
        measurement_power_w: Power of the measurement electronics (``P_meas``).
        mechanical_power_w: Residual mechanical power (``P_mech``), drawn even
            while the measurement is gated.
    """

    name: str
    measurement_power_w: float
    mechanical_power_w: float = 0.0

    def __post_init__(self) -> None:
        if self.measurement_power_w < 0:
            raise ValueError("measurement_power_w must be non-negative")
        if self.mechanical_power_w < 0:
            raise ValueError("mechanical_power_w must be non-negative")

    def sensing_energy_j(self, duration_s: float, measurement_on: bool = True) -> float:
        """Energy drawn by the sensor over ``duration_s`` seconds.

        Args:
            duration_s: Window length.
            measurement_on: Whether the measurement electronics are active;
                mechanical power is always drawn.
        """
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        power = self.mechanical_power_w
        if measurement_on:
            power += self.measurement_power_w
        return power * duration_s
