"""Wireless link: transmission latency and radio energy for a payload."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from repro.comm.channel import RayleighChannel
from repro.platform.presets import WIFI_TX_POWER_W


@dataclass
class WirelessLink:
    """A Wi-Fi uplink used to offload perception inputs.

    Attributes:
        channel: Stochastic data-rate model.
        tx_power_w: Radio transmit power ``P_tx`` (eq. 7).
        overhead_s: Fixed per-transfer protocol overhead added to the
            payload transmission time (association, headers, ACKs).
    """

    channel: RayleighChannel = field(default_factory=RayleighChannel)
    tx_power_w: float = WIFI_TX_POWER_W
    overhead_s: float = 0.001

    def __post_init__(self) -> None:
        if self.tx_power_w < 0:
            raise ValueError("tx_power_w must be non-negative")
        if self.overhead_s < 0:
            raise ValueError("overhead_s must be non-negative")

    def transmission_time_at_rate_s(
        self, payload_bytes: int, rate_bps: ArrayLike
    ) -> np.ndarray:
        """``T_tx`` of a ``payload_bytes`` payload at each given data rate."""
        return self.overhead_s + (payload_bytes * 8.0) / np.asarray(rate_bps, dtype=float)

    def expected_transmission_time_s(self, payload_bytes: int) -> float:
        """Planning estimate of ``T_tx`` using the channel's expected rate."""
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        return self.overhead_s + (payload_bytes * 8.0) / self.channel.expected_rate_bps

    def transmission_energy_j(self, transmission_time_s: ArrayLike) -> np.ndarray:
        """Radio energy ``E_omega = T_tx * P_tx`` for each transmission time."""
        transmission_time = np.asarray(transmission_time_s, dtype=float)
        if (transmission_time < 0).any():
            raise ValueError("transmission_time_s must be non-negative")
        return transmission_time * self.tx_power_w
