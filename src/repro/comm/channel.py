"""Stochastic wireless channel models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike


@dataclass
class RayleighChannel:
    """Effective data rate sampled from a Rayleigh distribution.

    The paper assumes "a Wi-Fi link in which effective data rate values are
    sampled from a Rayleigh channel distribution model with scale 20 Mbps"
    (Section VI-A).  A floor keeps pathological near-zero draws from stalling
    the simulation; it corresponds to the link's minimum modulation rate.

    Attributes:
        scale_mbps: Rayleigh scale parameter in Mbit/s.
        min_rate_mbps: Lower bound applied to sampled rates.
    """

    scale_mbps: float = 20.0
    min_rate_mbps: float = 1.0

    def __post_init__(self) -> None:
        if self.scale_mbps <= 0:
            raise ValueError("scale_mbps must be positive")
        if self.min_rate_mbps <= 0:
            raise ValueError("min_rate_mbps must be positive")

    @property
    def mean_rate_bps(self) -> float:
        """Mean of the Rayleigh rate distribution, in bit/s."""
        return float(self.scale_mbps * np.sqrt(np.pi / 2.0) * 1e6)

    @property
    def expected_rate_bps(self) -> float:
        """Rate estimate used for planning (the distribution mean)."""
        return self.mean_rate_bps

    def rate_bps_from_exponential(self, draws: ArrayLike) -> np.ndarray:
        """Effective data rates in bit/s from standard-exponential draws.

        ``Generator.rayleigh(s)`` is ``s * sqrt(2 * standard_exponential())``,
        so this equals a sampled rate bit for bit.
        """
        rate_mbps = self.scale_mbps * np.sqrt(2.0 * np.asarray(draws, dtype=float))
        return np.maximum(self.min_rate_mbps, rate_mbps) * 1e6
