"""Edge-server service-time model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.platform.compute import ComputeProfile
from repro.platform.presets import EDGE_SERVER_RESNET152


@dataclass
class EdgeServer:
    """A nearby edge server executing offloaded inferences.

    Attributes:
        profile: Compute profile of the offloaded model on the server; only
            the latency matters to the vehicle (server energy is not drawn
            from the vehicle battery).
        queueing_jitter_s: Scale of an exponential queueing delay added to
            the deterministic service time, modelling server load variation.
        downlink_time_s: Time to return the (small) prediction payload.
    """

    profile: ComputeProfile = EDGE_SERVER_RESNET152
    queueing_jitter_s: float = 0.002
    downlink_time_s: float = 0.001

    def __post_init__(self) -> None:
        if self.queueing_jitter_s < 0:
            raise ValueError("queueing_jitter_s must be non-negative")
        if self.downlink_time_s < 0:
            raise ValueError("downlink_time_s must be non-negative")

    def service_time_from_exponential_s(self, draws: ArrayLike) -> np.ndarray:
        """Service times from standard-exponential draws (one per request).

        ``Generator.exponential(s)`` is ``s * standard_exponential()``, so
        this equals a sampled service time bit for bit.  With no queueing
        jitter the draws are multiplied by 0 and any finite value works.
        """
        jitter = self.queueing_jitter_s * np.asarray(draws, dtype=float)
        return (self.profile.latency_s + jitter) + self.downlink_time_s

    def expected_service_time_s(self) -> float:
        """Planning estimate of the service time (mean queueing delay)."""
        return self.profile.latency_s + self.queueing_jitter_s + self.downlink_time_s
