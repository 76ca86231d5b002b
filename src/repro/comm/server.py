"""Edge-server service-time model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.platform.compute import ComputeProfile
from repro.platform.presets import EDGE_SERVER_RESNET152

# Seed of the private generator used when no external one is supplied.
_SEED = 0


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
        self._rng = np.random.default_rng(_SEED)

    @property
    def rng(self) -> np.random.Generator:
        """The private generator used when no external one is supplied."""
        return self._rng

    def service_time_s(self, rng: np.random.Generator | None = None) -> float:
        """Sampled time from request arrival to response departure.

        Draws one standard exponential when the server has queueing jitter
        and none otherwise.
        """
        draw = 0.0
        if self.queueing_jitter_s > 0:
            generator = rng if rng is not None else self._rng
            draw = generator.standard_exponential()
        return float(self.service_time_from_exponential_s(draw))

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

    def reset(self) -> None:
        """Re-seed the private generator (restores determinism across runs)."""
        self._rng = np.random.default_rng(_SEED)
