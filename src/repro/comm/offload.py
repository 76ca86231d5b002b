"""Offload round-trip planning and outcome sampling.

Section V-A of the paper lists the two ingredients a safe offloading scheme
needs: (i) an estimate ``delta_hat`` of the server response time used to skip
offloads that cannot meet the deadline, and (ii) a fallback that re-invokes
the local model when an issued offload is late because of wireless
uncertainty.  :class:`OffloadPlanner` provides both: a deterministic planning
estimate and a stochastic per-offload outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.comm.link import WirelessLink
from repro.comm.server import EdgeServer
from repro.contracts import kernel_contract


@dataclass(frozen=True)
class OffloadOutcome:
    """The realized outcome of a single offload attempt.

    Attributes:
        transmission_time_s: Sampled uplink transmission time ``T_tx``.
        round_trip_s: Total time from issuing the offload to receiving the
            server response.
        transmission_energy_j: Radio energy spent on the uplink.
        response_periods: Round trip expressed in base periods (ceiling).
    """

    transmission_time_s: float
    round_trip_s: float
    transmission_energy_j: float
    response_periods: int


@dataclass
class OffloadPlanner:
    """Plans and samples offload round trips for a fixed payload size.

    Attributes:
        link: Wireless uplink model.
        server: Edge server model.
        payload_bytes: Uplink payload per offloaded inference (a compressed
            camera frame / feature tensor).
    """

    link: WirelessLink = field(default_factory=WirelessLink)
    server: EdgeServer = field(default_factory=EdgeServer)
    payload_bytes: int = 28_000

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")

    # ------------------------------------------------------------------
    # Planning estimate (delta_hat)
    # ------------------------------------------------------------------
    def expected_round_trip_s(self) -> float:
        """Expected offload round trip used for planning."""
        return (
            self.link.expected_transmission_time_s(self.payload_bytes)
            + self.server.expected_service_time_s()
        )

    def estimated_response_periods(self, tau_s: float) -> int:
        """``delta_hat``: the expected round trip in base periods (ceiling)."""
        if tau_s <= 0:
            raise ValueError("tau_s must be positive")
        return max(1, math.ceil(self.expected_round_trip_s() / tau_s))

    # ------------------------------------------------------------------
    # Realized outcome
    # ------------------------------------------------------------------
    @property
    def draws_per_sample(self) -> int:
        """Standard-exponential draws one offload consumes (rate, then jitter)."""
        return 2 if self.server.queueing_jitter_s > 0 else 1

    @kernel_contract(
        exp_draws="(M, D) float64",
        returns=("(M,) float64", "(M,) float64", "(M,) float64", "(M,) int64"),
    )
    def sample_batch(
        self, tau_s: float, exp_draws: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Offload outcomes from standard-exponential draws, one row each.

        Column 0 of ``exp_draws`` drives the channel rate
        (:meth:`~repro.comm.channel.RayleighChannel.rate_bps_from_exponential`);
        column 1, present when the server has queueing jitter
        (:attr:`draws_per_sample`), drives the service time
        (:meth:`~repro.comm.server.EdgeServer.service_time_from_exponential_s`).
        Row ``m`` therefore equals the outcome of :meth:`sample` on a
        generator whose next standard-exponential draws are
        ``exp_draws[m]``, bit for bit.

        Returns:
            ``(transmission_time_s, round_trip_s, transmission_energy_j,
            response_periods)`` arrays, the fields of :class:`OffloadOutcome`.
        """
        if tau_s <= 0:
            raise ValueError("tau_s must be positive")
        exp_draws = np.asarray(exp_draws, dtype=float)
        rate_bps = self.link.channel.rate_bps_from_exponential(exp_draws[:, 0])
        transmission_time = self.link.transmission_time_at_rate_s(
            self.payload_bytes, rate_bps
        )
        if self.draws_per_sample == 2:
            wait_draws = exp_draws[:, 1]
        else:
            wait_draws = np.zeros(exp_draws.shape[0], dtype=float)
        service = self.server.service_time_from_exponential_s(wait_draws)
        round_trip = transmission_time + service
        energy = self.link.transmission_energy_j(transmission_time)
        periods = np.maximum(1.0, np.ceil(round_trip / tau_s)).astype(np.int64)
        return transmission_time, round_trip, energy, periods

    def sample(
        self, tau_s: float, rng: np.random.Generator | None = None
    ) -> OffloadOutcome:
        """Sample one offload round trip (1-element view of :meth:`sample_batch`).

        Args:
            tau_s: Base period used to express the round trip in periods.
            rng: Random generator; when omitted the link / server private
                generators are used.
        """
        if tau_s <= 0:
            raise ValueError("tau_s must be positive")
        link_rng = rng if rng is not None else self.link.channel.rng
        draws = [link_rng.standard_exponential()]
        if self.draws_per_sample == 2:
            server_rng = rng if rng is not None else self.server.rng
            draws.append(server_rng.standard_exponential())
        transmission_time, round_trip, energy, periods = self.sample_batch(
            tau_s, np.array([draws], dtype=float)
        )
        return OffloadOutcome(
            transmission_time_s=float(transmission_time[0]),
            round_trip_s=float(round_trip[0]),
            transmission_energy_j=float(energy[0]),
            response_periods=int(periods[0]),
        )
