"""Tests for the wireless offloading substrate."""

import numpy as np
import pytest

from repro.comm.channel import RayleighChannel
from repro.comm.link import WirelessLink
from repro.comm.offload import OffloadPlanner
from repro.comm.server import EdgeServer


class TestRayleighChannel:
    def test_sampled_rates_are_positive_and_floored(self):
        channel = RayleighChannel(scale_mbps=20.0, min_rate_mbps=1.0, seed=0)
        rates = [channel.sample_rate_bps() for _ in range(200)]
        assert min(rates) >= 1e6

    def test_mean_matches_rayleigh_expectation(self):
        channel = RayleighChannel(scale_mbps=20.0, seed=1)
        rng = np.random.default_rng(1)
        rates = [channel.sample_rate_bps(rng) for _ in range(4000)]
        assert np.mean(rates) == pytest.approx(channel.mean_rate_bps, rel=0.05)

    def test_reset_restores_sequence(self):
        channel = RayleighChannel(seed=3)
        first = [channel.sample_rate_bps() for _ in range(5)]
        channel.reset()
        second = [channel.sample_rate_bps() for _ in range(5)]
        assert first == second

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RayleighChannel(scale_mbps=0.0)
        with pytest.raises(ValueError):
            RayleighChannel(min_rate_mbps=0.0)


class TestWirelessLink:
    def test_expected_transmission_time_scales_with_payload(self):
        link = WirelessLink()
        small = link.expected_transmission_time_s(10_000)
        large = link.expected_transmission_time_s(100_000)
        assert large > small

    def test_transmission_energy(self):
        link = WirelessLink(tx_power_w=1.3)
        assert link.transmission_energy_j(0.01) == pytest.approx(0.013)

    def test_rejects_invalid_arguments(self):
        link = WirelessLink()
        with pytest.raises(ValueError):
            link.transmission_time_s(0)
        with pytest.raises(ValueError):
            link.transmission_energy_j(-1.0)
        with pytest.raises(ValueError):
            WirelessLink(tx_power_w=-1.0)

    def test_sampled_time_includes_overhead(self):
        link = WirelessLink(overhead_s=0.005)
        rng = np.random.default_rng(0)
        assert link.transmission_time_s(10_000, rng) >= 0.005


class TestEdgeServer:
    def test_expected_service_time(self):
        server = EdgeServer()
        expected = (
            server.profile.latency_s + server.queueing_jitter_s + server.downlink_time_s
        )
        assert server.expected_service_time_s() == pytest.approx(expected)

    def test_sampled_time_at_least_deterministic_part(self):
        server = EdgeServer()
        rng = np.random.default_rng(0)
        assert server.service_time_s(rng) >= server.profile.latency_s

    def test_unseeded_jitter_varies_and_reset_replays_it(self):
        server = EdgeServer()
        first = [server.service_time_s() for _ in range(3)]
        assert len(set(first)) == 3
        server.reset()
        assert [server.service_time_s() for _ in range(3)] == first

    def test_zero_jitter_is_deterministic(self):
        server = EdgeServer(queueing_jitter_s=0.0)
        assert server.service_time_s() == pytest.approx(
            server.profile.latency_s + server.downlink_time_s
        )


class TestOffloadPlanner:
    def test_estimated_response_periods_at_least_one(self):
        planner = OffloadPlanner(payload_bytes=28_000)
        assert planner.estimated_response_periods(0.02) >= 1

    def test_larger_payload_does_not_reduce_estimate(self):
        small = OffloadPlanner(payload_bytes=10_000)
        large = OffloadPlanner(payload_bytes=200_000)
        assert large.estimated_response_periods(0.02) >= small.estimated_response_periods(0.02)

    def test_sample_consistency(self):
        planner = OffloadPlanner(payload_bytes=28_000)
        rng = np.random.default_rng(0)
        outcome = planner.sample(0.02, rng)
        assert outcome.round_trip_s > outcome.transmission_time_s
        assert outcome.transmission_energy_j == pytest.approx(
            planner.link.transmission_energy_j(outcome.transmission_time_s)
        )
        assert outcome.response_periods >= 1

    def test_sample_is_deterministic_for_seeded_rng(self):
        planner = OffloadPlanner(payload_bytes=28_000)
        first = planner.sample(0.02, np.random.default_rng(5))
        second = planner.sample(0.02, np.random.default_rng(5))
        assert first == second

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            OffloadPlanner(payload_bytes=0)
        planner = OffloadPlanner()
        with pytest.raises(ValueError):
            planner.sample(0.0)
        with pytest.raises(ValueError):
            planner.estimated_response_periods(-1.0)
