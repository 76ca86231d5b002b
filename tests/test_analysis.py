"""Tests for the analysis layer (metrics, histograms, tables)."""

import numpy as np
import pytest

from repro.analysis.histograms import delta_histogram
from repro.analysis.metrics import aggregate_reports, mean_and_std
from repro.analysis.tables import format_table
from repro.core.framework import EpisodeReport


def _report(
    episode=0, success=True, gain_fast=0.5, gain_slow=0.3, delta_samples=(4, 3, 2)
) -> EpisodeReport:
    report = EpisodeReport(episode=episode)
    report.steps = 100
    report.completed = success
    report.collided = not success
    report.delta_max_samples = list(delta_samples)
    report.gain_by_model = {"det-fast": gain_fast, "det-slow": gain_slow}
    report.energy_by_model_j = {"det-fast": 1.0 - gain_fast, "det-slow": 1.0 - gain_slow}
    report.baseline_by_model_j = {"det-fast": 1.0, "det-slow": 1.0}
    report.overall_gain = 0.5 * (gain_fast + gain_slow)
    report.shield_interventions = 3
    report.offloads_issued = 10
    report.offload_deadline_misses = 1
    return report


class TestMeanAndStd:
    def test_empty_sequence(self):
        assert mean_and_std([]) == (0.0, 0.0)

    def test_simple_values(self):
        mean, std = mean_and_std([1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_accepts_numpy_arrays(self):
        import numpy as np

        # Regression: `if not values:` raised "truth value is ambiguous" here.
        mean, std = mean_and_std(np.array([1.0, 3.0]))
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)
        assert mean_and_std(np.array([])) == (0.0, 0.0)


class TestAggregateReports:
    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            aggregate_reports([])

    def test_basic_aggregation(self):
        summary = aggregate_reports([_report(0, gain_fast=0.4), _report(1, gain_fast=0.6)])
        assert summary.episodes == 2
        assert summary.successful_episodes == 2
        assert summary.success_rate == 1.0
        assert summary.gain_for("det-fast") == pytest.approx(0.5)
        assert summary.model_gains["det-fast"].mean_gain == pytest.approx(0.5)
        assert summary.average_model_gain == pytest.approx(0.5 * (0.5 + 0.3))
        assert summary.offloads_issued == 20

    def test_only_successful_filtering(self):
        reports = [_report(0, success=True, gain_fast=0.5), _report(1, success=False, gain_fast=0.0)]
        summary = aggregate_reports(reports, only_successful=True)
        assert summary.successful_episodes == 1
        assert summary.gain_for("det-fast") == pytest.approx(0.5)
        assert summary.collision_episodes == 1

    def test_falls_back_to_all_when_none_succeed(self):
        reports = [_report(0, success=False), _report(1, success=False)]
        summary = aggregate_reports(reports, only_successful=True)
        assert summary.successful_episodes == 0
        assert summary.gain_for("det-fast") == pytest.approx(0.5)

    def test_delta_samples_are_pooled(self):
        summary = aggregate_reports(
            [_report(0, delta_samples=(4, 4)), _report(1, delta_samples=(1,))]
        )
        assert sorted(summary.delta_max_samples) == [1, 4, 4]

    def test_unknown_model_gain_is_zero(self):
        summary = aggregate_reports([_report(0)])
        assert summary.gain_for("missing") == 0.0


class TestDeltaHistogram:
    def test_counts_and_frequencies(self):
        histogram = delta_histogram([1, 2, 2, 4, 4, 4], max_delta=4)
        assert histogram.counts == {0: 0, 1: 1, 2: 2, 3: 0, 4: 3}
        assert all(type(count) is int for count in histogram.counts.values())
        assert histogram.frequency(2) == pytest.approx(2 / 6)
        assert sum(histogram.frequencies.values()) == pytest.approx(1.0)

    def test_matches_a_per_sample_reference(self):
        samples = np.random.default_rng(7).integers(-2, 8, size=500).tolist()
        counts = dict.fromkeys(range(5), 0)
        for sample in samples:
            counts[min(max(sample, 0), 4)] += 1
        histogram = delta_histogram(samples, max_delta=4)
        assert histogram.counts == counts
        assert histogram.frequencies == {delta: count / 500 for delta, count in counts.items()}

    def test_values_above_max_are_clamped(self):
        histogram = delta_histogram([7, 8], max_delta=4)
        assert histogram.counts[4] == 2

    def test_mean(self):
        histogram = delta_histogram([2, 4], max_delta=4)
        assert histogram.mean() == pytest.approx(3.0)

    def test_empty_samples(self):
        histogram = delta_histogram([], max_delta=4)
        assert histogram.mean() == 0.0
        assert all(frequency == 0.0 for frequency in histogram.frequencies.values())

    def test_rejects_bad_max_delta(self):
        with pytest.raises(ValueError):
            delta_histogram([1], max_delta=0)


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["b", 2]], title="demo")
        assert "demo" in text
        assert "name" in text and "value" in text
        assert "1.235" in text
        assert "b" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows_is_fine(self):
        text = format_table(["a"], [])
        assert "a" in text
