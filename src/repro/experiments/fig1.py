"""Fig. 1: motivational example — normalized gating energy vs. risk level.

The paper's motivating figure shows, for two detector models running at
50 Hz and 25 Hz, how the normalized ADS energy consumption under gating
optimizations grows with the perceived risk (the number of obstacles along
the route): at low risk the safety deadline is long and most periods can be
gated; at high risk the deadline collapses and the models run near full
operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.analysis.tables import format_table
from repro.experiments.common import Cells, ExperimentSettings, Reports, standard_config

FIG1_OBSTACLE_COUNTS = (0, 1, 2, 3, 4)


@dataclass
class Fig1Result:
    """Normalized energy per detector across risk levels."""

    #: normalized_energy[(model name, #obstacles)] -> optimized / baseline energy
    normalized_energy: dict[tuple[str, int], float] = field(default_factory=dict)
    summaries: dict[int, RunSummary] = field(default_factory=dict)

    def series(self, model: str) -> list[tuple[int, float]]:
        """The (num_obstacles, normalized energy) series of one detector."""
        points = [
            (count, energy)
            for (name, count), energy in self.normalized_energy.items()
            if name == model
        ]
        return sorted(points)

    def to_table(self) -> str:
        """Render the figure data as text."""
        models = sorted({name for name, _ in self.normalized_energy})
        rows = []
        counts = sorted({count for _, count in self.normalized_energy})
        for count in counts:
            rows.append(
                [count]
                + [self.normalized_energy[(model, count)] for model in models]
            )
        return format_table(
            ["#obstacles"] + [f"{model} (normalized energy)" for model in models],
            rows,
            title="Fig. 1 — safety-aware gating: normalized energy vs. risk",
        )


def fig1_cells(settings: ExperimentSettings) -> Cells:
    """Fig. 1's cells (model gating, filtered control), by obstacle count."""
    return {
        count: standard_config(
            settings, optimization="model_gating", filtered=True, num_obstacles=count
        )
        for count in FIG1_OBSTACLE_COUNTS
    }


def fig1_result(reports_by_label: Reports) -> Fig1Result:
    """Fig. 1 from the reports of :func:`fig1_cells`."""
    result = Fig1Result()
    for count, reports in reports_by_label.items():
        summary = result.summaries[count] = aggregate_reports(reports)
        for name, gain_summary in summary.model_gains.items():
            result.normalized_energy[(name, count)] = 1.0 - gain_summary.mean_gain
    return result
