"""Fig. 6: delta_max histograms and average efficiency vs. risk level.

The paper varies the number of obstacles on the route (0 / 2 / 4), keeps the
control unfiltered, and reports for offloading (left) and model gating
(right) a histogram of the sampled ``delta_max`` values together with the
average energy-efficiency gain over the two detectors (e.g. 88.6 % / 24.6 % /
16.8 % for offloading and 42.9 % / 17.5 % / 11.9 % for gating).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.histograms import DeltaHistogram, delta_histogram
from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.analysis.tables import format_table
from repro.experiments.common import Cells, ExperimentSettings, Reports, run_batch, standard_config

FIG6_METHODS = ("offload", "model_gating")
FIG6_OBSTACLE_COUNTS = (0, 2, 4)


@dataclass
class Fig6Result:
    """Histograms and average gains per (method, #obstacles)."""

    filtered: bool
    histograms: dict[tuple[str, int], DeltaHistogram] = field(default_factory=dict)
    average_gains: dict[tuple[str, int], float] = field(default_factory=dict)
    summaries: dict[tuple[str, int], RunSummary] = field(default_factory=dict)

    def histogram(self, method: str, num_obstacles: int) -> DeltaHistogram:
        """Histogram of sampled ``delta_max`` for one configuration."""
        return self.histograms[(method, num_obstacles)]

    def to_table(self, max_delta: int = 4) -> str:
        """Render the figure data (frequencies and gains) as text.

        The ``dmax=0`` column (fully unsafe samples, which the paper's
        histogram leaves out) makes each row's frequencies sum to 100%.
        """
        rows: list[list[object]] = []
        for (method, count), histogram in sorted(self.histograms.items()):
            frequencies = [
                100.0 * histogram.frequency(delta) for delta in range(max_delta + 1)
            ]
            rows.append(
                [method, count]
                + frequencies
                + [100.0 * self.average_gains[(method, count)]]
            )
        headers = ["method", "#obstacles"] + [
            f"freq(dmax={delta}) [%]" for delta in range(max_delta + 1)
        ] + ["avg gain [%]"]
        control = "filtered" if self.filtered else "unfiltered"
        return format_table(
            headers, rows, title=f"Fig. 6 — delta_max distribution vs. risk ({control})"
        )


def fig6_cells(
    settings: ExperimentSettings,
    filtered: bool = False,
    obstacle_counts: tuple[int, ...] = FIG6_OBSTACLE_COUNTS,
) -> Cells:
    """Fig. 6's cells: both methods at each obstacle count."""
    return {
        (method, count): standard_config(
            settings,
            optimization=method,
            filtered=filtered,
            num_obstacles=count,
        )
        for method in FIG6_METHODS
        for count in obstacle_counts
    }


def fig6_result(reports_by_label: Reports, filtered: bool = False) -> Fig6Result:
    """Fig. 6 from the reports of :func:`fig6_cells`."""
    result = Fig6Result(filtered=filtered)
    for cell, reports in reports_by_label.items():
        summary = result.summaries[cell] = aggregate_reports(reports)
        result.histograms[cell] = delta_histogram(summary.delta_max_samples)
        result.average_gains[cell] = summary.average_model_gain
    return result


def run_fig6(
    settings: ExperimentSettings = ExperimentSettings(),
    filtered: bool = False,
    obstacle_counts: tuple[int, ...] = FIG6_OBSTACLE_COUNTS,
) -> Fig6Result:
    """Regenerate Fig. 6 (unfiltered by default, as in the paper)."""
    cells = fig6_cells(settings, filtered, obstacle_counts)
    return fig6_result(run_batch(cells, settings), filtered)
