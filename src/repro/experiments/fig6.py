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
from repro.experiments.common import Cells, ExperimentSettings, Reports, standard_config

FIG6_METHODS = ("offload", "model_gating")
FIG6_OBSTACLE_COUNTS = (0, 2, 4)
#: Largest ``delta_max`` bucket of the histograms (larger samples clamp into it).
FIG6_MAX_DELTA = 4


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

    def to_table(self) -> str:
        """Render the figure data (frequencies and gains) as text.

        The ``dmax=0`` column (fully unsafe samples, which the paper's
        histogram leaves out) makes each row's frequencies sum to 100%.
        """
        rows: list[list[object]] = []
        for (method, count), histogram in sorted(self.histograms.items()):
            frequencies = [
                100.0 * histogram.frequency(delta) for delta in range(FIG6_MAX_DELTA + 1)
            ]
            rows.append(
                [method, count]
                + frequencies
                + [100.0 * self.average_gains[(method, count)]]
            )
        headers = ["method", "#obstacles"] + [
            f"freq(dmax={delta}) [%]" for delta in range(FIG6_MAX_DELTA + 1)
        ] + ["avg gain [%]"]
        control = "filtered" if self.filtered else "unfiltered"
        return format_table(
            headers, rows, title=f"Fig. 6 — delta_max distribution vs. risk ({control})"
        )


def fig6_cells(settings: ExperimentSettings) -> Cells:
    """Fig. 6's cells: both methods at each obstacle count, unfiltered as in the paper."""
    return {
        (method, count): standard_config(
            settings, optimization=method, filtered=False, num_obstacles=count
        )
        for method in FIG6_METHODS
        for count in FIG6_OBSTACLE_COUNTS
    }


def fig6_result(reports_by_label: Reports) -> Fig6Result:
    """Fig. 6 from the reports of :func:`fig6_cells`."""
    result = Fig6Result(filtered=False)
    for cell, reports in reports_by_label.items():
        summary = result.summaries[cell] = aggregate_reports(reports)
        result.histograms[cell] = delta_histogram(summary.delta_max_samples, FIG6_MAX_DELTA)
        result.average_gains[cell] = summary.average_model_gain
    return result
