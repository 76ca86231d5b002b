"""Table II: average energy gains and delta_max under obstacle variation.

For tau = 20 ms, both control cases, and 0 / 2 / 4 obstacles, the paper
reports the offloading gain, the gating gain (both averaged over the two
detectors) and the mean sampled ``delta_max``.  The headline trends are that
all three quantities drop as risk increases, and that the filtered case
saturates for two or more obstacles because the safety filter enforces a
minimum obstacle distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.analysis.tables import format_table
from repro.experiments.common import Cells, ExperimentSettings, Reports, run_batch, standard_config

TABLE2_OBSTACLE_COUNTS = (0, 2, 4)


@dataclass(frozen=True)
class Table2Row:
    """One row of Table II."""

    filtered: bool
    num_obstacles: int
    offloading_gain: float
    gating_gain: float
    mean_delta_max: float


@dataclass
class Table2Result:
    """All rows of Table II."""

    tau_s: float
    rows: list[Table2Row] = field(default_factory=list)
    summaries: dict[tuple[str, bool, int], RunSummary] = field(default_factory=dict)

    def row(self, filtered: bool, num_obstacles: int) -> Table2Row:
        """Return the row for one (control, #obstacles) combination."""
        for row in self.rows:
            if row.filtered == filtered and row.num_obstacles == num_obstacles:
                return row
        raise KeyError((filtered, num_obstacles))

    def to_table(self) -> str:
        """Render Table II as text."""
        rendered = [
            [
                "filtered" if row.filtered else "unfiltered",
                row.num_obstacles,
                100.0 * row.offloading_gain,
                100.0 * row.gating_gain,
                row.mean_delta_max,
            ]
            for row in self.rows
        ]
        return format_table(
            ["control", "#obstacles", "offloading gains [%]", "gating gains [%]", "delta_max"],
            rendered,
            title=(
                "Table II — average gains and delta_max at "
                f"tau = {self.tau_s * 1e3:.0f} ms under obstacle variation"
            ),
        )


def table2_cells(
    settings: ExperimentSettings,
    tau_s: float = 0.02,
    obstacle_counts: tuple[int, ...] = TABLE2_OBSTACLE_COUNTS,
) -> Cells:
    """Table II's cells: both methods, both control cases, each obstacle count."""
    return {
        (method, filtered, count): standard_config(
            settings,
            optimization=method,
            filtered=filtered,
            tau_s=tau_s,
            num_obstacles=count,
        )
        for filtered in (False, True)
        for count in obstacle_counts
        for method in ("offload", "model_gating")
    }


def table2_result(
    reports_by_label: Reports,
    tau_s: float = 0.02,
    obstacle_counts: tuple[int, ...] = TABLE2_OBSTACLE_COUNTS,
) -> Table2Result:
    """Table II from the reports of :func:`table2_cells`."""
    result = Table2Result(tau_s=tau_s)
    for cell, reports in reports_by_label.items():
        result.summaries[cell] = aggregate_reports(reports)
    for filtered in (False, True):
        for count in obstacle_counts:
            offload = result.summaries[("offload", filtered, count)]
            gating = result.summaries[("model_gating", filtered, count)]
            # The reported delta_max column comes from the gating run (the
            # last method of the pre-sweep serial loop, kept for parity).
            result.rows.append(
                Table2Row(
                    filtered=filtered,
                    num_obstacles=count,
                    offloading_gain=offload.average_model_gain,
                    gating_gain=gating.average_model_gain,
                    mean_delta_max=gating.mean_delta_max,
                )
            )
    return result


def run_table2(
    settings: ExperimentSettings = ExperimentSettings(),
    tau_s: float = 0.02,
    obstacle_counts: tuple[int, ...] = TABLE2_OBSTACLE_COUNTS,
) -> Table2Result:
    """Regenerate Table II."""
    cells = table2_cells(settings, tau_s, obstacle_counts)
    return table2_result(run_batch(cells, settings), tau_s, obstacle_counts)
