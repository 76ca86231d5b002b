"""Table I: offloading and gating energy gains over local at tau = 25 ms.

The paper repeats the Fig. 5 experiment with a larger base period (25 ms) as
"a case of more limited hardware settings" and reports, per method and
control case, the gains of the p = tau and p = 2 tau detectors and their
average (21.1 % / 14.5 % average for filtered offloading / gating).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.analysis.tables import format_table
from repro.experiments.common import Cells, ExperimentSettings, Reports
from repro.experiments.fig5 import fig5_cells

#: Table I's larger base period (25 ms).
TABLE1_TAU_S = 0.025


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I."""

    method: str
    filtered: bool
    gain_p1: float
    gain_p2: float

    @property
    def average_gain(self) -> float:
        """Average of the two detector gains (the paper's last column)."""
        return 0.5 * (self.gain_p1 + self.gain_p2)


@dataclass
class Table1Result:
    """All rows of Table I."""

    tau_s: float
    rows: list[Table1Row] = field(default_factory=list)
    summaries: dict[tuple[str, bool], RunSummary] = field(default_factory=dict)

    def row(self, method: str, filtered: bool) -> Table1Row:
        """Return the row for one (method, control) combination."""
        for row in self.rows:
            if row.method == method and row.filtered == filtered:
                return row
        raise KeyError((method, filtered))

    def to_table(self) -> str:
        """Render Table I as text."""
        rendered = [
            [
                row.method,
                "filtered" if row.filtered else "unfiltered",
                100.0 * row.gain_p1,
                100.0 * row.gain_p2,
                100.0 * row.average_gain,
            ]
            for row in self.rows
        ]
        return format_table(
            ["mode", "control", "(p=tau) gains [%]", "(p=2tau) gains [%]", "average [%]"],
            rendered,
            title=f"Table I — gains over local at tau = {self.tau_s * 1e3:.0f} ms",
        )


def table1_cells(settings: ExperimentSettings) -> Cells:
    """Table I's cells: Fig. 5's (both methods, both control cases) at 25 ms."""
    return fig5_cells(settings, TABLE1_TAU_S)


def table1_result(reports_by_label: Reports) -> Table1Result:
    """Table I from the reports of :func:`table1_cells`."""
    result = Table1Result(tau_s=TABLE1_TAU_S)
    for (method, filtered), reports in reports_by_label.items():
        summary = result.summaries[(method, filtered)] = aggregate_reports(reports)
        names = sorted(summary.model_gains)
        result.rows.append(
            Table1Row(
                method=method,
                filtered=filtered,
                gain_p1=summary.gain_for(names[0]) if names else 0.0,
                gain_p2=summary.gain_for(names[1]) if len(names) > 1 else 0.0,
            )
        )
    return result
