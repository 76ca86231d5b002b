"""Table I: offloading and gating energy gains over local at tau = 25 ms.

The paper repeats the Fig. 5 experiment with a larger base period (25 ms) as
"a case of more limited hardware settings" and reports, per method and
control case, the gains of the p = tau and p = 2 tau detectors and their
average (21.1 % / 14.5 % average for filtered offloading / gating).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import RunSummary
from repro.analysis.tables import format_table
from repro.experiments.common import (
    ExperimentSettings,
    run_summaries,
    standard_config,
)

TABLE1_METHODS = ("offload", "model_gating")


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


def run_table1(
    settings: ExperimentSettings = ExperimentSettings(), tau_s: float = 0.025
) -> Table1Result:
    """Regenerate Table I (tau = 25 ms)."""
    cells = {
        (method, filtered): standard_config(
            settings, optimization=method, filtered=filtered, tau_s=tau_s
        )
        for method in TABLE1_METHODS
        for filtered in (False, True)
    }
    result = Table1Result(tau_s=tau_s)
    for (method, filtered), summary in run_summaries(cells, settings).items():
        result.summaries[(method, filtered)] = summary
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
