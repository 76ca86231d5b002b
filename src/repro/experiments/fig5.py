"""Fig. 5: energy gains vs. local execution at tau = 20 ms.

The paper reports, for the two ResNet-152 detectors (p = tau and p = 2 tau),
the energy gain relative to local execution under task offloading (left) and
model gating (right), each in the unfiltered and filtered control cases.
Paper values: offloading 65.9 % / 24.1 % (p = tau, filtered/unfiltered) and
20.3 % / ~8 % (p = 2 tau); gating 37.2 % / 22.7 % and ~9.5 % / ~8 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.analysis.tables import format_table
from repro.experiments.common import Cells, ExperimentSettings, Reports, run_batch, standard_config

#: The two optimization methods compared in Fig. 5.
FIG5_METHODS = ("offload", "model_gating")


@dataclass
class Fig5Result:
    """Per-(method, control, detector) energy gains of Fig. 5."""

    tau_s: float
    #: gains[(method, filtered)] -> {model name: mean gain}
    gains: dict[tuple[str, bool], dict[str, float]] = field(default_factory=dict)
    summaries: dict[tuple[str, bool], RunSummary] = field(default_factory=dict)

    def gain(self, method: str, filtered: bool, model: str) -> float:
        """Mean gain of one detector under one method and control case."""
        return self.gains[(method, filtered)][model]

    def to_table(self) -> str:
        """Render the figure as a text table."""
        rows: list[list[object]] = []
        for (method, filtered), per_model in sorted(self.gains.items()):
            for model, gain in sorted(per_model.items()):
                rows.append(
                    [
                        method,
                        "filtered" if filtered else "unfiltered",
                        model,
                        100.0 * gain,
                    ]
                )
        return format_table(
            ["method", "control", "detector", "gain [%]"],
            rows,
            title=f"Fig. 5 — energy gains vs. local execution (tau = {self.tau_s * 1e3:.0f} ms)",
        )


def fig5_cells(settings: ExperimentSettings, tau_s: float = 0.02) -> Cells:
    """Fig. 5's cells: both optimization methods, both control cases."""
    return {
        (method, filtered): standard_config(
            settings, optimization=method, filtered=filtered, tau_s=tau_s
        )
        for method in FIG5_METHODS
        for filtered in (False, True)
    }


def fig5_result(reports_by_label: Reports, tau_s: float = 0.02) -> Fig5Result:
    """Fig. 5 from the reports of :func:`fig5_cells`."""
    result = Fig5Result(tau_s=tau_s)
    for cell, reports in reports_by_label.items():
        summary = result.summaries[cell] = aggregate_reports(reports)
        result.gains[cell] = {
            name: gain_summary.mean_gain
            for name, gain_summary in summary.model_gains.items()
        }
    return result


def run_fig5(
    settings: ExperimentSettings = ExperimentSettings(), tau_s: float = 0.02
) -> Fig5Result:
    """Regenerate Fig. 5 (both optimization methods, both control cases)."""
    return fig5_result(run_batch(fig5_cells(settings, tau_s), settings), tau_s)
