"""Ablation studies on SEO's design choices (not in the paper's evaluation).

Two ablations, each isolating one of SEO's design choices:

* **Safety awareness** — compare the safety-aware scheduler against a
  safety-oblivious variant that always optimizes at the maximum deadline.
  The oblivious variant saves more energy but spends more base periods in
  unsafe states (barrier ``h < 0``) and relies on stale perception near
  obstacles; the safety-aware variant trades part of the gains for the
  preserved safety margin.
* **Lookup table** — compare deadlines sampled from the quantized lookup
  table ``T(x, u)`` against exact evaluations of ``phi``.  The table is
  conservative by construction, so it should report equal or smaller mean
  deadlines (and therefore equal or smaller gains) at a fraction of the
  runtime cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.analysis.tables import format_table
from repro.experiments.common import Cells, ExperimentSettings, Reports, standard_config


@dataclass
class SafetyAwarenessAblationResult:
    """Energy/safety comparison of safety-aware vs. safety-oblivious scheduling."""

    aware: RunSummary
    oblivious: RunSummary
    aware_unsafe_steps: float
    oblivious_unsafe_steps: float

    def to_table(self) -> str:
        """Render the ablation as text."""
        variants = [
            ("safety-aware (SEO)", self.aware, self.aware_unsafe_steps),
            ("safety-oblivious", self.oblivious, self.oblivious_unsafe_steps),
        ]
        return format_table(
            ["variant", "avg gain [%]", "mean delta_max", "unsafe steps / episode"],
            [
                [name, 100.0 * summary.average_model_gain, summary.mean_delta_max, unsafe]
                for name, summary, unsafe in variants
            ],
            title="Ablation — safety-aware vs. safety-oblivious scheduling",
        )


def safety_awareness_ablation_cells(settings: ExperimentSettings) -> Cells:
    """The safety-aware (``True``) and safety-oblivious (``False``) cells:
    model gating on a higher-risk scenario (4 obstacles)."""
    base = standard_config(settings, optimization="model_gating", filtered=True, num_obstacles=4)
    return {aware: replace(base, safety_aware=aware) for aware in (True, False)}


def safety_awareness_ablation_result(reports_by_label: Reports) -> SafetyAwarenessAblationResult:
    """The ablation from the reports of :func:`safety_awareness_ablation_cells`."""
    unsafe = {
        aware: float(np.mean([report.unsafe_steps for report in reports]))
        for aware, reports in reports_by_label.items()
    }
    return SafetyAwarenessAblationResult(
        aware=aggregate_reports(reports_by_label[True]),
        oblivious=aggregate_reports(reports_by_label[False]),
        aware_unsafe_steps=unsafe[True],
        oblivious_unsafe_steps=unsafe[False],
    )


@dataclass
class LookupAblationResult:
    """Comparison of lookup-table deadlines against exact phi evaluations."""

    lookup: RunSummary
    exact: RunSummary

    def to_table(self) -> str:
        """Render the ablation as text."""
        providers = [("lookup table T(x, u)", self.lookup), ("exact phi evaluation", self.exact)]
        return format_table(
            ["deadline provider", "avg gain [%]", "mean delta_max"],
            [
                [name, 100.0 * summary.average_model_gain, summary.mean_delta_max]
                for name, summary in providers
            ],
            title="Ablation — deadline lookup table vs. exact evaluation",
        )


def lookup_ablation_cells(settings: ExperimentSettings) -> Cells:
    """The lookup-table (``True``) and exact-phi (``False``) cells: offloading
    on the default scenario."""
    base = standard_config(settings, optimization="offload", filtered=True)
    return {
        use_lookup: replace(base, use_lookup_table=use_lookup) for use_lookup in (True, False)
    }


def lookup_ablation_result(reports_by_label: Reports) -> LookupAblationResult:
    """The ablation from the reports of :func:`lookup_ablation_cells`."""
    return LookupAblationResult(
        lookup=aggregate_reports(reports_by_label[True]),
        exact=aggregate_reports(reports_by_label[False]),
    )
