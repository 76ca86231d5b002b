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
from repro.experiments.common import ExperimentSettings, run_batch, standard_config


@dataclass
class SafetyAwarenessAblationResult:
    """Energy/safety comparison of safety-aware vs. safety-oblivious scheduling."""

    aware: RunSummary
    oblivious: RunSummary
    aware_unsafe_steps: float
    oblivious_unsafe_steps: float

    @property
    def gain_delta(self) -> float:
        """Extra gain the oblivious variant obtains by ignoring safety."""
        return self.oblivious.average_model_gain - self.aware.average_model_gain


def run_safety_awareness_ablation(
    settings: ExperimentSettings = ExperimentSettings(),
    optimization: str = "model_gating",
    num_obstacles: int = 4,
) -> SafetyAwarenessAblationResult:
    """Run the safety-awareness ablation on a higher-risk scenario."""
    base = standard_config(
        settings, optimization=optimization, filtered=True, num_obstacles=num_obstacles
    )
    batch = run_batch(
        {aware: replace(base, safety_aware=aware) for aware in (True, False)},
        settings,
    )
    unsafe = {
        aware: float(np.mean([report.unsafe_steps for report in reports]))
        for aware, reports in batch.items()
    }
    return SafetyAwarenessAblationResult(
        aware=aggregate_reports(batch[True]),
        oblivious=aggregate_reports(batch[False]),
        aware_unsafe_steps=unsafe[True],
        oblivious_unsafe_steps=unsafe[False],
    )


@dataclass
class LookupAblationResult:
    """Comparison of lookup-table deadlines against exact phi evaluations."""

    lookup: RunSummary
    exact: RunSummary

    @property
    def mean_delta_max_difference(self) -> float:
        """Exact minus lookup mean deadline (non-negative when conservative)."""
        return self.exact.mean_delta_max - self.lookup.mean_delta_max

    @property
    def gain_difference(self) -> float:
        """Exact minus lookup average gain."""
        return self.exact.average_model_gain - self.lookup.average_model_gain


def run_lookup_ablation(
    settings: ExperimentSettings = ExperimentSettings(),
    optimization: str = "offload",
    num_obstacles: int = 3,
) -> LookupAblationResult:
    """Run the lookup-table ablation."""
    base = standard_config(
        settings, optimization=optimization, filtered=True, num_obstacles=num_obstacles
    )
    batch = run_batch(
        {
            use_lookup: replace(base, use_lookup_table=use_lookup)
            for use_lookup in (True, False)
        },
        settings,
    )
    return LookupAblationResult(
        lookup=aggregate_reports(batch[True]), exact=aggregate_reports(batch[False])
    )
