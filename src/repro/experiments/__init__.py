"""Experiment drivers: one module per figure/table of the paper's evaluation.

Every driver returns a small result dataclass with the same rows/series the
paper reports plus a ``to_table()`` rendering, and is consumed both by the
benchmark harness (``benchmarks/``) and by the examples.  Each ``run_*``
is ``<artifact>_result(run_batch(<artifact>_cells(settings), settings))``;
the CLI runs the cells of several artifacts as one sweep instead.

| Driver | Paper artifact |
|---|---|
| :func:`repro.experiments.fig1.run_fig1` | Fig. 1 (motivational gating example) |
| :func:`repro.experiments.fig5.run_fig5` | Fig. 5 (gains at tau = 20 ms) |
| :func:`repro.experiments.table1.run_table1` | Table I (gains at tau = 25 ms) |
| :func:`repro.experiments.fig6.run_fig6` | Fig. 6 (delta_max histograms vs. risk) |
| :func:`repro.experiments.table2.run_table2` | Table II (gains and delta_max vs. risk) |
| :func:`repro.experiments.table3.run_table3` | Table III (sensor gating) |
| :mod:`repro.experiments.ablations` | Safety-awareness and lookup-table ablations |
"""

from repro.experiments.common import ExperimentSettings, run_configuration, standard_config
from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.ablations import (
    LookupAblationResult,
    SafetyAwarenessAblationResult,
    run_lookup_ablation,
    run_safety_awareness_ablation,
)

__all__ = [
    "ExperimentSettings",
    "Fig1Result",
    "Fig5Result",
    "Fig6Result",
    "LookupAblationResult",
    "SafetyAwarenessAblationResult",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "run_configuration",
    "run_fig1",
    "run_fig5",
    "run_fig6",
    "run_lookup_ablation",
    "run_safety_awareness_ablation",
    "run_table1",
    "run_table2",
    "run_table3",
    "standard_config",
]
