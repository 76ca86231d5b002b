"""Experiment drivers: one module per figure/table of the paper's evaluation.

Every driver declares its artifact as ``<artifact>_cells(settings)``, the
named configurations it runs, and ``<artifact>_result(reports_by_label)``,
a small result dataclass with the same rows/series the paper reports plus a
``to_table()`` rendering.  :func:`repro.cli.run_artifacts` runs the cells
of any set of artifacts as one sweep; the CLI, the benchmark harness
(``benchmarks/``) and the examples all go through it.

| Driver | Paper artifact |
|---|---|
| :mod:`repro.experiments.fig1` | Fig. 1 (motivational gating example) |
| :mod:`repro.experiments.fig5` | Fig. 5 (gains at tau = 20 ms) |
| :mod:`repro.experiments.table1` | Table I (gains at tau = 25 ms) |
| :mod:`repro.experiments.fig6` | Fig. 6 (delta_max histograms vs. risk) |
| :mod:`repro.experiments.table2` | Table II (gains and delta_max vs. risk) |
| :mod:`repro.experiments.table3` | Table III (sensor gating) |
| :mod:`repro.experiments.ablations` | Safety-awareness and lookup-table ablations |
| :mod:`repro.experiments.suite` | Scenario suite (not a paper artifact) |
"""

from repro.experiments.common import ExperimentSettings, standard_config
from repro.experiments.fig1 import Fig1Result
from repro.experiments.fig5 import Fig5Result
from repro.experiments.fig6 import Fig6Result
from repro.experiments.table1 import Table1Result
from repro.experiments.table2 import Table2Result
from repro.experiments.table3 import Table3Result
from repro.experiments.ablations import LookupAblationResult, SafetyAwarenessAblationResult

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
    "standard_config",
]
