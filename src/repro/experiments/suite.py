"""Scenario-suite driver: one SEO run per named scenario family.

Not a paper artifact — this driver widens the workload beyond the paper's
single obstacle course by sweeping the families of
:data:`repro.sim.scenario.DEFAULT_SUITE` (dense traffic, high-speed highway,
narrow road, curved roads, moving traffic, sensor dropouts, ...) under one
optimization method, and reporting energy gains and safety outcomes side by
side.  Scenario-specific knobs — road segments, obstacle motion policies and
sensor dropout — travel inside each family's :class:`ScenarioConfig`, so the
driver and the sweep engine need no per-family code (see
``docs/scenarios.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Sequence

from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.analysis.tables import format_table
from repro.core.framework import SEOConfig
from repro.experiments.common import Cells, ExperimentSettings, Reports, default_detector_sensor
from repro.sim.scenario import DEFAULT_SUITE


@dataclass(frozen=True)
class SuiteRow:
    """Aggregate outcome of one scenario family."""

    family: str
    description: str
    success_rate: float
    average_gain: float
    mean_delta_max: float
    collisions: int


@dataclass
class SuiteResult:
    """All rows of a scenario-suite run."""

    optimization: str
    rows: list[SuiteRow] = field(default_factory=list)
    summaries: dict[str, RunSummary] = field(default_factory=dict)

    def row(self, family: str) -> SuiteRow:
        """Return the row for one scenario family."""
        for row in self.rows:
            if row.family == family:
                return row
        raise KeyError(family)

    def to_table(self) -> str:
        """Render the suite comparison as text."""
        rendered = [
            [
                row.family,
                100.0 * row.success_rate,
                100.0 * row.average_gain,
                row.mean_delta_max,
                row.collisions,
            ]
            for row in self.rows
        ]
        return format_table(
            ["scenario", "success [%]", "avg gain [%]", "delta_max", "collisions"],
            rendered,
            title=f"Scenario suite — {self.optimization} optimization, filtered control",
        )


def suite_cells(
    settings: ExperimentSettings,
    families: Sequence[str] | None = None,
    optimization: str = "offload",
) -> Cells:
    """One cell per requested family (``None``: the whole suite), by name."""
    names = list(families) if families is not None else DEFAULT_SUITE.names()
    # Same per-method sensor accounting as the paper-artifact drivers —
    # without it, sensor gating would report meaningless ~0 gains.
    detector_sensor = default_detector_sensor(optimization)
    configs: Cells = {}
    for name in names:
        scenario = replace(DEFAULT_SUITE.get(name).base, seed=settings.seed)
        configs[name] = SEOConfig(
            scenario=scenario,
            optimization=optimization,
            filtered=True,
            detector_sensor=detector_sensor,
            target_speed_mps=scenario.target_speed_mps,
            max_steps=settings.max_steps,
            seed=settings.seed,
        )
    return configs


def suite_result(reports_by_label: Reports, optimization: str = "offload") -> SuiteResult:
    """The suite comparison from the reports of :func:`suite_cells`."""
    result = SuiteResult(optimization=optimization)
    for name, reports in reports_by_label.items():
        summary = result.summaries[name] = aggregate_reports(reports)
        result.rows.append(
            SuiteRow(
                family=name,
                description=DEFAULT_SUITE.get(name).description,
                success_rate=summary.success_rate,
                average_gain=summary.average_model_gain,
                mean_delta_max=summary.mean_delta_max,
                collisions=summary.collision_episodes,
            )
        )
    return result
