"""The benchmark's three workloads: inputs from a seed, set-up, one run, checks.

Nothing here imports ``repro`` at module level: :meth:`Workload.setup` does
the first ``repro`` import, so the worker can time set-up from that import to
ready-to-run.  The program only ever receives what :func:`make_plan` derives
from the seed (config seeds, episode ranges, CLI arguments).

* ``fleet`` -- one ``run_batch`` lockstep call over a few hundred episodes of
  the paper's obstacle course (offload, filtered control, lookup deadlines,
  tau = 20 ms, the 1200-step cap).  Per-element kernel cost and the engine's
  per-episode loops dominate; the serial object path never runs.
* ``single-vehicle`` -- ``curved-road`` episodes one at a time through
  ``SEOFramework.run_episode``: the N = 1 regime where per-call overhead
  dominates.
* ``sweep`` -- four paper artifacts through in-process ``repro.cli.run``
  with ``--backend batch`` and four episodes per cell, each invocation from an
  empty lookup-table cache: many configs at small N, so the engine's fixed
  per-frame cost, framework construction, work-unit hashing, ``analysis``
  and table rendering all show.

Single-vehicle and sweep episodes are capped at 600 base periods.  That is
past the start of every family's obstacle zone but short of most routes'
end (the shortest curved-road episode takes ~640), so nearly every episode
runs the full cap and the work of a run hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Any

WORKLOADS = ("fleet", "single-vehicle", "sweep")

FLEET_EPISODES = 200
FLEET_MAX_STEPS = 1200
#: Fleet episodes re-run through the serial path to check batch == serial.
FLEET_PARITY_SAMPLE = 2

SINGLE_FAMILY = "curved-road"
SINGLE_EPISODES = 4
SINGLE_MAX_STEPS = 600

SWEEP_EPISODES = 4
SWEEP_MAX_STEPS = 600
SWEEP_SUITE_FAMILIES = ("moving-traffic", "sensor-dropout")
#: CLI argument lists of the sweep, with the table rows each must render.
SWEEP_ARTIFACTS: tuple[tuple[tuple[str, ...], int], ...] = (
    (("fig5",), 2 * 2 * 2),  # {offload, model gating} x {filtered, not} x 2 detectors
    (("table3",), 3 * 2),  # 3 sensors x 2 detectors
    (("ablation-lookup",), 2),  # lookup table vs exact phi
    (
        ("suite",)
        + tuple(arg for family in SWEEP_SUITE_FAMILIES for arg in ("--family", family)),
        len(SWEEP_SUITE_FAMILIES),
    ),
)

GATING_MODES = ("model_gating", "sensor_gating")


def make_plan(workload: str, seed: int) -> dict[str, Any]:
    """The inputs a workload runs on, derived from the seed alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    rng = random.Random(f"{workload}:{seed}")
    config_seed = rng.randrange(1_000_000)
    if workload == "fleet":
        start = rng.randrange(100_000)
        episodes = list(range(start, start + FLEET_EPISODES))
        return {
            "config_seed": config_seed,
            "episodes": episodes,
            "parity_episodes": sorted(rng.sample(episodes, FLEET_PARITY_SAMPLE)),
        }
    if workload == "single-vehicle":
        start = rng.randrange(100_000)
        return {
            "config_seed": config_seed,
            "episodes": list(range(start, start + SINGLE_EPISODES)),
        }
    return {
        "config_seed": config_seed,
        "argv": [
            list(args)
            + ["--backend", "batch", "--episodes", str(SWEEP_EPISODES),
               "--max-steps", str(SWEEP_MAX_STEPS), "--seed", str(config_seed)]
            for args, _ in SWEEP_ARTIFACTS
        ],
        "expected_rows": [rows for _, rows in SWEEP_ARTIFACTS],
    }


@dataclass
class RunResult:
    """What one run of a workload produced."""

    #: ``(config, reports)`` per executed configuration, in execution order.
    jobs: list[tuple[Any, list[Any]]] = field(default_factory=list)
    #: Rendered artifact tables (sweep only).
    tables: list[str] = field(default_factory=list)

    @property
    def steps(self) -> int:
        """Simulated base periods over every report."""
        return sum(report.steps for _, reports in self.jobs for report in reports)

    def digest(self) -> str:
        """SHA-256 over every report and table, to spot behaviour changes."""
        from repro.runtime.ledger import report_to_jsonable

        payload = {
            "reports": [
                [report_to_jsonable(report) for report in reports]
                for _, reports in self.jobs
            ],
            "tables": self.tables,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checks:
    """Counts output checks attempted and failed; keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def check_reports(result: RunResult, checks: Checks) -> None:
    """Per-report invariants of the paper's runtime loop."""
    for config, reports in result.jobs:
        for report in reports:
            where = f"episode {report.episode} ({config.optimization})"
            checks.expect(
                report.steps <= config.max_steps,
                f"{where}: {report.steps} steps > max_steps {config.max_steps}",
            )
            checks.expect(
                report.offload_deadline_misses <= report.offloads_issued,
                f"{where}: {report.offload_deadline_misses} deadline misses > "
                f"{report.offloads_issued} offloads issued",
            )
            checks.expect(
                all(0 <= d <= config.max_deadline_periods for d in report.delta_max_samples),
                f"{where}: delta_max outside [0, {config.max_deadline_periods}]",
            )
            if config.optimization in GATING_MODES:
                checks.expect(
                    all(
                        energy <= report.baseline_by_model_j[model] * (1 + 1e-12)
                        for model, energy in report.energy_by_model_j.items()
                    ),
                    f"{where}: gating spent more energy than the baseline",
                )


def _table_rows(table: str) -> int:
    """Data rows of one rendered ``format_table`` table."""
    lines = table.splitlines()
    separators = [i for i, line in enumerate(lines) if line and set(line) <= {"-", "+"}]
    return len(lines) - separators[0] - 1 if separators else 0


class Workload:
    """One workload: ``setup`` once, then its parts as often as timed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.plan = make_plan(name, seed)
        #: Every lookup-table cache this process installed, in order.
        self.caches: list[Any] = []

    def _fresh_cache(self) -> None:
        from repro.runtime.cache import LookupTableCache, set_default_cache

        cache = LookupTableCache()
        set_default_cache(cache)
        self.caches.append(cache)

    def setup(self) -> None:
        """Import ``repro`` and build what a run needs, from an empty cache."""
        if self.name == "sweep":
            self._setup_sweep()
            return
        from dataclasses import replace

        from repro.core.framework import SEOFramework
        from repro.experiments.common import ExperimentSettings, standard_config
        from repro.runtime.batch import run_batch
        from repro.sim.scenario import DEFAULT_SUITE

        self._fresh_cache()
        seed = self.plan["config_seed"]
        if self.name == "fleet":
            settings = ExperimentSettings(max_steps=FLEET_MAX_STEPS, seed=seed)
            config = standard_config(settings, optimization="offload", filtered=True)
        else:
            settings = ExperimentSettings(max_steps=SINGLE_MAX_STEPS, seed=seed)
            scenario = DEFAULT_SUITE.build(SINGLE_FAMILY, seed=seed)
            config = replace(
                standard_config(settings, optimization="offload", filtered=True),
                scenario=scenario,
                target_speed_mps=scenario.target_speed_mps,
            )
        self.framework = SEOFramework(config)
        self._run_batch = run_batch

    def _setup_sweep(self) -> None:
        import repro.cli
        from repro.core.framework import SEOFramework
        from repro.experiments.common import ExperimentSettings, standard_config
        from repro.runtime.sweep import SweepRunner

        captured = self._captured = []

        class RecordingSweepRunner(SweepRunner):
            """Keeps each batch's ``(config, reports)`` for the output checks."""

            def run(self, jobs, experiment=None):
                results = super().run(jobs, experiment=experiment)
                captured.extend((job.config, results[job.label]) for job in jobs)
                return results

        repro.cli.SweepRunner = RecordingSweepRunner
        self._cli_run = repro.cli.run
        self._fresh_cache()
        settings = ExperimentSettings(
            max_steps=SWEEP_MAX_STEPS, seed=self.plan["config_seed"], backend="batch"
        )
        self.framework = SEOFramework(
            standard_config(settings, optimization="offload", filtered=True)
        )

    @property
    def parts(self) -> list[str]:
        """The pieces one run of the workload is made of, in order.

        A timed run cycles through them and each gets its own median, so a
        slow spell of the host hits one piece's samples, not a whole run.
        """
        if self.name == "fleet":
            return ["run_batch"]
        if self.name == "single-vehicle":
            return [f"episode {episode}" for episode in self.plan["episodes"]]
        return [argv[0] for argv in self.plan["argv"]]

    def run_part(self, index: int) -> RunResult:
        """Run one part of the workload (the unit the worker times)."""
        config = self.framework.config
        if self.name == "fleet":
            reports = self._run_batch(self.framework, self.plan["episodes"])
            return RunResult(jobs=[(config, reports)])
        if self.name == "single-vehicle":
            episode = self.plan["episodes"][index]
            return RunResult(jobs=[(config, [self.framework.run_episode(episode)])])
        self._captured.clear()
        # Every CLI invocation starts from an empty in-process cache.
        self._fresh_cache()
        with contextlib.redirect_stdout(io.StringIO()):
            table = self._cli_run(self.plan["argv"][index])
        return RunResult(jobs=list(self._captured), tables=[table])

    def check(self, results: list[RunResult], checks: Checks, parity: bool) -> None:
        """Output checks on one result per part (never inside the timed window)."""
        result = RunResult(
            jobs=[job for part in results for job in part.jobs],
            tables=[table for part in results for table in part.tables],
        )
        check_reports(result, checks)
        if self.name == "sweep":
            for argv, table, rows in zip(
                self.plan["argv"], result.tables, self.plan["expected_rows"], strict=True
            ):
                found = _table_rows(table)
                checks.expect(
                    found == rows, f"{argv[0]}: rendered {found} rows, expected {rows}"
                )
        if self.name == "fleet" and parity and hasattr(self.framework, "run_episode"):
            # Batch reports must equal the serial path on a fixed sample.
            reports = dict(zip(self.plan["episodes"], result.jobs[0][1], strict=True))
            for episode in self.plan["parity_episodes"]:
                checks.expect(
                    self.framework.run_episode(episode) == reports[episode],
                    f"episode {episode}: run_batch differs from run_episode",
                )
