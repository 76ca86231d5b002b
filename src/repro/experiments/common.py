"""Shared configuration builders and sweep plumbing for the experiment drivers.

Every driver declares its artifact as a *batch* of named configurations and
runs it through :func:`run_batch` / :func:`run_summaries`, which route the
work into a :class:`repro.runtime.sweep.SweepRunner`.  When
``settings.runner`` is set (the CLI does this), every driver of an
invocation shares that runner — and therefore at most one worker pool;
otherwise each call owns a short-lived runner of its own.  Either way the
reports are bit-identical to the in-process per-config path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Hashable, Mapping

from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.core.framework import EpisodeReport, SEOConfig
from repro.platform.presets import ZED_CAMERA, ZERO_POWER_SENSOR
from repro.platform.sensors import SensorPowerSpec
from repro.runtime.sweep import SweepRunner, check_backend, sweep_jobs
from repro.sim.scenario import ScenarioConfig

#: Number of obstacles in the "default" evaluation scenario used by Fig. 5 /
#: Table I.  The paper populates the final third of the road but does not
#: state the count; three obstacles gives a comparable mix of open-road and
#: at-risk driving.
DEFAULT_NUM_OBSTACLES = 3


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every experiment driver.

    Attributes:
        episodes: Episodes per configuration.  The paper averages 25
            successful runs; the default here is smaller so the benchmark
            suite stays fast — pass ``episodes=25`` to match the paper.
        seed: Base seed for scenario generation and stochastic strategies.
        max_steps: Cap on base periods per episode.
        target_speed_mps: Controller cruise speed.
        jobs: Workers episodes are spread over (1 = in-process, each unit's
            episodes in numpy lockstep; 0 = all CPU cores; results are
            identical either way).
        backend: Worker-pool backend: ``"process"``, ``"socket"`` or
            ``"batch"`` (in-process, the same as ``jobs=1``; ``jobs`` is
            ignored).  Checked by
            :func:`repro.runtime.sweep.check_backend`, the same rule the
            :class:`~repro.runtime.sweep.SweepRunner` applies.
        workers: Remote worker addresses (``"host:port"`` strings), required
            by — and only valid with — the ``"socket"`` backend.
        runner: Optional shared :class:`~repro.runtime.sweep.SweepRunner`.
            When set, every driver batch funnels into it (one pool per
            invocation); when ``None``, each batch owns a transient runner
            built from ``jobs``/``backend``/``workers``.
    """

    episodes: int = 10
    seed: int = 0
    max_steps: int = 1200
    target_speed_mps: float = 8.0
    jobs: int = 1
    backend: str = "process"
    workers: tuple[str, ...] | None = None
    runner: SweepRunner | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.jobs < 0:
            raise ValueError("jobs must be non-negative (0 = use all CPU cores)")
        check_backend(self.backend, self.workers)


def default_detector_sensor(optimization: str) -> SensorPowerSpec:
    """The paper's per-method sensor accounting: offloading experiments
    consider only compute and transmission energy (eq. 7 — a zero-power
    sensor), while gating experiments include the camera front-end (eq. 8).
    """
    return ZERO_POWER_SENSOR if optimization == "offload" else ZED_CAMERA


def standard_config(
    settings: ExperimentSettings,
    optimization: str,
    filtered: bool,
    tau_s: float = 0.02,
    num_obstacles: int = DEFAULT_NUM_OBSTACLES,
    detector_sensor: SensorPowerSpec | None = None,
    safety_aware: bool = True,
    use_lookup_table: bool = True,
) -> SEOConfig:
    """Build the paper's standard two-detector configuration.

    The detector sensor defaults to :func:`default_detector_sensor`'s
    per-method accounting; pass ``detector_sensor`` explicitly to override
    (Table III does, with radar and LiDAR specifications).
    """
    if detector_sensor is None:
        detector_sensor = default_detector_sensor(optimization)
    scenario = ScenarioConfig(
        num_obstacles=num_obstacles,
        target_speed_mps=settings.target_speed_mps,
        initial_speed_mps=settings.target_speed_mps,
        seed=settings.seed,
    )
    return SEOConfig(
        tau_s=tau_s,
        scenario=scenario,
        filtered=filtered,
        optimization=optimization,
        detector_sensor=detector_sensor,
        safety_aware=safety_aware,
        use_lookup_table=use_lookup_table,
        target_speed_mps=settings.target_speed_mps,
        max_steps=settings.max_steps,
        seed=settings.seed,
    )


def run_batch(
    configs: Mapping[Hashable, SEOConfig],
    settings: ExperimentSettings,
    experiment: str | None = None,
) -> dict[Hashable, list[EpisodeReport]]:
    """Run every named config for ``settings.episodes`` episodes in one sweep.

    Each named config is lowered to a content-addressed
    :class:`~repro.runtime.workunit.WorkUnit` covering
    ``settings.episodes`` episodes, so the runner can deduplicate, resume,
    shard or remotely dispatch the work without the driver knowing.  All
    episodes of all units share one worker pool: the shared
    ``settings.runner`` when present, otherwise a runner scoped to this
    call.  Reports come back keyed like ``configs``, in episode order.

    Args:
        configs: Named configurations of the artifact's cells.
        settings: Shared experiment knobs.
        experiment: Driver name recorded in ledger/manifest metadata
            (e.g. ``"fig5"``).
    """
    jobs = sweep_jobs(configs, settings.episodes)
    if settings.runner is not None:
        return settings.runner.run(jobs, experiment=experiment)
    with SweepRunner(
        jobs=settings.jobs, backend=settings.backend, workers=settings.workers
    ) as runner:
        return runner.run(jobs, experiment=experiment)


def run_summaries(
    configs: Mapping[Hashable, SEOConfig],
    settings: ExperimentSettings,
    only_successful: bool = True,
    experiment: str | None = None,
) -> dict[Hashable, RunSummary]:
    """Run a config batch through the shared pool and aggregate each job."""
    return {
        key: aggregate_reports(reports, only_successful=only_successful)
        for key, reports in run_batch(
            configs, settings, experiment=experiment
        ).items()
    }


def run_configuration(
    config: SEOConfig,
    settings: ExperimentSettings,
    only_successful: bool = True,
    experiment: str | None = None,
) -> RunSummary:
    """Run one configuration for ``settings.episodes`` episodes and aggregate."""
    return run_summaries(
        {"configuration": config},
        settings,
        only_successful=only_successful,
        experiment=experiment,
    )["configuration"]


def with_obstacles(config: SEOConfig, num_obstacles: int) -> SEOConfig:
    """Return a copy of ``config`` with a different obstacle count."""
    return replace(config, scenario=replace(config.scenario, num_obstacles=num_obstacles))
