"""Shared configuration builders and sweep plumbing for the experiment drivers.

Every driver is split in two: ``<artifact>_cells(settings, ...)`` declares
its artifact as a dict of named configurations, and
``<artifact>_result(reports_by_label, ...)`` builds the result from their
reports.  ``run_<artifact>`` composes the two around one :func:`run_batch`
call, a :class:`repro.runtime.sweep.SweepRunner` sweep of its own.  The CLI
instead runs the cells of every requested artifact as one sweep and hands
each ``_result`` its slice (see :mod:`repro.cli`).  Either way the reports
are bit-identical to the in-process per-config path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

#: An artifact's declared cells: label -> configuration.
Cells = dict[Hashable, SEOConfig]
#: The reports of an artifact's cells: label -> reports, in episode order.
Reports = Mapping[Hashable, list[EpisodeReport]]


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
        backend: Execution backend: ``"process"`` (a local process pool
            over ``jobs``) or ``"batch"`` (in-process, the same as
            ``jobs=1``; ``jobs`` is ignored).  Checked by
            :func:`repro.runtime.sweep.check_backend`, the same rule the
            :class:`~repro.runtime.sweep.SweepRunner` applies.
    """

    episodes: int = 10
    seed: int = 0
    max_steps: int = 1200
    target_speed_mps: float = 8.0
    jobs: int = 1
    backend: str = "process"

    def __post_init__(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.jobs < 0:
            raise ValueError("jobs must be non-negative (0 = use all CPU cores)")
        check_backend(self.backend)


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


def run_batch(configs: Cells, settings: ExperimentSettings) -> dict[Hashable, list[EpisodeReport]]:
    """Run every named config for ``settings.episodes`` episodes in one sweep.

    Each named config is lowered to a
    :class:`~repro.runtime.workunit.WorkUnit` covering ``settings.episodes``
    episodes, so the runner runs equal configs once without the driver
    knowing.  Reports come back keyed like ``configs``, in episode order.

    Args:
        configs: Named configurations of the artifact's cells.
        settings: Shared experiment knobs.
    """
    runner = SweepRunner(jobs=settings.jobs, backend=settings.backend)
    return runner.run(sweep_jobs(configs, settings.episodes))


def run_configuration(
    config: SEOConfig, settings: ExperimentSettings, only_successful: bool = True
) -> RunSummary:
    """Run one configuration for ``settings.episodes`` episodes and aggregate."""
    reports = run_batch({"configuration": config}, settings)["configuration"]
    return aggregate_reports(reports, only_successful=only_successful)


def with_obstacles(config: SEOConfig, num_obstacles: int) -> SEOConfig:
    """Return a copy of ``config`` with a different obstacle count."""
    return replace(config, scenario=replace(config.scenario, num_obstacles=num_obstacles))
