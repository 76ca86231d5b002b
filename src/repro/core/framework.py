"""The SEO framework facade: the full safety-aware ADS runtime loop.

:class:`SEOFramework` wires every substrate together into the closed loop of
Fig. 2 of the paper:

* the driving world (CARLA substitute) provides ground truth;
* the critical subset Lambda'' (the paper's VAE) is never optimized, so it is
  charged only as an energy profile (:data:`VAE_COMPUTE_PROFILE`) every base
  period; as in the paper, the relative state ``x`` the safety filter reads
  comes from the simulator;
* the controller ``pi`` produces raw steering/throttle from the aggregated
  perception outputs Theta;
* the safety filter ``Psi`` (a steering shield) optionally filters the raw
  control (the paper's "filtered" configuration);
* the deadline provider ``T(x, u)`` maps the safety state to a dynamic
  deadline; and
* Algorithm 1's scheduler kernels apply the chosen energy optimization to
  the Lambda' detectors under that deadline, accounting energy as it goes.

The framework builds these parts once per config; the frame loop itself is
:func:`repro.runtime.batch.run_batch`, which steps any set of episodes in
lockstep.  ``run_episode`` is its 1-episode call and returns an
:class:`EpisodeReport`; ``run`` repeats it over several scenario seeds, which
is how every figure/table experiment of the paper is regenerated.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.comm.channel import RayleighChannel
from repro.comm.link import WirelessLink
from repro.comm.offload import OffloadPlanner
from repro.comm.server import EdgeServer
from repro.control.base import Controller
from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController
from repro.core.intervals import SafeIntervalEstimator
from repro.core.lookup import DeadlineLookupTable, LookupGrid
from repro.core.models import ModelSet, SensoryModel
from repro.core.optimizations import MAX_OFFLOAD_DEADLINE_PERIODS, OPTIMIZATIONS
from repro.core.safety import BrakingDistanceBarrier
from repro.dynamics.bicycle import KinematicBicycleModel
from repro.dynamics.params import VehicleParams
from repro.perception.detector import DetectorModel
from repro.platform.compute import ComputeProfile
from repro.platform.presets import DRIVE_PX2_RESNET152, ZERO_POWER_SENSOR
from repro.platform.sensors import SensorPowerSpec
from repro.sim.observation import RangeScanner
from repro.sim.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import EpisodeExecutor

#: Compute profile charged for the critical VAE pipeline every base period.
VAE_COMPUTE_PROFILE = ComputeProfile(name="vae@drive-px2", latency_s=0.004, power_w=4.0)

#: ``SEOConfig`` fields the lockstep engine holds per row, so cells that
#: differ only in them share one call (:meth:`SEOConfig.lockstep_key`).
LOCKSTEP_ROW_FIELDS = (
    "optimization",
    "filtered",
    "detector_sensor",
    "use_lookup_table",
    "safety_aware",
)


@dataclass(frozen=True)
class SEOConfig:
    """Configuration of one SEO experiment.

    Attributes:
        tau_s: Base period ``tau`` (20 ms in most of the paper, 25 ms in
            Table I).
        scenario: Driving scenario (road length, obstacle count, speeds).
        filtered: Whether the safety filter is active (the paper's
            "filtered" vs "unfiltered" control cases).
        optimization: Energy optimization applied to Lambda': ``"offload"``,
            ``"model_gating"``, ``"sensor_gating"`` or ``"none"``.
        detector_period_multiples: Native periods of the Lambda' detectors as
            multiples of ``tau`` (the paper uses ``p = tau`` and ``p = 2 tau``).
        detector_compute: Local compute profile of the detectors.
        detector_sensor: Power specification of the sensor attached to each
            detector (``ZERO_POWER_SENSOR`` reproduces the compute-only
            accounting of Fig. 5; Table III uses real sensor specs).
        payload_bytes: Offload payload per inference.
        channel_scale_mbps: Rayleigh scale of the Wi-Fi effective data rate.
        max_deadline_periods: Saturation value of ``delta_max``: at least 1,
            and at most
            :data:`~repro.core.optimizations.MAX_OFFLOAD_DEADLINE_PERIODS`
            with offload.
        safety_aware: When False the deadline provider always reports the
            maximum deadline, i.e. optimizations are applied regardless of
            the perceived risk (the safety-oblivious ablation baseline).
        use_lookup_table: Sample ``Delta_max`` from the precomputed lookup
            table (as the paper does) instead of evaluating ``phi`` exactly.
        lookup_grid: Optional grid override for the lookup table.
        controller: ``"heuristic"`` (default obstacle-avoidance agent) or
            ``"pure_pursuit"`` (obstacle-blind lane follower).
        target_speed_mps: Controller cruise speed.
        shield_margin_m: Intervention margin of the safety filter.
        barrier_clearance_m: Hard clearance of the safety barrier.
        max_steps: Cap on base periods per episode (at least 1).
        seed: Base seed; episode ``k`` perturbs it deterministically.
    """

    tau_s: float = 0.02
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    filtered: bool = True
    optimization: str = "offload"
    detector_period_multiples: tuple[int, ...] = (1, 2)
    detector_compute: ComputeProfile = DRIVE_PX2_RESNET152
    detector_sensor: SensorPowerSpec = ZERO_POWER_SENSOR
    payload_bytes: int = 28_000
    channel_scale_mbps: float = 20.0
    max_deadline_periods: int = 4
    safety_aware: bool = True
    use_lookup_table: bool = True
    lookup_grid: LookupGrid | None = None
    controller: str = "heuristic"
    target_speed_mps: float = 8.0
    shield_margin_m: float = 2.0
    barrier_clearance_m: float = 1.0
    max_steps: int = 1500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tau_s <= 0:
            raise ValueError("tau_s must be positive")
        if not self.detector_period_multiples:
            raise ValueError("at least one detector period is required")
        if any(multiple < 1 for multiple in self.detector_period_multiples):
            raise ValueError("detector periods must be at least one base period")
        if len(set(self.detector_period_multiples)) != len(self.detector_period_multiples):
            raise ValueError(
                "detector_period_multiples must not repeat a multiple (each names "
                f"one detector), got {self.detector_period_multiples}"
            )
        if self.optimization not in OPTIMIZATIONS:
            raise ValueError(f"unknown optimization: {self.optimization!r}")
        if self.controller not in {"heuristic", "pure_pursuit"}:
            raise ValueError(f"unknown controller: {self.controller!r}")
        if self.max_deadline_periods < 1:
            raise ValueError(
                "max_deadline_periods must be at least 1, got "
                f"{self.max_deadline_periods}"
            )
        if (
            self.optimization == "offload"
            and self.max_deadline_periods > MAX_OFFLOAD_DEADLINE_PERIODS
        ):
            raise ValueError(
                "max_deadline_periods must be at most "
                f"{MAX_OFFLOAD_DEADLINE_PERIODS} with optimization='offload', "
                f"got {self.max_deadline_periods}"
            )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")

    def detector_name(self, multiple: int) -> str:
        """Canonical name of the detector running at ``multiple * tau``."""
        return f"detector-p{multiple}tau"

    def lockstep_key(self) -> Hashable:
        """Configs with equal keys may step in one lockstep call.

        The key is every field except :data:`LOCKSTEP_ROW_FIELDS`: those
        are per-row columns of :func:`repro.runtime.batch.run_cells`, and
        every other field (road, obstacles, ``tau_s``, ``max_steps``, the
        detectors, the channel, the seeds, ...) shapes state that all rows
        of a call share.
        """
        return tuple(
            getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in LOCKSTEP_ROW_FIELDS
        )


@dataclass
class EpisodeReport:
    """Outcome and energy accounting of one SEO episode."""

    episode: int
    steps: int = 0
    duration_s: float = 0.0
    completed: bool = False
    collided: bool = False
    off_road: bool = False
    shield_interventions: int = 0
    delta_max_samples: list[int] = field(default_factory=list)
    energy_by_model_j: dict[str, float] = field(default_factory=dict)
    baseline_by_model_j: dict[str, float] = field(default_factory=dict)
    gain_by_model: dict[str, float] = field(default_factory=dict)
    overall_gain: float = 0.0
    offloads_issued: int = 0
    offload_deadline_misses: int = 0
    min_obstacle_distance_m: float = float("inf")
    unsafe_steps: int = 0
    sensor_dropouts: int = 0

    @property
    def success(self) -> bool:
        """True if the route was completed without collision or road exit."""
        return self.completed and not self.collided and not self.off_road

    @property
    def mean_delta_max(self) -> float:
        """Average of the sampled discretized deadlines."""
        if not self.delta_max_samples:
            return 0.0
        return float(np.mean(self.delta_max_samples))


class SEOFramework:
    """End-to-end safety-aware energy optimization runtime."""

    def __init__(self, config: SEOConfig) -> None:
        self.config = config
        self.vehicle_params = VehicleParams()
        self.barrier = BrakingDistanceBarrier(clearance_m=config.barrier_clearance_m)
        self.estimator = SafeIntervalEstimator(
            dynamics=KinematicBicycleModel(self.vehicle_params),
            safety_function=self.barrier,
            horizon_s=config.max_deadline_periods * config.tau_s,
            step_s=config.tau_s / 4.0,
        )
        self.lookup_table: DeadlineLookupTable | None = None
        if config.use_lookup_table:
            # Imported here: repro.runtime imports this module at load time.
            from repro.runtime.cache import default_cache

            grid = config.lookup_grid if config.lookup_grid is not None else LookupGrid()
            self.lookup_table = default_cache().get_or_build(
                self.estimator,
                grid=grid,
                obstacle_radius_m=config.scenario.obstacle_radius_m,
            )

        self.detectors = self._build_detectors()
        self.model_set = self._build_model_set()
        self.offload_planner = self._build_offload_planner()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_detectors(self) -> dict[str, DetectorModel]:
        config = self.config
        # One obstacle-only scanner shared by every detector, as the batch
        # engine requires.
        scanner = RangeScanner()
        detectors: dict[str, DetectorModel] = {}
        for index, multiple in enumerate(config.detector_period_multiples):
            name = config.detector_name(multiple)
            detectors[name] = DetectorModel(
                name=name,
                period_s=multiple * config.tau_s,
                scanner=scanner,
                compute=config.detector_compute,
                payload_bytes=config.payload_bytes,
                seed=config.seed + 100 + index,
            )
        return detectors

    def _build_model_set(self) -> ModelSet:
        config = self.config
        models: list[SensoryModel] = [
            SensoryModel(
                name="vae-state-encoder",
                period_s=config.tau_s,
                compute=VAE_COMPUTE_PROFILE,
                sensor=ZERO_POWER_SENSOR,
                critical=True,
            )
        ]
        for multiple in config.detector_period_multiples:
            name = config.detector_name(multiple)
            models.append(
                SensoryModel(
                    name=name,
                    period_s=multiple * config.tau_s,
                    compute=config.detector_compute,
                    sensor=config.detector_sensor,
                    payload_bytes=config.payload_bytes,
                    critical=False,
                )
            )
        return ModelSet.from_models(models)

    def _build_offload_planner(self) -> OffloadPlanner:
        config = self.config
        return OffloadPlanner(
            link=WirelessLink(
                channel=RayleighChannel(
                    scale_mbps=config.channel_scale_mbps, seed=config.seed + 7
                )
            ),
            server=EdgeServer(),
            payload_bytes=config.payload_bytes,
        )

    def _build_controller(self) -> Controller:
        config = self.config
        if config.controller == "pure_pursuit":
            return PurePursuitController(target_speed_mps=config.target_speed_mps)
        return ObstacleAvoidanceController(target_speed_mps=config.target_speed_mps)

    # ------------------------------------------------------------------
    # Episode execution
    # ------------------------------------------------------------------
    def run_episode(self, episode: int = 0) -> EpisodeReport:
        """Run one obstacle-course episode under the configured optimization.

        The 1-episode call of :func:`repro.runtime.batch.run_batch`, the one
        frame loop.
        """
        # Imported here: repro.runtime imports this module at load time.
        from repro.runtime.batch import run_batch

        return run_batch(self, [episode])[0]

    def run(
        self,
        episodes: int,
        only_successful: bool = False,
        jobs: int = 1,
        executor: "EpisodeExecutor" | None = None,
    ) -> list[EpisodeReport]:
        """Run several episodes (different obstacle placements and channel draws).

        Episodes are fully determined by ``(config, episode index)``, so they
        may execute out of process; the returned list is always ordered by
        episode index and identical to the in-process run.

        Args:
            episodes: Number of episodes to run.
            only_successful: When True, keep only episodes that completed the
                route collision-free — the paper averages over 25 such runs.
            jobs: Worker processes to spread episodes over (1 = in-process).
            executor: Explicit :class:`repro.runtime.executor.EpisodeExecutor`
                overriding ``jobs``.
        """
        if episodes <= 0:
            raise ValueError("episodes must be positive")
        if executor is None:
            # Imported here: repro.runtime imports this module at load time.
            if jobs == 1:
                from repro.runtime.executor import SerialExecutor

                reports = SerialExecutor(framework=self).run(self.config, episodes)
            else:
                from repro.runtime.executor import ParallelExecutor

                reports = ParallelExecutor(jobs=jobs).run(self.config, episodes)
        else:
            reports = executor.run(self.config, episodes)
        if only_successful:
            successful = [report for report in reports if report.success]
            return successful if successful else reports
        return reports

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_config(self, **overrides: Any) -> "SEOFramework":
        """Return a new framework whose config overrides the given fields."""
        return SEOFramework(replace(self.config, **overrides))
