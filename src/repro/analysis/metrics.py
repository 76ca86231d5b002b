"""Aggregation of :class:`repro.core.framework.EpisodeReport` collections."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.core.framework import EpisodeReport


def mean_and_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard deviation of a sequence (0, 0 when empty).

    Accepts any sized sequence, including numpy arrays (whose truth value is
    ambiguous, hence the explicit length check).
    """
    if len(values) == 0:
        return 0.0, 0.0
    array = np.asarray(values, dtype=float)
    return float(array.mean()), float(array.std())


@dataclass(frozen=True)
class ModelGainSummary:
    """Energy-gain statistics of one Lambda' model across episodes."""

    model: str
    mean_gain: float
    std_gain: float
    mean_energy_j: float
    mean_baseline_j: float


@dataclass
class RunSummary:
    """Aggregate statistics of a set of episodes under one configuration."""

    episodes: int
    successful_episodes: int
    model_gains: dict[str, ModelGainSummary] = field(default_factory=dict)
    overall_gain: float = 0.0
    mean_delta_max: float = 0.0
    delta_max_samples: list[int] = field(default_factory=list)
    mean_shield_interventions: float = 0.0
    collision_episodes: int = 0
    off_road_episodes: int = 0
    offloads_issued: int = 0
    offload_deadline_misses: int = 0

    @property
    def success_rate(self) -> float:
        """Fraction of episodes that completed the route collision-free."""
        if self.episodes == 0:
            return 0.0
        return self.successful_episodes / self.episodes

    @property
    def average_model_gain(self) -> float:
        """Unweighted average of the per-model mean gains (paper's "average gains")."""
        if not self.model_gains:
            return 0.0
        return float(np.mean([summary.mean_gain for summary in self.model_gains.values()]))

    def gain_for(self, model: str) -> float:
        """Mean gain of one model (0.0 when the model is unknown)."""
        summary = self.model_gains.get(model)
        return summary.mean_gain if summary is not None else 0.0


def aggregate_reports(
    reports: Sequence[EpisodeReport], only_successful: bool = True
) -> RunSummary:
    """Aggregate episode reports into a :class:`RunSummary`.

    Args:
        reports: Episode reports from :meth:`repro.core.framework.SEOFramework.run`.
        only_successful: Mirror the paper's methodology of averaging over
            episodes that completed the route without collisions; when no
            episode succeeded, all episodes are used instead so the summary
            stays informative.
    """
    if not reports:
        raise ValueError("reports must not be empty")

    successful = [report for report in reports if report.success]
    selected = successful if (only_successful and successful) else list(reports)

    model_names = sorted(
        {name for report in selected for name in report.gain_by_model}
    )
    model_gains: dict[str, ModelGainSummary] = {}
    for name in model_names:
        gains = [report.gain_by_model.get(name, 0.0) for report in selected]
        energies = [report.energy_by_model_j.get(name, 0.0) for report in selected]
        baselines = [report.baseline_by_model_j.get(name, 0.0) for report in selected]
        mean_gain, std_gain = mean_and_std(gains)
        model_gains[name] = ModelGainSummary(
            model=name,
            mean_gain=mean_gain,
            std_gain=std_gain,
            mean_energy_j=float(np.mean(energies)),
            mean_baseline_j=float(np.mean(baselines)),
        )

    delta_samples: list[int] = []
    for report in selected:
        delta_samples.extend(report.delta_max_samples)

    overall_gains = [report.overall_gain for report in selected]
    interventions = [report.shield_interventions for report in selected]

    return RunSummary(
        episodes=len(reports),
        successful_episodes=len(successful),
        model_gains=model_gains,
        overall_gain=float(np.mean(overall_gains)),
        mean_delta_max=float(np.mean([r.mean_delta_max for r in selected])),
        delta_max_samples=delta_samples,
        mean_shield_interventions=float(np.mean(interventions)),
        collision_episodes=sum(1 for report in reports if report.collided),
        off_road_episodes=sum(1 for report in reports if report.off_road),
        offloads_issued=sum(report.offloads_issued for report in selected),
        offload_deadline_misses=sum(
            report.offload_deadline_misses for report in selected
        ),
    )
