"""Sensory model descriptors and the Lambda' / Lambda'' partition.

Section III-C and IV-A of the paper: the ``N`` sensory processing models of
the pipeline form the set Lambda.  The subset Lambda'' ("critical") produces
the state estimates the safety filter relies on and must always run at full
capacity; the complementary subset Lambda' ("optimizable") may have runtime
energy optimizations applied, regulated by the safety deadline.

:class:`SensoryModel` is the scheduler-facing description of one model: its
name, native period, compute footprint, sensor power specification, payload
size for offloading, and whether it belongs to the critical subset.
:class:`ModelSet` holds the whole pipeline and exposes the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

from repro.core.intervals import discretize_period
from repro.platform.compute import ComputeProfile
from repro.platform.presets import DRIVE_PX2_RESNET152, ZERO_POWER_SENSOR
from repro.platform.sensors import SensorPowerSpec


@dataclass(frozen=True)
class SensoryModel:
    """Description of one sensory processing model ``N_i``.

    Attributes:
        name: Unique model name within the pipeline.
        period_s: Native processing period ``p_i`` (synchronized to the
            sensor's sampling period, Section III-C).
        compute: Local compute profile (latency ``T_N``, power ``P_N``).
        sensor: Power specification of the attached sensor (``P_meas``,
            ``P_mech``); use ``ZERO_POWER_SENSOR`` for compute-only analyses.
        payload_bytes: Uplink payload when this model's input is offloaded.
        critical: True for Lambda'' members (never optimized).
    """

    name: str
    period_s: float
    compute: ComputeProfile = DRIVE_PX2_RESNET152
    sensor: SensorPowerSpec = ZERO_POWER_SENSOR
    payload_bytes: int = 28_000
    critical: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")

    def discretized_period(self, tau_s: float) -> int:
        """``delta_i`` of eq. (4) for a base period ``tau``."""
        return discretize_period(self.period_s, tau_s)


@dataclass
class ModelSet:
    """The full pipeline Lambda with its Lambda' / Lambda'' partition."""

    models: list[SensoryModel] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [model.name for model in self.models]
        if len(names) != len(set(names)):
            raise ValueError("model names must be unique")

    def __iter__(self) -> Iterator[SensoryModel]:
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def get(self, name: str) -> SensoryModel:
        """Return the model called ``name``."""
        for model in self.models:
            if model.name == name:
                return model
        raise KeyError(name)

    @property
    def critical(self) -> list[SensoryModel]:
        """The critical subset Lambda'' (state estimation, never optimized)."""
        return [model for model in self.models if model.critical]

    @property
    def optimizable(self) -> list[SensoryModel]:
        """The optimizable subset Lambda'."""
        return [model for model in self.models if not model.critical]

    def validate(self) -> None:
        """Check the partition is usable by the scheduler.

        The pipeline must contain at least one critical model (otherwise no
        state estimates feed the safety filter) and at least one optimizable
        model (otherwise there is nothing for SEO to regulate).
        """
        if not self.critical:
            raise ValueError(
                "the pipeline needs at least one critical (Lambda'') model"
            )
        if not self.optimizable:
            raise ValueError(
                "the pipeline needs at least one optimizable (Lambda') model"
            )

    @classmethod
    def from_models(cls, models: Sequence[SensoryModel]) -> "ModelSet":
        """Build and validate a model set from a sequence of models."""
        model_set = cls(models=list(models))
        model_set.validate()
        return model_set
