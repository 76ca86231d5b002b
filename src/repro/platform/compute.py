"""Compute profiles: the latency / power footprint of a model on a platform."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComputeProfile:
    """Latency and execution power of running one inference on a platform.

    The paper reduces the Drive PX2 characterization of a ResNet-152 under
    TensorRT to exactly this pair: ``T_N = 17 ms`` and ``P_N = 7 W``
    (Section VI-A).  The energy of one local inference is their product.

    Attributes:
        name: Human-readable identifier, e.g. ``"resnet152@drive-px2"``.
        latency_s: Wall-clock latency of one inference, in seconds.
        power_w: Average power drawn while executing, in watts.
    """

    name: str
    latency_s: float
    power_w: float

    def __post_init__(self) -> None:
        if self.latency_s <= 0:
            raise ValueError("latency_s must be positive")
        if self.power_w < 0:
            raise ValueError("power_w must be non-negative")

    @property
    def energy_per_inference_j(self) -> float:
        """Energy of one local inference: ``T_N * P_N`` (eq. 7/8's ``E_N`` term)."""
        return self.latency_s * self.power_w
