"""Analytic energy models: local execution and gating (paper equation 8).

The runtime scheduler charges energy step by step (so stochastic offloading
outcomes are accounted exactly as they happen); the closed-form expressions
in this module describe the local-execution baseline and the gating
accounting at the granularity of one safe interval.  Table III's 4-tau
column and the sensor-gating example read them through
:func:`expected_gating_gain`, and the scheduler and period-kernel tests check
the step-wise accounting against them.

Per base period ``tau`` and model ``N_i`` the accounting is:

* sensor mechanical power ``P_mech`` is always drawn (a LiDAR rotor cannot be
  gated, Section V-B);
* sensor measurement power ``P_meas`` is drawn unless the measurement is
  gated for that period;
* one local inference costs ``T_N * P_N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.models import SensoryModel


def local_inference_energy_j(model: SensoryModel) -> float:
    """Energy of one local inference, ``E_N = T_N * P_N``."""
    return model.compute.energy_per_inference_j


def sensor_period_energy_j(
    model: SensoryModel, tau_s: float, measurement_on: bool
) -> float:
    """Sensor energy drawn during one base period."""
    if tau_s <= 0:
        raise ValueError("tau_s must be positive")
    return model.sensor.sensing_energy_j(tau_s, measurement_on=measurement_on)


def baseline_invocations(delta_max: int, delta_i: int) -> int:
    """Number of natural invocation slots of a model in ``delta_max`` periods."""
    if delta_max < 0 or delta_i <= 0:
        raise ValueError("delta_max must be >= 0 and delta_i > 0")
    return math.ceil(delta_max / delta_i) if delta_max > 0 else 0


def baseline_interval_energy_j(
    model: SensoryModel, tau_s: float, delta_max: int
) -> float:
    """Energy of local-always execution over one interval of ``delta_max`` periods."""
    invocations = baseline_invocations(delta_max, model.discretized_period(tau_s))
    sensor = delta_max * sensor_period_energy_j(model, tau_s, measurement_on=True)
    return sensor + invocations * local_inference_energy_j(model)


def gating_interval_energy_j(
    model: SensoryModel, tau_s: float, delta_max: int, gate_sensor: bool
) -> float:
    """Energy over one interval under gating (eq. 8, aggregated).

    With *model gating* only the NN compute is gated, so the sensor keeps
    measuring every period.  With *sensor gating* the measurement is also
    gated, except during the ``delta_i`` periods feeding the mandatory full
    run at the end of the interval; the mechanical component is never gated.
    When ``delta_i >= delta_max`` no optimization applies and the model runs
    as in the baseline.
    """
    delta_i = model.discretized_period(tau_s)
    if delta_i >= delta_max:
        return baseline_interval_energy_j(model, tau_s, delta_max)

    compute = local_inference_energy_j(model)
    if gate_sensor:
        measured_periods = delta_i
        gated_periods = delta_max - measured_periods
        sensor = measured_periods * sensor_period_energy_j(
            model, tau_s, measurement_on=True
        ) + gated_periods * sensor_period_energy_j(model, tau_s, measurement_on=False)
    else:
        sensor = delta_max * sensor_period_energy_j(model, tau_s, measurement_on=True)
    return sensor + compute


@dataclass(frozen=True)
class IntervalGain:
    """Energy gain of an optimized interval relative to the local baseline."""

    baseline_j: float
    optimized_j: float

    @property
    def gain(self) -> float:
        """Relative energy gain in [0, 1] (0 when the baseline is zero)."""
        if self.baseline_j <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.optimized_j / self.baseline_j)


def expected_gating_gain(
    model: SensoryModel, tau_s: float, delta_max: int, gate_sensor: bool
) -> IntervalGain:
    """Closed-form gating gain for one interval (used by Table III's 4-tau column)."""
    return IntervalGain(
        baseline_j=baseline_interval_energy_j(model, tau_s, delta_max),
        optimized_j=gating_interval_energy_j(model, tau_s, delta_max, gate_sensor),
    )
