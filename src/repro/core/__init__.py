"""SEO core: the paper's primary contribution.

This package implements Sections III-V of the paper:

* :mod:`repro.core.safety` — the safety function ``h`` of eq. (1), a
  braking-distance barrier (the state is safe where ``h >= 0``);
* :mod:`repro.core.shield` — the safety filter ``Psi`` (eq. 2), a steering
  controller shield over the barrier's ``h``;
* :mod:`repro.core.intervals` — safe time intervals ``Delta_max`` (eq. 3) and
  the discretizations of eqs. (4) and (5);
* :mod:`repro.core.lookup` — the runtime deadline lookup table ``T(x, u)``;
* :mod:`repro.core.models` — the Lambda' / Lambda'' model partition;
* :mod:`repro.core.energy` — analytic energy models (eqs. 7 and 8);
* :mod:`repro.core.optimizations` — the optimization methods Omega
  (offloading and gating) as one per-period kernel;
* :mod:`repro.core.scheduler` — Algorithm 1, the safe runtime control and
  optimization loop;
* :mod:`repro.core.framework` — the :class:`SEOFramework` facade tying the
  whole autonomous-driving use case together.
"""

from repro.core.safety import BrakingDistanceBarrier, SafetyInputs
from repro.core.shield import SteeringShield
from repro.core.intervals import (
    SafeIntervalEstimator,
    discretize_deadline,
    discretize_period,
)
from repro.core.lookup import DeadlineLookupTable, LookupGrid
from repro.core.models import ModelSet, SensoryModel
from repro.core.energy import (
    baseline_interval_energy_j,
    energy_gain,
    expected_gating_gain,
    gating_interval_energy_j,
    local_inference_energy_j,
    offload_interval_energy_j,
)
from repro.core.optimizations import period_kernel
from repro.core.scheduler import (
    EnergyColumns,
    SafeRuntimeScheduler,
    SchedulerStepReport,
)
from repro.core.framework import EpisodeReport, SEOConfig, SEOFramework

__all__ = [
    "BrakingDistanceBarrier",
    "DeadlineLookupTable",
    "EnergyColumns",
    "EpisodeReport",
    "LookupGrid",
    "ModelSet",
    "SEOConfig",
    "SEOFramework",
    "SafeIntervalEstimator",
    "SafeRuntimeScheduler",
    "SafetyInputs",
    "SchedulerStepReport",
    "SensoryModel",
    "SteeringShield",
    "baseline_interval_energy_j",
    "discretize_deadline",
    "discretize_period",
    "energy_gain",
    "expected_gating_gain",
    "gating_interval_energy_j",
    "local_inference_energy_j",
    "offload_interval_energy_j",
    "period_kernel",
]
