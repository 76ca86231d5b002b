"""Safe runtime control and optimization loop (paper Algorithm 1).

Algorithm 1 is written once, as batch-first kernels over ``(N,)`` episode
and ``(N, M)`` episode x model arrays; :class:`SafeRuntimeScheduler` drives
them with one row and the lockstep engine (:mod:`repro.runtime.batch`)
with one row per live episode.  Every base period:

1. when a new safe interval starts, a fresh safety expiration time
   ``Delta_max`` from the deadline provider (the lookup table ``T(x, u)`` or
   the exact estimator) is discretized to ``delta_max`` and the per-model
   ``done`` flags and pending offload arrivals reset
   (:func:`begin_interval_kernel`, lines 7-11);
2. every Lambda' model gets its natural and full slots
   (:func:`natural_slot_kernel`, :func:`full_slot_kernel`, lines 13-15) and
   :func:`~repro.core.optimizations.period_kernel` runs eq. (6)-(8) under
   the configured optimization (lines 16-21);
3. :func:`charge_period_kernel` charges the period to
   :class:`EnergyColumns`: the critical subset Lambda'' at every natural
   slot, Lambda' as the period kernel decided, and both against a
   local-always baseline;
4. the interval ends once every optimizable model has met its deadline,
   arming a new ``Delta_max`` (:func:`deadline_done_kernel`,
   :func:`finish_period_kernel`, lines 18-24).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.comm.offload import OffloadPlanner
from repro.contracts import kernel_contract
from repro.core.intervals import _MULTIPLE_TOLERANCE
from repro.core.models import ModelSet
from repro.core.optimizations import (
    MAX_OFFLOAD_DEADLINE_PERIODS,
    OPTIMIZATIONS,
    ModeRows,
    offload_arrival_kernel,
    period_kernel,
)
from repro.core.safety import SafetyInputs
from repro.dynamics.state import ControlAction

DeadlineProvider = Callable[[SafetyInputs, ControlAction], float]


# ----------------------------------------------------------------------
# Batch-first decision kernels
# ----------------------------------------------------------------------


@dataclass
class SchedulerState:
    """Structure-of-arrays per-episode interval state of Algorithm 1.

    All arrays are indexed by row (one per episode); ``done`` and
    ``pending`` have one column per optimizable (Lambda') model, in
    ``model_set.optimizable`` order.
    """

    interval_index: np.ndarray  #: (N,) int64 — index of the current interval
    interval_step: np.ndarray  #: (N,) int64 — period index inside the interval
    delta_max: np.ndarray  #: (N,) int64 — discretized deadline of the interval
    delta_max_s: np.ndarray  #: (N,) float — raw sampled deadline (seconds)
    new_delta: np.ndarray  #: (N,) bool — a new deadline must be sampled
    done: np.ndarray  #: (N, M) bool — per-model deadline-met flags
    pending: np.ndarray  #: (N, M) int64 — offload arrival bitmask (bit = step)

    @classmethod
    def create(cls, count: int, optimizable_count: int) -> "SchedulerState":
        """Initial state: every episode armed to sample its first deadline."""
        return cls(
            interval_index=np.full(count, -1, dtype=np.int64),
            interval_step=np.zeros(count, dtype=np.int64),
            delta_max=np.zeros(count, dtype=np.int64),
            delta_max_s=np.zeros(count, dtype=float),
            new_delta=np.ones(count, dtype=bool),
            done=np.zeros((count, optimizable_count), dtype=bool),
            pending=np.zeros((count, optimizable_count), dtype=np.int64),
        )

    def row_arrays(self) -> tuple[np.ndarray, ...]:
        """Every array of the state; each has one row per episode."""
        return tuple(vars(self).values())


@kernel_contract(deadlines_s="(N,) float64", returns="(N,) int64")
def discretized_deadline_kernel(
    deadlines_s: np.ndarray, tau_s: float, max_deadline_periods: int
) -> np.ndarray:
    """Vectorized ``discretize_deadline(max(0, d), tau)`` clipped to the cap.

    Elementwise equal to the scalar
    :func:`repro.core.intervals.discretize_deadline` composed with the
    scheduler's ``[0, max_deadline_periods]`` clamp (lines 7-8 of
    Algorithm 1): exact multiples of ``tau`` (within the shared float
    tolerance) round to the nearest period, everything else floors.
    """
    ratio = np.maximum(0.0, np.asarray(deadlines_s, dtype=float)) / tau_s
    nearest = ratio.round()
    exact = np.abs(ratio - nearest) <= _MULTIPLE_TOLERANCE * np.maximum(
        1.0, np.abs(nearest)
    )
    periods = np.where(exact, nearest, np.floor(ratio))
    return np.minimum(np.maximum(periods, 0), max_deadline_periods).astype(np.int64)


@kernel_contract(
    indices="(I,) int64",
    deadlines_s="(I,) float64",
    delta_i_opt="(M,) int64",
    returns="(I,) int64",
)
def begin_interval_kernel(
    state: SchedulerState,
    indices: np.ndarray,
    deadlines_s: np.ndarray,
    tau_s: float,
    max_deadline_periods: int,
    delta_i_opt: np.ndarray,
) -> np.ndarray:
    """Start a new safe interval for the rows ``indices`` (Algorithm 1 lines 7-11).

    ``deadlines_s`` holds the freshly sampled ``Delta_max`` of each row in
    ``indices``; ``delta_i_opt`` the ``(M,)`` discretized periods of the
    optimizable models.  Models with no viable optimization window
    (``delta_i >= delta_max``) are done immediately; they simply keep
    running at their natural period.  Offload responses still pending are
    superseded by the previous interval's mandatory full run and dropped.
    Returns the discretized deadlines.
    """
    deadlines_s = np.asarray(deadlines_s, dtype=float)
    periods = discretized_deadline_kernel(deadlines_s, tau_s, max_deadline_periods)
    state.delta_max_s[indices] = deadlines_s
    state.delta_max[indices] = periods
    state.interval_index[indices] += 1
    state.interval_step[indices] = 0
    state.new_delta[indices] = False
    state.done[indices] = delta_i_opt[None, :] >= periods[:, None]
    state.pending[indices] = 0
    return periods


@kernel_contract(delta_i="(M,) int64", returns="(M,) bool")
def natural_slot_kernel(global_step: int, delta_i: np.ndarray) -> np.ndarray:
    """Which models hit their natural slot this period (``n % delta_i == 0``)."""
    return global_step % delta_i == 0


@kernel_contract(
    natural="(M,) bool",
    interval_step="(N,) int64",
    delta_i_opt="(M,) int64",
    delta_max="(N,) int64",
    returns="(N, M) bool",
)
def full_slot_kernel(
    natural: np.ndarray,
    interval_step: np.ndarray,
    delta_i_opt: np.ndarray,
    delta_max: np.ndarray,
) -> np.ndarray:
    """Full-slot decision of eq. (6) as an ``(N, M)`` mask (lines 13-15).

    A model must run locally on its natural slots when its period cannot fit
    an optimization window (``delta_i >= delta_max``), otherwise exactly at
    the mandatory fallback slot ``interval_step == delta_max - delta_i``.
    """
    return np.where(
        delta_i_opt[None, :] >= delta_max[:, None],
        natural[None, :],
        interval_step[:, None] == delta_max[:, None] - delta_i_opt[None, :],
    )


@kernel_contract(
    done="(I, M) bool",
    interval_step="(I,) int64",
    delta_max="(I,) int64",
    delta_i_opt="(M,) int64",
)
def deadline_done_kernel(
    done: np.ndarray,
    interval_step: np.ndarray,
    delta_max: np.ndarray,
    delta_i_opt: np.ndarray,
) -> None:
    """Mark models whose mandatory slot was reached as done (lines 18-19).

    Updates ``done`` in place; the arrays are rows of a
    :class:`SchedulerState` (the lockstep engine passes its live prefix).
    """
    done |= (delta_i_opt[None, :] < delta_max[:, None]) & (
        interval_step[:, None] == delta_max[:, None] - delta_i_opt[None, :]
    )


@kernel_contract(done="(I, M) bool", new_delta="(I,) bool", interval_step="(I,) int64")
def finish_period_kernel(
    done: np.ndarray, new_delta: np.ndarray, interval_step: np.ndarray
) -> None:
    """End-of-period bookkeeping (lines 22-24), in place on rows of a state.

    Once every optimizable model met its deadline the safe interval ends and
    a new ``Delta_max`` is sampled next period; the interval step advances
    either way.
    """
    new_delta |= np.logical_and.reduce(done, axis=1)
    interval_step += 1




# ----------------------------------------------------------------------
# Columnar energy ledger
# ----------------------------------------------------------------------


#: :class:`EnergyColumns` fields shared by every row of a call: the model
#: columns, the per-model inference energies and the sensor-power flag.
_PER_CALL = frozenset({"names", "critical_count", "compute_j", "sensed"})


@dataclass
class EnergyColumns:
    """Per-``(episode, model)`` energy spent and its local-always baseline.

    Columns follow ``names``: the critical (Lambda'') models, then the
    optimizable (Lambda') ones, each in pipeline order.  The inference
    energy is a per-model constant and the sensor energies are per row
    (rows of different cells may carry different sensors); everything else
    accumulates one row per episode.
    """

    names: tuple[str, ...]
    critical_count: int
    compute_j: np.ndarray  #: (K,) float — energy of one local inference
    measurement_j: np.ndarray  #: (N, K) float — sensor measurement per period
    mechanical_j: np.ndarray  #: (N, K) float — sensor mechanics per period
    sensed: bool  #: some row draws sensor power (else sensor charges are 0)
    used: np.ndarray  #: (N, K) float — energy spent
    baseline: np.ndarray  #: (N, K) float — energy of local-always execution
    transmission: np.ndarray  #: (N, M) float — offload radio energy (in ``used``)
    used_total: np.ndarray  #: (N,) float — Lambda' energy spent
    baseline_total: np.ndarray  #: (N,) float — Lambda' baseline energy
    offloads: np.ndarray  #: (N,) int64 — offloads issued
    misses: np.ndarray  #: (N,) int64 — offloads that missed their deadline

    @classmethod
    def create(
        cls, cells: Sequence[tuple[ModelSet, int]], tau_s: float
    ) -> "EnergyColumns":
        """Empty accounts for ``count`` episodes of each ``(model_set, count)``.

        The model sets may differ only in their sensors: the model names,
        the Lambda''/Lambda' split and the inference energies are read off
        the first.
        """
        pipelines = [model_set.critical + model_set.optimizable for model_set, _ in cells]
        critical = len(cells[0][0].critical)
        counts = [count for _, count in cells]
        measurement_j = np.repeat(
            [[model.sensor.measurement_power_w * tau_s for model in pipeline]
             for pipeline in pipelines],
            counts,
            axis=0,
        )
        mechanical_j = np.repeat(
            [[model.sensor.mechanical_power_w * tau_s for model in pipeline]
             for pipeline in pipelines],
            counts,
            axis=0,
        )
        count, width = measurement_j.shape
        return cls(
            names=tuple(model.name for model in pipelines[0]),
            critical_count=critical,
            compute_j=np.array(
                [model.compute.energy_per_inference_j for model in pipelines[0]]
            ),
            measurement_j=measurement_j,
            mechanical_j=mechanical_j,
            sensed=bool(measurement_j.any() or mechanical_j.any()),
            used=np.zeros((count, width), dtype=float),
            baseline=np.zeros((count, width), dtype=float),
            transmission=np.zeros((count, width - critical), dtype=float),
            used_total=np.zeros(count, dtype=float),
            baseline_total=np.zeros(count, dtype=float),
            offloads=np.zeros(count, dtype=np.int64),
            misses=np.zeros(count, dtype=np.int64),
        )

    def row_arrays(self) -> tuple[np.ndarray, ...]:
        """Every array with one row per episode: each field but :data:`_PER_CALL`."""
        return tuple(
            getattr(self, field.name) for field in fields(self)
            if field.name not in _PER_CALL
        )

    def report_fields(self, row: int) -> dict[str, Any]:
        """The :class:`~repro.core.framework.EpisodeReport` energy fields of one row.

        A model appears in the energy dicts once it has been charged
        anything; gains are ``1 - used / baseline`` per Lambda' model and
        over Lambda' as a whole (0 without a baseline).
        """
        first = self.critical_count
        used = self.used[row].tolist()
        baseline = self.baseline[row].tolist()
        used_total = float(self.used_total[row])
        baseline_total = float(self.baseline_total[row])
        return {
            "energy_by_model_j": {
                name: energy for name, energy in zip(self.names, used) if energy != 0.0
            },
            "baseline_by_model_j": {
                name: energy
                for name, energy in zip(self.names, baseline)
                if energy != 0.0
            },
            "gain_by_model": {
                name: 0.0 if base <= 0 else 1.0 - spent / base
                for name, spent, base in zip(
                    self.names[first:], used[first:], baseline[first:]
                )
            },
            "overall_gain": (
                0.0 if baseline_total <= 0 else 1.0 - used_total / baseline_total
            ),
            "offloads_issued": int(self.offloads[row]),
            "offload_deadline_misses": int(self.misses[row]),
        }


@kernel_contract(
    natural="(K,) bool",
    compute_j="(I, M) float64",
    transmission_j="(I, M) float64",
    measurement_j="(I, M) float64",
    issue="(I, M) bool",
    missed="(I, M) bool",
)
def charge_period_kernel(
    energy: EnergyColumns,
    natural: np.ndarray,
    compute_j: np.ndarray,
    transmission_j: np.ndarray,
    measurement_j: np.ndarray,
    issue: np.ndarray,
    missed: np.ndarray,
) -> None:
    """Charge one base period to the first ``I`` rows of ``energy``.

    The rows charged are the live prefix: the lockstep engine keeps its
    live episodes in the leading rows, and the 1-row scheduler has one.
    Critical models run locally at every ``natural`` slot; the Lambda'
    columns take the period kernel's compute and measurement energies and
    the transmission energy of the offloads issued.  The baseline charges
    local execution at every natural slot.  Additions keep one fixed
    order, so every float is reproducible: per column compute,
    transmission, measurement, mechanical into ``used`` and measurement,
    mechanical, compute into ``baseline``; the Lambda' totals add model
    by model.  Categories that are zero in every row (no offload issued,
    no sensor power) are skipped: adding ``0.0`` changes no sum, so rows
    without sensor power may share a call with rows that have it.
    """
    rows = compute_j.shape[0]
    first = energy.critical_count
    offloaded = np.count_nonzero(issue) > 0
    sensed = energy.sensed
    natural_compute = np.where(natural, energy.compute_j, 0.0)
    used = energy.used[:rows]
    used[:, :first] += natural_compute[:first]
    used[:, first:] += compute_j
    if offloaded:
        used[:, first:] += transmission_j
    if sensed:
        sensor_j = energy.measurement_j[:rows]
        mechanical_j = energy.mechanical_j[:rows]
        used[:, :first] += sensor_j[:, :first]
        used[:, first:] += measurement_j
        used += mechanical_j
    baseline = energy.baseline[:rows]
    if sensed:
        baseline += sensor_j
        baseline += mechanical_j
    baseline += natural_compute

    used_total = energy.used_total[:rows]
    baseline_total = energy.baseline_total[:rows]
    for j in range(first, len(natural)):
        used_total += compute_j[:, j - first]
        if offloaded:
            used_total += transmission_j[:, j - first]
        if sensed:
            used_total += measurement_j[:, j - first]
            used_total += mechanical_j[:, j]
            baseline_total += sensor_j[:, j]
            baseline_total += mechanical_j[:, j]
        baseline_total += natural_compute[j]
    if offloaded:
        energy.transmission[:rows] += transmission_j
        energy.offloads[:rows] += np.add.reduce(issue, axis=1)
        energy.misses[:rows] += np.add.reduce(missed, axis=1)


# ----------------------------------------------------------------------
# Serial driver
# ----------------------------------------------------------------------


@dataclass
class SchedulerStepReport:
    """What one base period decided; the masks have one entry per Lambda' model."""

    global_step: int
    interval_index: int
    interval_step: int
    new_interval: bool
    delta_max_periods: int
    delta_max_s: float
    full: np.ndarray  #: (M,) bool — Algorithm 1 required the full model
    fresh: np.ndarray  #: (M,) bool — a new output exists after the period
    local: np.ndarray  #: (M,) bool — the output came from a local inference


class SafeRuntimeScheduler:
    """Algorithm 1 for one episode: a 1-row driver of the batch kernels."""

    def __init__(
        self,
        model_set: ModelSet,
        tau_s: float,
        deadline_provider: DeadlineProvider,
        optimization: str = "none",
        planner: OffloadPlanner | None = None,
        max_deadline_periods: int = 4,
        *,
        rng: np.random.Generator,
    ) -> None:
        """Create a scheduler.

        Args:
            model_set: The pipeline Lambda with its Lambda'/Lambda'' split.
            tau_s: Base period ``tau`` (the unified timing axis).
            deadline_provider: ``T(x, u)``: maps the current safety inputs and
                control to a safety expiration time ``Delta_max`` in seconds.
            optimization: The method applied to Lambda', one of
                :data:`~repro.core.optimizations.OPTIMIZATIONS`.
            planner: Offload round-trip model (``delta_hat`` and the sampled
                outcomes); a default planner when omitted.
            max_deadline_periods: Upper clamp on ``delta_max``; the paper's
                evaluation saturates at four base periods.
            rng: Random generator driving the wireless outcomes (each
                issued offload's :meth:`~repro.comm.offload.OffloadPlanner.sample`).
        """
        if tau_s <= 0:
            raise ValueError("tau_s must be positive")
        if max_deadline_periods < 1:
            raise ValueError("max_deadline_periods must be at least 1")
        if optimization not in OPTIMIZATIONS:
            raise ValueError(f"unknown optimization method: {optimization!r}")
        if optimization == "offload" and max_deadline_periods > MAX_OFFLOAD_DEADLINE_PERIODS:
            raise ValueError(
                f"max_deadline_periods must be at most {MAX_OFFLOAD_DEADLINE_PERIODS} "
                f"with optimization='offload', got {max_deadline_periods}"
            )
        model_set.validate()

        self.model_set = model_set
        self.tau_s = tau_s
        self.deadline_provider = deadline_provider
        self.optimization = optimization
        self.planner = planner if planner is not None else OffloadPlanner()
        self.max_deadline_periods = max_deadline_periods
        self.rng = rng

        self._delta_hat = (
            self.planner.estimated_response_periods(tau_s)
            if optimization == "offload"
            else 0
        )
        models = model_set.critical + model_set.optimizable
        self._first = len(model_set.critical)
        self._delta_i = np.array(
            [model.discretized_period(tau_s) for model in models], dtype=np.int64
        )
        self._delta_i_opt = self._delta_i[self._first:]
        self._modes = ModeRows.of([optimization])
        self._indices = np.array([0])
        self.energy = EnergyColumns.create([(model_set, 1)], tau_s)
        self.delta_max_samples: list[int] = []
        self._global_step = 0
        self._state = SchedulerState.create(1, len(self._delta_i_opt))

    def step(
        self, safety_inputs: SafetyInputs, control: ControlAction
    ) -> SchedulerStepReport:
        """Run one base period of Algorithm 1 (lines 7-24)."""
        state = self._state
        new_interval = bool(state.new_delta[0])
        if new_interval:
            delta_max_s = float(self.deadline_provider(safety_inputs, control))
            periods = begin_interval_kernel(
                state,
                self._indices,
                np.array([delta_max_s]),
                self.tau_s,
                self.max_deadline_periods,
                self._delta_i_opt,
            )
            self.delta_max_samples.append(int(periods[0]))

        natural = natural_slot_kernel(self._global_step, self._delta_i)
        natural_opt = natural[self._first:]
        full = full_slot_kernel(
            natural_opt, state.interval_step, self._delta_i_opt, state.delta_max
        )
        outcome = period_kernel(
            self._modes,
            natural_opt,
            full,
            state.interval_step,
            state.delta_max,
            self._delta_i_opt,
            self._delta_hat,
            state.pending,
            self.energy.compute_j[self._first:],
            self.energy.measurement_j[:, self._first:],
        )
        pending = outcome.pending
        transmission = np.zeros(full.shape, dtype=float)
        missed = np.zeros(full.shape, dtype=bool)
        if outcome.issue.any():
            # One draw per issued offload, in pipeline order.
            samples = [
                self.planner.sample(self.tau_s, self.rng)
                for _ in range(int(outcome.issue.sum()))
            ]
            transmission[outcome.issue] = [s.transmission_energy_j for s in samples]
            pending, missed = offload_arrival_kernel(
                pending,
                outcome.issue,
                state.interval_step,
                state.delta_max,
                self._delta_i_opt,
                np.array([s.response_periods for s in samples], dtype=np.int64),
            )
        state.pending[:] = pending
        charge_period_kernel(
            self.energy,
            natural,
            outcome.compute_j,
            transmission,
            outcome.measurement_j,
            outcome.issue,
            missed,
        )
        report = SchedulerStepReport(
            global_step=self._global_step,
            interval_index=int(state.interval_index[0]),
            interval_step=int(state.interval_step[0]),
            new_interval=new_interval,
            delta_max_periods=int(state.delta_max[0]),
            delta_max_s=float(state.delta_max_s[0]),
            full=full[0],
            fresh=outcome.fresh[0],
            local=outcome.local[0],
        )

        # Lines 18-19 and 22-23: mandatory slots mark their model done; once
        # every optimizable model met its deadline, the safe interval ends
        # and a new Delta_max is sampled next period.
        deadline_done_kernel(
            state.done, state.interval_step, state.delta_max, self._delta_i_opt
        )
        finish_period_kernel(state.done, state.new_delta, state.interval_step)
        self._global_step += 1
        return report
