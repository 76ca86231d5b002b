"""Energy optimization methods Omega (paper Section V) as one period kernel.

The scheduler (Algorithm 1) decides *when* a Lambda' model may be optimized
(its natural and full slots); :func:`period_kernel` decides *what happens*
in that base period and what it costs, for every ``(episode, model)`` pair
at once.  :class:`~repro.core.scheduler.SafeRuntimeScheduler` calls it
with one row, the lockstep engine (:mod:`repro.runtime.batch`) with one row
per live episode.  Each row runs its own method (:class:`ModeRows`), so
episodes of cells that differ only in the method share one call.  The
branches are the paper's equations:

* **Full slot** (eq. 6, first branch: ``delta_i >= delta_max`` at a natural
  slot, or ``n == delta_max - delta_i``): the model runs locally.
* **Offloading** (``"offload"``, Section V-A, eqs. 6-7): at an optimizable
  natural slot before the fallback slot the input is transmitted when the
  expected response ``n + delta_hat`` lands no later than the fallback slot,
  otherwise the model runs locally.  A response that arrives (a bit of the
  pending-arrival bitmask) is a fresh output without compute; one that
  lands exactly at the fallback slot supersedes the mandatory local run.
* **Gating** (``"model_gating"``/``"sensor_gating"``, Section V-B, eq. 8):
  only full slots run.  Sensor gating also switches the measurement off
  until the window that feeds the mandatory run at the fallback slot.
* **None** (``"none"``): local inference at every natural slot, the
  local-always baseline every gain is reported against.

The offload outcome is random, so it stays outside the kernel: the caller
draws the issued rows' round trips in pipeline order from the episode's
generator and :func:`offload_arrival_kernel` records their arrivals and
deadline misses.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.contracts import kernel_contract

#: Optimization methods ``SEOConfig.optimization`` accepts.
OPTIMIZATIONS = ("offload", "model_gating", "sensor_gating", "none")

#: Highest ``max_deadline_periods`` offloading accepts: pending arrivals are
#: an int64 bitmask with one bit per base period of the deadline.
MAX_OFFLOAD_DEADLINE_PERIODS = 60


class ModeRows(NamedTuple):
    """Which rows of a call run which optimization method.

    Each field is an ``(N,)`` bool mask.  Rows outside ``offload`` and
    ``none`` gate: ``"sensor_gating"`` where ``sensor_gating`` is set,
    ``"model_gating"`` elsewhere.
    """

    offload: np.ndarray
    none: np.ndarray
    sensor_gating: np.ndarray

    @classmethod
    def of(cls, optimizations: Sequence[str]) -> "ModeRows":
        """The row masks of one method name per row."""
        unknown = set(optimizations) - set(OPTIMIZATIONS)
        if unknown:
            raise ValueError(f"unknown optimization method: {sorted(unknown)[0]!r}")
        names = np.array(optimizations)
        return cls(
            offload=names == "offload",
            none=names == "none",
            sensor_gating=names == "sensor_gating",
        )

    def head(self, count: int) -> "ModeRows":
        """The methods of the first ``count`` rows, as views."""
        return ModeRows(*(column[:count] for column in self))


class PeriodOutcome(NamedTuple):
    """What every ``(episode, model)`` pair did and spent in one period."""

    fresh: np.ndarray  #: (N, M) bool — a new output exists after the period
    local: np.ndarray  #: (N, M) bool — the model ran a local inference
    issue: np.ndarray  #: (N, M) bool — an offload was transmitted
    compute_j: np.ndarray  #: (N, M) float — local inference energy
    measurement_j: np.ndarray  #: (N, M) float — sensor measurement energy
    pending: np.ndarray  #: (N, M) int64 — bitmask with this period's arrival cleared


@kernel_contract(
    natural="(M,) bool",
    full="(N, M) bool",
    interval_step="(N,) int64",
    delta_max="(N,) int64",
    delta_i="(M,) int64",
    pending="(N, M) int64",
    compute_j="(M,) float64",
    measurement_j="(N, M) float64",
    returns=(
        "(N, M) bool",
        "(N, M) bool",
        "(N, M) bool",
        "(N, M) float64",
        "(N, M) float64",
        "(N, M) int64",
    ),
)
def period_kernel(
    modes: ModeRows,
    natural: np.ndarray,
    full: np.ndarray,
    interval_step: np.ndarray,
    delta_max: np.ndarray,
    delta_i: np.ndarray,
    delta_hat: int,
    pending: np.ndarray,
    compute_j: np.ndarray,
    measurement_j: np.ndarray,
) -> PeriodOutcome:
    """One base period of eq. (6)-(8) for every ``(episode, model)`` pair.

    Args:
        modes: The method of every row.
        natural: Models at a natural slot this period.
        full: Full-slot mask of :func:`~repro.core.scheduler.full_slot_kernel`
            (at natural slots when ``delta_i >= delta_max``, else only at
            the fallback slot).
        interval_step: Period index ``n`` inside each episode's interval.
        delta_max: Discretized deadline of each episode's interval.
        delta_i: Discretized model periods.
        delta_hat: Expected offload response in base periods (read on
            offload rows only).
        pending: Pending offload arrivals, bit ``n`` set for an arrival at
            interval step ``n`` (read on offload rows only).
        compute_j: Energy of one local inference per model.
        measurement_j: Sensor measurement energy per row, model and period.
    """
    step = interval_step[:, None]
    fallback = delta_max[:, None] - delta_i[None, :]
    # The optimization window n < delta_max - delta_i: eq. (6)'s optimized
    # branch (delta_i < delta_max, as n >= 0) and never a full slot.
    window = step < fallback
    offload = modes.offload[:, None]
    # Gating runs only the full slots, local-always every natural slot.
    baseline = np.where(modes.none[:, None], natural, full)
    bit = np.int64(1) << step
    arrived = offload & ((pending & bit) != 0)
    tried = natural & window
    issue = offload & tried & (step + delta_hat <= fallback)
    # An offload row runs every full slot not superseded by an arrival and
    # every tried slot it did not offload.
    local = np.where(offload, (full & ~arrived) | (tried & ~issue), baseline)
    return PeriodOutcome(
        fresh=local | arrived,
        local=local,
        issue=issue,
        compute_j=np.where(local, compute_j, 0.0),
        measurement_j=np.where(
            modes.sensor_gating[:, None] & window, 0.0, measurement_j
        ),
        pending=np.where(offload, pending & ~bit, pending),
    )


@kernel_contract(
    pending="(N, M) int64",
    issue="(N, M) bool",
    interval_step="(N,) int64",
    delta_max="(N,) int64",
    delta_i="(M,) int64",
    response_periods="(I,) int64",
    returns=("(N, M) int64", "(N, M) bool"),
)
def offload_arrival_kernel(
    pending: np.ndarray,
    issue: np.ndarray,
    interval_step: np.ndarray,
    delta_max: np.ndarray,
    delta_i: np.ndarray,
    response_periods: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Record the arrivals of the offloads :func:`period_kernel` issued.

    ``response_periods`` holds the sampled round trip of every issued pair
    in row-major order of ``issue`` (episode by episode, models in pipeline
    order).  A response arriving after the fallback slot is a deadline
    miss, covered by the mandatory local run there (eq. 7); every other
    arrival sets its bit of ``pending``.  Returns the updated bitmask and the
    ``(N, M)`` miss mask.
    """
    response = np.zeros(issue.shape, dtype=np.int64)
    response[issue] = response_periods
    arrival = interval_step[:, None] + response
    missed = issue & (arrival > delta_max[:, None] - delta_i[None, :])
    landed = issue & ~missed
    return pending | (landed << arrival), missed
