"""Tests for the optimization methods (Omega) of the period kernel.

Every case runs :func:`period_kernel` on one ``(episode, model)`` row; the
offload cases feed fixed response periods to
:func:`offload_arrival_kernel` where the frame loops feed sampled ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.offload import OffloadPlanner
from repro.core.models import ModelSet, SensoryModel
from repro.core.optimizations import (
    OPTIMIZATIONS,
    ModeRows,
    offload_arrival_kernel,
    period_kernel,
)
from repro.core.scheduler import (
    EnergyColumns,
    SafeRuntimeScheduler,
    SchedulerState,
    begin_interval_kernel,
    charge_period_kernel,
)
from repro.platform.compute import ComputeProfile
from repro.platform.presets import DRIVE_PX2_RESNET152, NAVTECH_RADAR, ZERO_POWER_SENSOR

TAU = 0.02


def _model(period_multiple=1, sensor=NAVTECH_RADAR) -> SensoryModel:
    return SensoryModel(
        name="det",
        period_s=period_multiple * TAU,
        compute=DRIVE_PX2_RESNET152,
        sensor=sensor,
    )


def _period(optimization, n, delta_i, delta_max, model=None, natural=None, full=None,
            delta_hat=1, pending=0):
    """One period of one model; returns the outcome's scalars."""
    model = model if model is not None else _model(period_multiple=delta_i)
    natural_slot = natural if natural is not None else (n % delta_i == 0)
    if full is None:
        full = natural_slot if delta_i >= delta_max else n == delta_max - delta_i
    outcome = period_kernel(
        ModeRows.of([optimization]),
        np.array([natural_slot]),
        np.array([[full]]),
        np.array([n], dtype=np.int64),
        np.array([delta_max], dtype=np.int64),
        np.array([delta_i], dtype=np.int64),
        delta_hat,
        np.array([[pending]], dtype=np.int64),
        np.array([model.compute.energy_per_inference_j]),
        np.array([[model.sensor.measurement_power_w * TAU]]),
    )
    return outcome._replace(**{name: value[0, 0] for name, value in outcome._asdict().items()})


class _OffloadEpisode:
    """One offloading model through one-row scheduler state.

    ``response_periods`` is the realized round trip of every offload issued;
    ``delta_hat`` the planning estimate the kernel checks feasibility with.
    """

    def __init__(self, delta_hat, response_periods=None, delta_i=1, delta_max=4):
        self.delta_hat = delta_hat
        self.response_periods = (
            response_periods if response_periods is not None else delta_hat
        )
        self.delta_i = delta_i
        self.delta_max = delta_max
        self.model = _model(period_multiple=delta_i, sensor=ZERO_POWER_SENSOR)
        self.state = SchedulerState.create(1, 1)
        self.begin_interval()

    def begin_interval(self):
        begin_interval_kernel(
            self.state,
            np.array([0]),
            np.array([self.delta_max * TAU]),
            TAU,
            self.delta_max,
            np.array([self.delta_i], dtype=np.int64),
        )

    def period(self, n, natural=None, full=None):
        """Run interval step ``n``; returns ``(outcome scalars, missed)``."""
        outcome = _period(
            "offload", n, self.delta_i, self.delta_max, model=self.model,
            natural=natural, full=full, delta_hat=self.delta_hat,
            pending=int(self.state.pending[0, 0]),
        )
        pending = np.array([[outcome.pending]], dtype=np.int64)
        missed = False
        if outcome.issue:
            pending, missed_mask = offload_arrival_kernel(
                pending,
                np.array([[True]]),
                np.array([n], dtype=np.int64),
                np.array([self.delta_max], dtype=np.int64),
                np.array([self.delta_i], dtype=np.int64),
                np.array([self.response_periods], dtype=np.int64),
            )
            missed = bool(missed_mask[0, 0])
        self.state.pending[:] = pending
        return outcome, missed


class TestLocalOnlyStrategy:
    def test_natural_slot_runs_local(self):
        outcome = _period("none", 0, 1, 4)
        assert outcome.local and outcome.fresh
        assert outcome.compute_j == pytest.approx(0.119)

    def test_off_slot_only_sensor(self):
        outcome = _period("none", 1, 2, 4)
        assert not outcome.local and not outcome.fresh
        assert outcome.compute_j == 0.0
        assert outcome.measurement_j > 0.0


class TestGatingStrategy:
    def test_full_slot_runs_local(self):
        outcome = _period("model_gating", 3, 1, 4)
        assert outcome.local and outcome.fresh

    def test_model_gating_keeps_measurement_on(self):
        outcome = _period("model_gating", 0, 1, 4)
        assert not outcome.local and not outcome.fresh
        assert outcome.compute_j == 0.0
        assert outcome.measurement_j == pytest.approx(TAU * 21.6)

    def test_sensor_gating_cuts_measurement_until_final_window(self):
        outcome = _period("sensor_gating", 0, 1, 4)
        assert not outcome.local
        assert outcome.measurement_j == 0.0

    def test_sensor_gating_measures_during_final_window(self):
        # delta_i = 2, delta_max = 4 -> fallback slot at n = 2; n = 3 belongs to
        # the measurement window that feeds the mandatory run.
        outcome = _period("sensor_gating", 3, 2, 4, full=False)
        assert outcome.measurement_j > 0.0

    def test_no_optimization_when_delta_i_reaches_deadline(self):
        outcome = _period("sensor_gating", 1, 2, 2, natural=False, full=False)
        assert not outcome.local and not outcome.fresh
        assert outcome.measurement_j > 0.0

    def test_interval_energy_matches_analytic_model(self):
        from repro.core.energy import gating_interval_energy_j

        model = _model(period_multiple=1)
        vae = SensoryModel(
            name="vae", period_s=TAU, critical=True,
            compute=ComputeProfile(name="vae", latency_s=0.004, power_w=4.0),
        )
        delta_max = 4
        for optimization in ("model_gating", "sensor_gating"):
            energy = EnergyColumns.create([(ModelSet.from_models([vae, model]), 1)], TAU)
            for n in range(delta_max):
                outcome = _period(optimization, n, 1, delta_max, model=model)
                charge_period_kernel(
                    energy, np.array([0]), np.array([True, True]),
                    np.array([[outcome.compute_j]]), np.zeros((1, 1)),
                    np.array([[outcome.measurement_j]]),
                    np.zeros((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool),
                )
            assert energy.used[0, 1] == pytest.approx(
                gating_interval_energy_j(
                    model, TAU, delta_max, optimization == "sensor_gating"
                )
            )


class TestOffloadStrategy:
    def _episode(self, payload=28_000, **kwargs):
        delta_hat = OffloadPlanner(payload_bytes=payload).estimated_response_periods(TAU)
        return _OffloadEpisode(delta_hat, **kwargs)

    def test_offloads_on_optimizable_natural_slot(self):
        outcome, _ = self._episode().period(0)
        assert outcome.issue
        assert not outcome.local
        assert outcome.compute_j == 0.0

    def test_full_slot_runs_local(self):
        outcome, _ = self._episode().period(3)
        assert outcome.local
        assert outcome.compute_j == pytest.approx(0.119)

    def test_response_arrives_later(self):
        episode = self._episode()
        episode.period(0)
        # The response lands one period later, producing a fresh output.
        outcome, _ = episode.period(1, natural=False, full=False)
        assert outcome.fresh and not outcome.local

    def test_infeasible_offload_runs_local_instead(self):
        # A huge payload cannot make the deadline; the model must run locally.
        outcome, _ = self._episode(payload=5_000_000).period(0)
        assert outcome.local
        assert not outcome.issue

    def test_no_optimization_when_deadline_too_short(self):
        outcome, _ = self._episode(delta_i=2, delta_max=2).period(0)
        assert outcome.local

    def test_begin_interval_clears_pending_responses(self):
        episode = self._episode()
        episode.period(0)
        assert episode.state.pending[0, 0] != 0
        episode.begin_interval()
        outcome, _ = episode.period(1, natural=False, full=False)
        assert not outcome.fresh


class TestOffloadDeadlineBoundary:
    """Regression for the exact-boundary case ``arrival == fallback_slot``.

    Issuance (``interval_step + delta_hat <= fallback_slot``) and the miss
    test (``arrival > fallback_slot``) both say a response landing exactly at
    the fallback slot meets the deadline — but the full-slot branch used to
    run the mandatory local model without ever checking pending arrivals, so
    such a response was silently dropped: transmission energy and a full
    local inference were both paid and the server output discarded.  Per
    eq. (6) the fallback local run exists to cover *late* offloads; a
    response arriving at the fallback slot supersedes it.
    """

    def test_expected_arrival_at_fallback_slot_is_feasible(self):
        # delta_i = 1, delta_max = 4 -> fallback slot at n = 3.  From n = 0 an
        # estimated 3-period round trip lands exactly on the fallback slot,
        # which still meets the deadline: the offload must be issued.
        outcome, missed = _OffloadEpisode(3).period(0)
        assert outcome.issue
        assert not missed

    def test_arrival_at_fallback_slot_supersedes_local_run(self):
        episode = _OffloadEpisode(3)
        episode.period(0)
        # n = 1, 2: nothing has arrived yet (and further offloads would land
        # past the fallback slot, so the model runs locally).
        for n in (1, 2):
            outcome, _ = episode.period(n)
            assert not outcome.issue
            assert outcome.local
        # n = 3 (the fallback slot): the response lands and replaces the
        # mandatory local run — fresh output with zero compute energy.
        fallback, _ = episode.period(3)
        assert not fallback.local
        assert fallback.fresh
        assert fallback.compute_j == 0.0

    def test_arrival_past_fallback_slot_is_a_miss(self):
        # Feasible estimate (1 period) but the realized round trip takes 4:
        # arrival = 0 + 4 > fallback slot 3, a deadline miss the fallback
        # local run must cover.
        episode = _OffloadEpisode(1, response_periods=4)
        issued, missed = episode.period(0)
        assert issued.issue
        assert missed
        fallback, _ = episode.period(3)
        assert fallback.local
        assert fallback.fresh
        assert fallback.compute_j > 0.0

    def test_arrival_strictly_before_fallback_slot_is_not_a_miss(self):
        episode = _OffloadEpisode(1, response_periods=2)
        issued, missed = episode.period(0)
        assert issued.issue
        assert not missed
        response, _ = episode.period(2, natural=False, full=False)
        assert response.fresh


class TestStrategyFactory:
    def test_known_methods(self):
        assert set(OPTIMIZATIONS) == {"none", "offload", "model_gating", "sensor_gating"}
        # Eq. (6)'s first branch is common to every method: a full slot
        # runs the local model.
        for optimization in OPTIMIZATIONS:
            outcome = _period(optimization, 3, 1, 4)
            assert outcome.local and outcome.fresh and not outcome.issue

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="quantization"):
            _period("quantization", 0, 1, 4)

    def test_planner_factory_is_used(self, two_detector_model_set):
        shared = OffloadPlanner(payload_bytes=12_345)
        scheduler = SafeRuntimeScheduler(
            model_set=two_detector_model_set,
            tau_s=TAU,
            deadline_provider=lambda inputs, control: 0.08,
            optimization="offload",
            planner=shared,
        )
        assert scheduler.planner is shared


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 6),  # interval step
            st.integers(0, 6),  # delta_max
            st.integers(0, 2**7 - 1),  # pending bitmask, one column per model
            st.integers(0, 2**7 - 1),
            st.sampled_from(OPTIMIZATIONS),  # the row's method
        ),
        min_size=1,
        max_size=6,
    ),
    step=st.integers(0, 11),
    delta_hat=st.integers(1, 4),
)
def test_stacked_rows_equal_rows_one_at_a_time(rows, step, delta_hat):
    """Both offload kernels are row-independent: N rows == N single rows,
    whether the rows share one method or each runs its own."""
    delta_i = np.array([1, 2], dtype=np.int64)
    natural = step % delta_i == 0
    interval_step = np.array([row[0] for row in rows], dtype=np.int64)
    delta_max = np.array([row[1] for row in rows], dtype=np.int64)
    pending = np.array([[row[2], row[3]] for row in rows], dtype=np.int64)
    full = np.where(
        delta_i[None, :] >= delta_max[:, None],
        natural[None, :],
        interval_step[:, None] == delta_max[:, None] - delta_i[None, :],
    )
    compute = np.array([0.119, 0.119])
    measurement = np.tile([0.4, 0.0], (len(rows), 1))
    methods = [row[4] for row in rows]
    stacked = period_kernel(
        ModeRows.of(methods), natural, full, interval_step,
        delta_max, delta_i, delta_hat, pending, compute, measurement,
    )
    for r in range(len(rows)):
        single = period_kernel(
            ModeRows.of(methods[r:r + 1]), natural, full[r:r + 1], interval_step[r:r + 1],
            delta_max[r:r + 1], delta_i, delta_hat, pending[r:r + 1], compute,
            measurement[r:r + 1],
        )
        for name, value in single._asdict().items():
            np.testing.assert_array_equal(getattr(stacked, name)[r:r + 1], value)

    # Any fixed round trips, one per issued pair in row-major order.
    issued_rows, issued_cols = np.nonzero(stacked.issue)
    response = (issued_rows + issued_cols) % 5 + 1
    arrivals = offload_arrival_kernel(
        stacked.pending, stacked.issue, interval_step, delta_max, delta_i, response
    )
    for r in range(len(rows)):
        single = offload_arrival_kernel(
            stacked.pending[r:r + 1], stacked.issue[r:r + 1], interval_step[r:r + 1],
            delta_max[r:r + 1], delta_i, response[issued_rows == r],
        )
        for stacked_value, value in zip(arrivals, single):
            np.testing.assert_array_equal(stacked_value[r:r + 1], value)
