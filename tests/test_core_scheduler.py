"""Tests for the Algorithm-1 runtime scheduler."""

import numpy as np
import pytest

from repro.core.energy import (
    baseline_interval_energy_j,
    gating_interval_energy_j,
)
from repro.core.models import ModelSet, SensoryModel
from repro.core.safety import SafetyInputs
from repro.core.scheduler import EnergyColumns, SafeRuntimeScheduler, charge_period_kernel
from repro.dynamics.state import ControlAction
from repro.platform.compute import ComputeProfile
from repro.platform.presets import DRIVE_PX2_RESNET152, ZED_CAMERA, ZERO_POWER_SENSOR

TAU = 0.02
SAFE_INPUTS = SafetyInputs(distance_m=30.0, bearing_rad=0.0, speed_mps=8.0)
CONTROL = ControlAction()


def _model_set() -> ModelSet:
    return ModelSet.from_models(
        [
            SensoryModel(
                name="vae",
                period_s=TAU,
                compute=ComputeProfile(name="vae", latency_s=0.004, power_w=4.0),
                sensor=ZERO_POWER_SENSOR,
                critical=True,
            ),
            SensoryModel(
                name="det-fast", period_s=TAU, compute=DRIVE_PX2_RESNET152,
                sensor=ZED_CAMERA,
            ),
            SensoryModel(
                name="det-slow", period_s=2 * TAU, compute=DRIVE_PX2_RESNET152,
                sensor=ZED_CAMERA,
            ),
        ]
    )


def _scheduler(deadline_s=0.08, optimization="model_gating", max_deadline=4):
    return SafeRuntimeScheduler(
        model_set=_model_set(),
        tau_s=TAU,
        deadline_provider=lambda inputs, control: deadline_s,
        optimization=optimization,
        max_deadline_periods=max_deadline,
        rng=np.random.default_rng(0),
    )


class TestIntervalManagement:
    def test_first_step_samples_deadline(self):
        scheduler = _scheduler(deadline_s=0.08)
        report = scheduler.step(SAFE_INPUTS, CONTROL)
        assert report.new_interval
        assert report.delta_max_periods == 4
        assert scheduler.delta_max_samples == [4]

    def test_deadline_clamped_to_max(self):
        scheduler = _scheduler(deadline_s=10.0, max_deadline=4)
        report = scheduler.step(SAFE_INPUTS, CONTROL)
        assert report.delta_max_periods == 4

    def test_interval_length_follows_slowest_model(self):
        # delta_max = 4, fastest model delta_i = 1 -> its mandatory slot is at
        # n = 3, so a new interval starts at the 5th step.
        scheduler = _scheduler(deadline_s=0.08)
        new_flags = [scheduler.step(SAFE_INPUTS, CONTROL).new_interval for _ in range(8)]
        assert new_flags == [True, False, False, False, True, False, False, False]

    def test_zero_deadline_resamples_every_period(self):
        scheduler = _scheduler(deadline_s=0.0)
        new_flags = [scheduler.step(SAFE_INPUTS, CONTROL).new_interval for _ in range(3)]
        assert new_flags == [True, True, True]


class TestZeroDeadlinePath:
    """delta_max == 0: every optimizable model is done at interval start.

    The deadline provider reporting 0 means no optimization window exists at
    all — intervals must be one step long, no model may be scheduled through
    a (negative) fallback slot, and execution plus accounting must collapse
    onto the local-always baseline.
    """

    @pytest.mark.parametrize(
        "optimization", ["model_gating", "sensor_gating", "offload", "none"]
    )
    def test_one_step_intervals_and_natural_full_slots(self, optimization):
        scheduler = _scheduler(deadline_s=0.0, optimization=optimization)
        steps = [scheduler.step(SAFE_INPUTS, CONTROL) for _ in range(6)]
        assert all(report.new_interval for report in steps)
        assert all(report.interval_step == 0 for report in steps)
        assert all(report.delta_max_periods == 0 for report in steps)
        # No negative full-slot indices: with delta_max = 0 the fallback slot
        # delta_max - delta_i is negative, so full slots may only be the
        # models' natural slots (det-fast every step, det-slow every other).
        for index, report in enumerate(steps):
            assert report.full.tolist() == [True, index % 2 == 0]

    @pytest.mark.parametrize(
        "optimization", ["model_gating", "sensor_gating", "offload"]
    )
    def test_accounting_collapses_onto_baseline(self, optimization):
        scheduler = _scheduler(deadline_s=0.0, optimization=optimization)
        for _ in range(8):
            scheduler.step(SAFE_INPUTS, CONTROL)
        fields = scheduler.energy.report_fields(0)
        actual = fields["energy_by_model_j"]
        baseline = fields["baseline_by_model_j"]
        for name in ("det-fast", "det-slow"):
            assert actual[name] == pytest.approx(baseline[name])
        assert fields["gain_by_model"] == {
            "det-fast": pytest.approx(0.0),
            "det-slow": pytest.approx(0.0),
        }
        assert fields["overall_gain"] == pytest.approx(0.0)
        assert fields["offloads_issued"] == 0
        assert scheduler.delta_max_samples == [0] * 8

    def test_reset_clears_state(self):
        scheduler = _scheduler()
        for _ in range(5):
            scheduler.step(SAFE_INPUTS, CONTROL)
        scheduler.reset()
        assert not scheduler.energy.used.any()
        assert scheduler.delta_max_samples == []
        assert scheduler.step(SAFE_INPUTS, CONTROL).new_interval

    def test_validation(self):
        with pytest.raises(ValueError):
            SafeRuntimeScheduler(
                model_set=_model_set(),
                tau_s=0.0,
                deadline_provider=lambda i, c: 0.08,
            )
        with pytest.raises(ValueError):
            SafeRuntimeScheduler(
                model_set=_model_set(),
                tau_s=TAU,
                deadline_provider=lambda i, c: 0.08,
                max_deadline_periods=0,
            )
        with pytest.raises(ValueError, match="unknown optimization"):
            _scheduler(optimization="quantization")
        # Pending offloads are a 60-bit mask: the serial path refuses longer
        # deadlines, as SEOConfig does; gating keeps no mask.
        with pytest.raises(ValueError, match="at most 60"):
            _scheduler(optimization="offload", max_deadline=61)
        assert _scheduler(optimization="model_gating", max_deadline=61)


class TestDirectives:
    def test_critical_model_runs_every_natural_slot(self):
        scheduler = _scheduler()
        for _ in range(8):
            scheduler.step(SAFE_INPUTS, CONTROL)
        vae = scheduler.model_set.get("vae")
        column = scheduler.energy.names.index("vae")
        assert scheduler.energy.used[0, column] == pytest.approx(
            8 * vae.compute.energy_per_inference_j
        )

    def test_gated_model_runs_once_per_interval(self):
        scheduler = _scheduler(deadline_s=0.08, optimization="model_gating")
        local = [scheduler.step(SAFE_INPUTS, CONTROL).local[0] for _ in range(4)]
        assert local == [False, False, False, True]

    def test_short_deadline_runs_slow_model_at_natural_period(self):
        # delta_max = 1 < delta_i = 2: the slow detector keeps its native
        # schedule (full operation), per eq. (6)'s fallback branch.
        scheduler = _scheduler(deadline_s=0.02, optimization="model_gating")
        local = [scheduler.step(SAFE_INPUTS, CONTROL).local[1] for _ in range(4)]
        assert local == [True, False, True, False]


class TestEnergyAccounting:
    def test_baseline_matches_analytic_interval_energy(self):
        scheduler = _scheduler(deadline_s=0.08, optimization="model_gating")
        for _ in range(4):
            scheduler.step(SAFE_INPUTS, CONTROL)
        fast = scheduler.model_set.get("det-fast")
        baseline = scheduler.energy.report_fields(0)["baseline_by_model_j"]["det-fast"]
        assert baseline == pytest.approx(baseline_interval_energy_j(fast, TAU, 4))

    def test_gating_energy_matches_analytic_interval_energy(self):
        scheduler = _scheduler(deadline_s=0.08, optimization="model_gating")
        for _ in range(4):
            scheduler.step(SAFE_INPUTS, CONTROL)
        fast = scheduler.model_set.get("det-fast")
        optimized = scheduler.energy.report_fields(0)["energy_by_model_j"]["det-fast"]
        assert optimized == pytest.approx(
            gating_interval_energy_j(fast, TAU, 4, gate_sensor=False)
        )

    def test_local_only_strategy_has_zero_gain(self):
        scheduler = _scheduler(deadline_s=0.08, optimization="none")
        for _ in range(8):
            scheduler.step(SAFE_INPUTS, CONTROL)
        fields = scheduler.energy.report_fields(0)
        for gain in fields["gain_by_model"].values():
            assert gain == pytest.approx(0.0, abs=1e-12)
        assert fields["overall_gain"] == pytest.approx(0.0, abs=1e-12)

    def test_gating_gain_positive_and_below_one(self):
        scheduler = _scheduler(deadline_s=0.08, optimization="model_gating")
        for _ in range(16):
            scheduler.step(SAFE_INPUTS, CONTROL)
        gains = scheduler.energy.report_fields(0)["gain_by_model"]
        assert 0.0 < gains["det-fast"] < 1.0
        assert 0.0 < gains["det-slow"] < 1.0
        assert gains["det-fast"] > gains["det-slow"]

    def test_offloading_charges_transmission_energy(self):
        scheduler = _scheduler(deadline_s=0.08, optimization="offload")
        for _ in range(8):
            scheduler.step(SAFE_INPUTS, CONTROL)
        assert scheduler.energy.transmission.sum() > 0.0
        assert scheduler.energy.offloads[0] > 0

    def test_critical_model_energy_identical_to_baseline(self):
        scheduler = _scheduler(deadline_s=0.08, optimization="model_gating")
        for _ in range(8):
            scheduler.step(SAFE_INPUTS, CONTROL)
        fields = scheduler.energy.report_fields(0)
        assert fields["energy_by_model_j"]["vae"] == pytest.approx(
            fields["baseline_by_model_j"]["vae"]
        )

    def test_statistics_track_local_runs_and_gated_periods(self):
        scheduler = _scheduler(deadline_s=0.08, optimization="model_gating")
        local = [scheduler.step(SAFE_INPUTS, CONTROL).local[0] for _ in range(8)]
        assert sum(local) == 2
        assert len(local) - sum(local) == 6
        assert scheduler.delta_max_samples == [4, 4]


class TestDeadlineProviderInteraction:
    def test_provider_receives_inputs_and_control(self):
        captured = {}

        def provider(inputs, control):
            captured["inputs"] = inputs
            captured["control"] = control
            return 0.08

        scheduler = SafeRuntimeScheduler(
            model_set=_model_set(),
            tau_s=TAU,
            deadline_provider=provider,
        )
        scheduler.step(SAFE_INPUTS, ControlAction(steering=0.5))
        assert captured["inputs"] is SAFE_INPUTS
        assert captured["control"].steering == 0.5

    def test_lower_deadline_means_fewer_gated_periods(self):
        energetic = _scheduler(deadline_s=0.08, optimization="model_gating")
        cautious = _scheduler(deadline_s=0.04, optimization="model_gating")
        gated = {"energetic": 0, "cautious": 0}
        for _ in range(16):
            gated["energetic"] += not energetic.step(SAFE_INPUTS, CONTROL).local[0]
            gated["cautious"] += not cautious.step(SAFE_INPUTS, CONTROL).local[0]
        assert gated["cautious"] < gated["energetic"]
        assert (
            cautious.energy.report_fields(0)["gain_by_model"]["det-fast"]
            < energetic.energy.report_fields(0)["gain_by_model"]["det-fast"]
        )


class TestEnergyColumns:
    """The columnar ledger charges in one fixed order and reports like the old dicts."""

    def _charge(self, energy, natural, compute, transmission, measurement, issue, missed):
        charge_period_kernel(
            energy,
            np.array([0]),
            np.array(natural),
            np.array([compute], dtype=float),
            np.array([transmission], dtype=float),
            np.array([measurement], dtype=float),
            np.array([issue]),
            np.array([missed]),
        )

    def test_charges_add_in_the_serial_order(self):
        energy = EnergyColumns.create([(_model_set(), 1)], TAU)
        assert energy.names == ("vae", "det-fast", "det-slow")
        periods = [
            ([True, True, True], [0.1, 0.0], [0.0, 0.3], [0.7, 0.2]),
            ([True, True, False], [0.0, 0.0], [0.2, 0.0], [0.0, 0.6]),
            ([True, True, True], [0.3, 0.1], [0.0, 0.0], [0.7, 0.7]),
        ]
        for natural, compute, transmission, measurement in periods:
            self._charge(
                energy, natural, compute, transmission, measurement,
                [t > 0 for t in transmission], [False, False],
            )
        mechanical = energy.mechanical_j[0].tolist()
        used_total = baseline_total = 0.0
        used = [0.0, 0.0]
        for natural, compute, transmission, measurement in periods:
            for j in range(2):
                for value in (compute[j], transmission[j], measurement[j], mechanical[1 + j]):
                    used[j] += value
                    used_total += value
                for value in (
                    energy.measurement_j[0, 1 + j],
                    mechanical[1 + j],
                    energy.compute_j[1 + j] if natural[1 + j] else 0.0,
                ):
                    baseline_total += value
        assert energy.used[0, 1:].tolist() == used
        assert energy.used_total[0] == used_total
        assert energy.baseline_total[0] == baseline_total
        assert energy.transmission[0].tolist() == [0.2, 0.3]
        assert energy.offloads[0] == 2

    def test_report_fields_skip_uncharged_models(self):
        energy = EnergyColumns.create([(_model_set(), 1)], TAU)
        # Only the VAE computes; the gated detectors' cameras are measured
        # nothing this period and ZED_CAMERA has no mechanical power.
        self._charge(
            energy, [True, False, False], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
            [False, False], [False, False],
        )
        fields = energy.report_fields(0)
        assert list(fields["energy_by_model_j"]) == ["vae"]
        assert sorted(fields["baseline_by_model_j"]) == ["det-fast", "det-slow", "vae"]
        assert fields["gain_by_model"] == {"det-fast": 1.0, "det-slow": 1.0}
        assert fields["overall_gain"] == 1.0

    def test_counts_offloads_and_misses(self):
        energy = EnergyColumns.create([(_model_set(), 1)], TAU)
        self._charge(
            energy, [True, True, True], [0.0, 0.0], [0.1, 0.1], [0.0, 0.0],
            [True, True], [False, True],
        )
        fields = energy.report_fields(0)
        assert fields["offloads_issued"] == 2
        assert fields["offload_deadline_misses"] == 1
