"""Tests for the model-set partition and the analytic energy models."""

import pytest

from repro.core.energy import (
    baseline_interval_energy_j,
    baseline_invocations,
    expected_gating_gain,
    gating_interval_energy_j,
    local_inference_energy_j,
    sensor_period_energy_j,
)
from repro.core.models import ModelSet, SensoryModel
from repro.platform.presets import (
    DRIVE_PX2_RESNET152,
    NAVTECH_RADAR,
    VELODYNE_LIDAR,
    ZED_CAMERA,
    ZERO_POWER_SENSOR,
)

TAU = 0.02


def _model(period_multiple: int, sensor=ZED_CAMERA, critical=False) -> SensoryModel:
    return SensoryModel(
        name=f"model-p{period_multiple}",
        period_s=period_multiple * TAU,
        compute=DRIVE_PX2_RESNET152,
        sensor=sensor,
        critical=critical,
    )


class TestSensoryModel:
    def test_discretized_period(self):
        assert _model(1).discretized_period(TAU) == 1
        assert _model(2).discretized_period(TAU) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SensoryModel(name="", period_s=0.02)
        with pytest.raises(ValueError):
            SensoryModel(name="m", period_s=0.0)
        with pytest.raises(ValueError):
            SensoryModel(name="m", period_s=0.02, payload_bytes=0)


class TestModelSet:
    def test_partition(self):
        model_set = ModelSet.from_models(
            [_model(1, critical=True), _model(2), _model(3)]
        )
        assert len(model_set.critical) == 1
        assert len(model_set.optimizable) == 2

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ModelSet(models=[_model(1), _model(1)])

    def test_validate_requires_both_subsets(self):
        with pytest.raises(ValueError):
            ModelSet.from_models([_model(1), _model(2)])
        with pytest.raises(ValueError):
            ModelSet.from_models([_model(1, critical=True)])

    def test_get_and_iteration(self):
        models = [_model(1, critical=True), _model(2)]
        model_set = ModelSet.from_models(models)
        assert model_set.get("model-p2") is models[1]
        with pytest.raises(KeyError):
            model_set.get("missing")
        assert list(model_set) == models
        assert len(model_set) == 2


class TestAnalyticEnergyModels:
    def test_local_inference_energy(self):
        assert local_inference_energy_j(_model(1)) == pytest.approx(0.119)

    def test_sensor_period_energy(self):
        model = _model(1, sensor=NAVTECH_RADAR)
        assert sensor_period_energy_j(model, TAU, measurement_on=True) == pytest.approx(
            TAU * 24.0
        )
        assert sensor_period_energy_j(model, TAU, measurement_on=False) == pytest.approx(
            TAU * 2.4
        )

    def test_baseline_invocations(self):
        assert baseline_invocations(4, 1) == 4
        assert baseline_invocations(4, 2) == 2
        assert baseline_invocations(3, 2) == 2
        assert baseline_invocations(0, 2) == 0

    def test_baseline_interval_energy(self):
        model = _model(1, sensor=ZERO_POWER_SENSOR)
        assert baseline_interval_energy_j(model, TAU, 4) == pytest.approx(4 * 0.119)

    def test_gating_reduces_to_baseline_when_not_applicable(self):
        model = _model(2)
        assert gating_interval_energy_j(model, TAU, 2, gate_sensor=True) == pytest.approx(
            baseline_interval_energy_j(model, TAU, 2)
        )

    # ------------------------------------------------------------------
    # The paper's Table III 4-tau column, reproduced analytically.
    # ------------------------------------------------------------------
    @pytest.mark.parametrize(
        "sensor, period_multiple, expected_percent",
        [
            (ZED_CAMERA, 1, 75.0),
            (ZED_CAMERA, 2, 50.0),
            (NAVTECH_RADAR, 1, 68.93),
            (NAVTECH_RADAR, 2, 45.53),
            (VELODYNE_LIDAR, 1, 64.82),
            (VELODYNE_LIDAR, 2, 41.91),
        ],
    )
    def test_sensor_gating_4tau_gains_match_paper(
        self, sensor, period_multiple, expected_percent
    ):
        model = _model(period_multiple, sensor=sensor)
        gain = expected_gating_gain(model, TAU, delta_max=4, gate_sensor=True).gain
        assert 100.0 * gain == pytest.approx(expected_percent, abs=0.5)

    def test_model_gating_saves_less_than_sensor_gating(self):
        model = _model(1, sensor=NAVTECH_RADAR)
        sensor_gated = gating_interval_energy_j(model, TAU, 4, gate_sensor=True)
        model_gated = gating_interval_energy_j(model, TAU, 4, gate_sensor=False)
        assert sensor_gated < model_gated < baseline_interval_energy_j(model, TAU, 4)

    def test_interval_gain_clamps_at_zero(self):
        gain = expected_gating_gain(_model(2), TAU, delta_max=1, gate_sensor=False).gain
        assert gain == 0.0
