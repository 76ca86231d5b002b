"""Tests for the edge-platform power models."""

import pytest

from repro.platform.compute import ComputeProfile
from repro.platform.presets import (
    DRIVE_PX2_RESNET152,
    NAVTECH_RADAR,
    VELODYNE_LIDAR,
    ZED_CAMERA,
    ZERO_POWER_SENSOR,
)
from repro.platform.sensors import SensorPowerSpec


class TestComputeProfile:
    def test_paper_characterization(self):
        # 17 ms at 7 W (Drive PX2 + TensorRT ResNet-152, Section VI-A).
        assert DRIVE_PX2_RESNET152.latency_s == pytest.approx(0.017)
        assert DRIVE_PX2_RESNET152.power_w == pytest.approx(7.0)
        assert DRIVE_PX2_RESNET152.energy_per_inference_j == pytest.approx(0.119)

    def test_rejects_invalid_values(self):
        with pytest.raises(ValueError):
            ComputeProfile(name="bad", latency_s=0.0, power_w=1.0)
        with pytest.raises(ValueError):
            ComputeProfile(name="bad", latency_s=0.1, power_w=-1.0)

    def test_scaled_profile(self):
        scaled = DRIVE_PX2_RESNET152.scaled(latency_factor=0.5, power_factor=2.0)
        assert scaled.latency_s == pytest.approx(0.0085)
        assert scaled.power_w == pytest.approx(14.0)

    def test_scaled_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            DRIVE_PX2_RESNET152.scaled(latency_factor=0.0)


class TestSensorPowerSpec:
    def test_paper_table3_specs(self):
        assert ZED_CAMERA.measurement_power_w == pytest.approx(1.9)
        assert ZED_CAMERA.mechanical_power_w == 0.0
        assert NAVTECH_RADAR.measurement_power_w == pytest.approx(21.6)
        assert NAVTECH_RADAR.mechanical_power_w == pytest.approx(2.4)
        assert VELODYNE_LIDAR.measurement_power_w == pytest.approx(9.6)
        assert ZERO_POWER_SENSOR.total_power_w == 0.0

    def test_sensing_energy_with_and_without_measurement(self):
        energy_on = NAVTECH_RADAR.sensing_energy_j(0.02, measurement_on=True)
        energy_off = NAVTECH_RADAR.sensing_energy_j(0.02, measurement_on=False)
        assert energy_on == pytest.approx(0.02 * 24.0)
        assert energy_off == pytest.approx(0.02 * 2.4)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            ZED_CAMERA.sensing_energy_j(-1.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            SensorPowerSpec(name="bad", measurement_power_w=-1.0)
