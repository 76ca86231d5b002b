"""Tests for the experiment drivers (fast settings).

These are functional tests of the harness plumbing: each driver must produce
the rows/series its paper artifact needs.  The trend assertions use relaxed
comparisons because the fast settings run very few episodes.
"""

import pytest

from repro.experiments.ablations import run_lookup_ablation, run_safety_awareness_ablation
from repro.experiments.common import (
    ExperimentSettings,
    run_configuration,
    standard_config,
    with_obstacles,
)
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.platform.presets import NAVTECH_RADAR, ZED_CAMERA, ZERO_POWER_SENSOR

FAST = ExperimentSettings(episodes=2, max_steps=700, seed=0)


class TestCommonHelpers:
    def test_standard_config_sensor_defaults(self):
        offload = standard_config(FAST, optimization="offload", filtered=True)
        gating = standard_config(FAST, optimization="model_gating", filtered=True)
        assert offload.detector_sensor == ZERO_POWER_SENSOR
        assert gating.detector_sensor == ZED_CAMERA

    def test_standard_config_sensor_override(self):
        config = standard_config(
            FAST, optimization="sensor_gating", filtered=True, detector_sensor=NAVTECH_RADAR
        )
        assert config.detector_sensor == NAVTECH_RADAR

    def test_with_obstacles(self):
        config = standard_config(FAST, optimization="offload", filtered=True)
        assert with_obstacles(config, 5).scenario.num_obstacles == 5

    def test_run_configuration_returns_summary(self):
        config = standard_config(FAST, optimization="model_gating", filtered=False)
        summary = run_configuration(config, FAST)
        assert summary.episodes == FAST.episodes
        assert summary.model_gains

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(episodes=0)


class TestFigureAndTableDrivers:
    def test_fig1_series(self):
        result = run_fig1(FAST, obstacle_counts=(0, 3))
        series = result.series("detector-p1tau")
        assert [count for count, _ in series] == [0, 3]
        # Normalized energy grows with risk for the fast detector.
        assert series[0][1] <= series[1][1] + 0.05
        assert "Fig. 1" in result.to_table()

    def test_fig5_covers_all_cells(self):
        result = run_fig5(FAST)
        assert set(result.gains) == {
            ("offload", False),
            ("offload", True),
            ("model_gating", False),
            ("model_gating", True),
        }
        for per_model in result.gains.values():
            assert set(per_model) == {"detector-p1tau", "detector-p2tau"}
        # Faster detector benefits at least as much as the slower one.
        for per_model in result.gains.values():
            assert per_model["detector-p1tau"] >= per_model["detector-p2tau"] - 0.02
        assert "Fig. 5" in result.to_table()

    def test_table1_rows_and_average(self):
        result = run_table1(FAST)
        assert len(result.rows) == 4
        row = result.row("offload", True)
        assert row.average_gain == pytest.approx(0.5 * (row.gain_p1 + row.gain_p2))
        assert "Table I" in result.to_table()

    def test_fig6_histograms(self):
        result = run_fig6(FAST, obstacle_counts=(0, 4))
        histogram_open = result.histogram("model_gating", 0)
        histogram_risky = result.histogram("model_gating", 4)
        assert histogram_open.frequency(4) >= histogram_risky.frequency(4)
        assert result.average_gains[("model_gating", 0)] >= result.average_gains[
            ("model_gating", 4)
        ] - 0.02
        assert "Fig. 6" in result.to_table()

    def test_fig6_table_frequencies_sum_to_100(self):
        result = run_fig6(FAST, obstacle_counts=(0, 4))
        lines = result.to_table().splitlines()
        headers = [cell.strip() for cell in lines[1].split("|")]
        columns = [i for i, header in enumerate(headers) if header.startswith("freq(")]
        assert [headers[i] for i in columns] == [
            f"freq(dmax={delta}) [%]" for delta in range(5)
        ]
        rows = [[cell.strip() for cell in line.split("|")] for line in lines[3:]]
        assert len(rows) == 4
        for row in rows:
            # Each rendered frequency is rounded to 3 decimals.
            assert sum(float(row[i]) for i in columns) == pytest.approx(100.0, abs=0.003)

    def test_table2_rows(self):
        result = run_table2(FAST, obstacle_counts=(0, 4))
        assert len(result.rows) == 4
        open_road = result.row(False, 0)
        risky = result.row(False, 4)
        assert open_road.offloading_gain >= risky.offloading_gain - 0.02
        assert open_road.mean_delta_max >= risky.mean_delta_max
        assert "Table II" in result.to_table()

    def test_table3_matches_paper_4tau_column(self):
        result = run_table3(FAST)
        assert len(result.rows) == 6
        camera = result.row("zed-stereo-camera", 1)
        radar = result.row("navtech-cts350x-radar", 1)
        lidar = result.row("velodyne-hdl32e-lidar", 1)
        assert camera.four_tau_gain == pytest.approx(0.75, abs=0.01)
        assert radar.four_tau_gain == pytest.approx(0.689, abs=0.01)
        assert lidar.four_tau_gain == pytest.approx(0.648, abs=0.01)
        # Paper ordering: camera > radar > lidar, and p=tau > p=2tau.
        assert camera.average_gain >= radar.average_gain >= lidar.average_gain - 0.02
        assert camera.average_gain >= result.row("zed-stereo-camera", 2).average_gain
        assert "Table III" in result.to_table()

    def test_unknown_rows_raise(self):
        result = run_table1(FAST)
        with pytest.raises(KeyError):
            result.row("offload", None)


class TestScenarioSuite:
    def test_default_suite_families(self):
        from repro.sim.scenario import DEFAULT_SUITE

        names = DEFAULT_SUITE.names()
        for expected in ("obstacle-course", "dense-traffic", "high-speed-highway", "narrow-road"):
            assert expected in names

    def test_registry_round_trip(self):
        from repro.sim.scenario import ScenarioConfig, ScenarioFamily, ScenarioSuite

        suite = ScenarioSuite()
        family = ScenarioFamily("test", "a test family", ScenarioConfig(num_obstacles=1))
        suite.register(family)
        assert "test" in suite
        assert suite.get("test") is family
        assert suite.build("test", seed=7).seed == 7
        with pytest.raises(ValueError):
            suite.register(family)
        with pytest.raises(KeyError):
            suite.get("missing")

    def test_run_suite_driver(self):
        from repro.experiments.suite import run_suite

        result = run_suite(
            ExperimentSettings(episodes=1, max_steps=400),
            families=("narrow-road", "obstacle-course"),
        )
        assert [row.family for row in result.rows] == ["narrow-road", "obstacle-course"]
        row = result.row("narrow-road")
        assert 0.0 <= row.success_rate <= 1.0
        assert "Scenario suite" in result.to_table()
        with pytest.raises(KeyError):
            result.row("missing")

    def test_suite_gating_uses_camera_accounting(self):
        # Regression: sensor gating saves sensor power only, so the suite
        # must attach the camera front-end (eq. 8) like standard_config does
        # — with the zero-power default its gains would be meaningless ~0.
        from repro.experiments.suite import run_suite

        result = run_suite(
            ExperimentSettings(episodes=1, max_steps=400),
            families=("obstacle-course",),
            optimization="sensor_gating",
        )
        assert result.row("obstacle-course").average_gain > 0.0


class TestAblations:
    def test_safety_awareness_ablation(self):
        result = run_safety_awareness_ablation(FAST, num_obstacles=3)
        # Ignoring safety can only increase (or match) the energy gains.
        assert result.oblivious.average_model_gain >= result.aware.average_model_gain - 0.02
        assert result.gain_delta >= -0.02

    def test_lookup_ablation(self):
        result = run_lookup_ablation(FAST, num_obstacles=2)
        # The quantized table is conservative: it should not report larger
        # deadlines than the exact evaluation (small tolerance for sampling).
        assert result.lookup.mean_delta_max <= result.exact.mean_delta_max + 0.3
        assert result.lookup.episodes == FAST.episodes
