"""Integration tests for the SEO framework facade."""

import dataclasses

import pytest

from repro.core.framework import (
    LOCKSTEP_ROW_FIELDS,
    MAX_OFFLOAD_DEADLINE_PERIODS,
    VAE_COMPUTE_PROFILE,
    SEOConfig,
    SEOFramework,
)
from repro.platform.presets import ZED_CAMERA
from repro.runtime.batch import run_batch
from repro.sim.scenario import ScenarioConfig


class TestSEOConfig:
    def test_rejects_unknown_optimization(self):
        with pytest.raises(ValueError):
            SEOConfig(optimization="dvfs")

    def test_rejects_unknown_controller(self):
        with pytest.raises(ValueError):
            SEOConfig(controller="mpc")

    def test_rejects_empty_detector_periods(self):
        with pytest.raises(ValueError):
            SEOConfig(detector_period_multiples=())

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            SEOConfig(tau_s=0.0)

    def test_rejects_deadline_below_one_period(self):
        # Refused at construction, before a WorkUnit can hash or ship it.
        with pytest.raises(ValueError, match="max_deadline_periods must be at least 1"):
            SEOConfig(max_deadline_periods=0)

    def test_offload_deadline_cap(self):
        limit = MAX_OFFLOAD_DEADLINE_PERIODS
        assert SEOConfig(max_deadline_periods=limit).max_deadline_periods == limit
        with pytest.raises(ValueError, match=f"max_deadline_periods must be at most {limit}"):
            SEOConfig(optimization="offload", max_deadline_periods=limit + 1)
        # The cap is offload's alone: the gating strategies keep no bitmask.
        for optimization in ("model_gating", "sensor_gating", "none"):
            config = SEOConfig(optimization=optimization, max_deadline_periods=limit + 1)
            assert config.max_deadline_periods == limit + 1

    def test_rejects_nonpositive_max_steps(self):
        # run_batch used to report steps = -3 where run_episode reported 0.
        with pytest.raises(ValueError, match="max_steps must be at least 1, got -3"):
            SEOConfig(max_steps=-3)

    def test_rejects_repeated_detector_period_multiples(self):
        # Used to fail only later, in ModelSet ("model names must be unique").
        with pytest.raises(ValueError, match="detector_period_multiples must not repeat"):
            SEOConfig(detector_period_multiples=(1, 1))

    def test_lockstep_key_ignores_only_the_per_row_fields(self):
        config = SEOConfig()
        per_row = dataclasses.replace(
            config,
            optimization="sensor_gating",
            filtered=False,
            detector_sensor=ZED_CAMERA,
            use_lookup_table=False,
            safety_aware=False,
        )
        assert set(LOCKSTEP_ROW_FIELDS) == {
            "optimization", "filtered", "detector_sensor", "use_lookup_table",
            "safety_aware",
        }
        assert per_row.lockstep_key() == config.lockstep_key()
        hash(config.lockstep_key())
        # Beyond the offload cap: the key is read off the fields, never
        # rebuilt through SEOConfig's validation.
        gating = SEOConfig(optimization="model_gating", max_deadline_periods=100)
        assert gating.lockstep_key() != config.lockstep_key()
        for shared in (
            {"tau_s": 0.025},
            {"max_steps": 10},
            {"seed": 1},
            {"controller": "pure_pursuit"},
            {"scenario": ScenarioConfig(num_obstacles=1)},
        ):
            assert dataclasses.replace(config, **shared).lockstep_key() != config.lockstep_key()

    def test_detector_name_is_stable(self):
        config = SEOConfig()
        assert config.detector_name(1) == "detector-p1tau"
        assert config.detector_name(2) == "detector-p2tau"


class TestSEOFrameworkConstruction:
    def test_builds_detectors_and_model_set(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        assert set(framework.detectors) == {"detector-p1tau", "detector-p2tau"}
        assert len(framework.model_set.critical) == 1
        assert len(framework.model_set.optimizable) == 2

    def test_lookup_table_built_when_requested(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        assert framework.lookup_table is not None
        without = SEOFramework(
            dataclasses.replace(fast_seo_config, use_lookup_table=False)
        )
        assert without.lookup_table is None

    def test_with_config_creates_variant(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        variant = framework.with_config(optimization="model_gating")
        assert variant.config.optimization == "model_gating"
        assert framework.config.optimization == "offload"


class TestEpisodes:
    def test_episode_report_structure(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        report = framework.run_episode(0)
        assert report.steps > 0
        assert report.duration_s == pytest.approx(report.steps * fast_seo_config.tau_s)
        assert set(report.gain_by_model) == {"detector-p1tau", "detector-p2tau"}
        assert report.delta_max_samples
        assert all(0 <= d <= fast_seo_config.max_deadline_periods for d in report.delta_max_samples)
        for name, baseline in report.baseline_by_model_j.items():
            assert baseline >= 0.0
            assert report.energy_by_model_j[name] >= 0.0

    @pytest.mark.parametrize(
        "optimization", ["none", "offload", "model_gating", "sensor_gating"]
    )
    def test_critical_vae_energy_is_never_optimized(
        self, fast_seo_config, optimization
    ):
        # Lambda'' is an energy profile: 0.004 s x 4 W = 0.016 J per base
        # period, identical to its baseline under every optimization.
        assert VAE_COMPUTE_PROFILE.energy_per_inference_j == pytest.approx(0.004 * 4.0)
        framework = SEOFramework(
            dataclasses.replace(fast_seo_config, optimization=optimization)
        )
        serial = [framework.run_episode(episode) for episode in (0, 1)]
        batch = run_batch(framework, [0, 1])
        for report in serial + batch:
            used = report.energy_by_model_j["vae-state-encoder"]
            assert used == report.baseline_by_model_j["vae-state-encoder"]
            assert used == pytest.approx(
                report.steps * VAE_COMPUTE_PROFILE.energy_per_inference_j
            )

    def test_offloading_yields_positive_gains(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        report = framework.run_episode(0)
        assert report.overall_gain > 0.0
        assert report.offloads_issued > 0

    def test_gating_yields_positive_gains(self, fast_seo_config):
        framework = SEOFramework(
            dataclasses.replace(fast_seo_config, optimization="model_gating")
        )
        report = framework.run_episode(0)
        assert report.overall_gain > 0.0
        assert report.offloads_issued == 0

    def test_no_optimization_yields_zero_gain(self, fast_seo_config):
        framework = SEOFramework(dataclasses.replace(fast_seo_config, optimization="none"))
        report = framework.run_episode(0)
        assert report.overall_gain == pytest.approx(0.0, abs=1e-9)

    def test_fast_detector_gains_at_least_slow_detector(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        report = framework.run_episode(0)
        assert (
            report.gain_by_model["detector-p1tau"]
            >= report.gain_by_model["detector-p2tau"]
        )

    def test_empty_road_reaches_maximum_deadline(self, fast_seo_config, small_lookup_grid):
        config = dataclasses.replace(
            fast_seo_config,
            scenario=ScenarioConfig(num_obstacles=0, road_length_m=40.0, seed=2),
        )
        framework = SEOFramework(config)
        report = framework.run_episode(0)
        assert report.success
        assert report.mean_delta_max == pytest.approx(config.max_deadline_periods)
        assert report.shield_interventions == 0

    def test_unfiltered_case_has_no_interventions(self, fast_seo_config):
        framework = SEOFramework(dataclasses.replace(fast_seo_config, filtered=False))
        report = framework.run_episode(0)
        assert report.shield_interventions == 0

    def test_episodes_are_reproducible(self, fast_seo_config):
        first = SEOFramework(fast_seo_config).run_episode(0)
        second = SEOFramework(fast_seo_config).run_episode(0)
        assert first.overall_gain == pytest.approx(second.overall_gain)
        assert first.steps == second.steps
        assert first.delta_max_samples == second.delta_max_samples

    def test_different_episodes_differ(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        first = framework.run_episode(0)
        second = framework.run_episode(1)
        assert (
            first.delta_max_samples != second.delta_max_samples
            or first.overall_gain != second.overall_gain
        )

    def test_run_filters_successful_episodes(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        reports = framework.run(2, only_successful=True)
        assert reports
        assert all(report.success for report in reports) or len(reports) == 2

    def test_run_rejects_nonpositive_episodes(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        with pytest.raises(ValueError):
            framework.run(0)

    def test_safety_oblivious_mode_gains_at_least_aware(self, fast_seo_config):
        aware = SEOFramework(
            dataclasses.replace(fast_seo_config, optimization="model_gating")
        ).run_episode(0)
        oblivious = SEOFramework(
            dataclasses.replace(
                fast_seo_config, optimization="model_gating", safety_aware=False
            )
        ).run_episode(0)
        assert oblivious.overall_gain >= aware.overall_gain - 1e-9
        assert oblivious.mean_delta_max >= aware.mean_delta_max
