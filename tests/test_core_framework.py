"""Integration tests for the SEO framework facade."""

import dataclasses
import re

import numpy as np
import pytest

from repro.core.framework import (
    LOCKSTEP_ROW_FIELDS,
    LOCKSTEP_SCENARIO_FIELDS,
    MAX_OFFLOAD_DEADLINE_PERIODS,
    VAE_COMPUTE_PROFILE,
    SEOConfig,
    SEOFramework,
)
from repro.platform.presets import ZED_CAMERA
from repro.runtime.batch import run_batch
from repro.sim.road import StraightSegment
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

    def test_rejects_negative_shield_margin(self):
        # Used to build and hash, then fail in run_cells naming the shield's
        # intervention_margin_m instead of the config field.
        with pytest.raises(ValueError, match="shield_margin_m must be non-negative, got -1.0"):
            SEOConfig(shield_margin_m=-1.0)
        assert SEOConfig(shield_margin_m=0.0).shield_margin_m == 0.0

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            *(
                (name, bad, f"{name} must be finite, got {bad}")
                for name in (
                    "tau_s",
                    "target_speed_mps",
                    "shield_margin_m",
                    "barrier_clearance_m",
                    "channel_scale_mbps",
                )
                for bad in (float("nan"), float("inf"))
            ),
            *(
                (name, bad, f"{name} must be an integer, got {bad!r}")
                for name in ("seed", "max_steps", "max_deadline_periods", "payload_bytes")
                for bad in (2.5, True)
            ),
        ],
    )
    def test_rejects_non_finite_and_non_integral_values(self, field, value, message):
        # Each used to be accepted: NaN or inf then failed inside the engine
        # (tau_s: "cannot convert float NaN to integer") or ran a wrong
        # episode (target_speed_mps=nan: off road after 2 steps), and a
        # float seed or max_steps failed in numpy's seeding or the engine.
        with pytest.raises(ValueError, match=re.escape(message)):
            SEOConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        config = SEOConfig(seed=np.int64(3), max_steps=np.int32(10))
        assert (config.seed, config.max_steps) == (3, 10)

    def test_rejects_negative_seed(self):
        # Used to build and hash, then fail inside numpy's seeding with
        # "expected non-negative integer" when an episode ran.
        with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
            SEOConfig(seed=-2)
        assert SEOConfig(seed=0).seed == 0

    @pytest.mark.parametrize(
        ("field", "bad", "message", "boundary"),
        [
            ("barrier_clearance_m", -0.5, "must be non-negative, got -0.5", 0.0),
            ("payload_bytes", 0, "must be positive, got 0", 1),
            ("channel_scale_mbps", 0.0, "must be positive, got 0.0", 1e-3),
        ],
    )
    def test_rejects_bad_component_fields(self, field, bad, message, boundary):
        """Refused before the config hashes into a work unit, naming the
        config field rather than the component's own parameter name."""
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            SEOConfig(**{field: bad})
        assert getattr(SEOConfig(**{field: boundary}), field) == boundary

    def test_rejects_repeated_detector_period_multiples(self):
        # Used to fail only later, in ModelSet ("model names must be unique").
        with pytest.raises(ValueError, match="detector_period_multiples must not repeat"):
            SEOConfig(detector_period_multiples=(1, 1))

    @pytest.mark.parametrize("multiples", [(1, 2.0), (True, 2), (1, 2.5)])
    def test_rejects_non_integral_detector_period_multiples(self, multiples):
        # (1, 2.0) and (True, 2) used to equal and hash like (1, 2), so a
        # sweep ran them as one unit, yet run alone (1, 2.0) named its
        # detector detector-p2.0tau: the name a cell got depended on which
        # equal config the sweep saw first.
        message = f"detector_period_multiples must hold integers, got {multiples!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SEOConfig(detector_period_multiples=multiples)

    def test_accepts_numpy_integer_detector_period_multiples(self):
        config = SEOConfig(detector_period_multiples=(np.int64(1), np.int32(2)))
        assert config == SEOConfig()
        assert config.detector_name(config.detector_period_multiples[1]) == "detector-p2tau"

    @pytest.mark.parametrize("speed", [0.0, -1.0])
    def test_rejects_nonpositive_target_speed(self, speed):
        # target_speed_mps=-1.0 used to run all max_steps, neither colliding
        # nor completing; ScenarioConfig already refused its own field.
        with pytest.raises(ValueError, match=f"^target_speed_mps must be positive, got {speed}$"):
            SEOConfig(target_speed_mps=speed, max_steps=80)

    def test_lockstep_key_ignores_only_the_per_row_fields(self):
        config = SEOConfig()
        per_row = dataclasses.replace(
            config,
            optimization="sensor_gating",
            filtered=False,
            detector_sensor=ZED_CAMERA,
            use_lookup_table=False,
            safety_aware=False,
            target_speed_mps=6.0,
            # Every scenario field but the centreline and the obstacle radius.
            scenario=ScenarioConfig(
                road_length_m=110.0,
                road_width_m=14.0,
                num_obstacles=5,
                obstacle_zone_start_fraction=0.45,
                obstacle_motion="lateral-loop",
                obstacle_speed_mps=1.0,
                sensor_dropout_probability=0.35,
                initial_speed_mps=6.0,
                target_speed_mps=6.0,
                initial_lateral_offset_m=0.5,
                seed=9,
            ),
        )
        assert set(LOCKSTEP_ROW_FIELDS) == {
            "optimization", "filtered", "detector_sensor", "use_lookup_table",
            "safety_aware", "target_speed_mps",
        }
        assert set(LOCKSTEP_SCENARIO_FIELDS) == {"road_segments", "obstacle_radius_m"}
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
            {"scenario": ScenarioConfig(obstacle_radius_m=1.5)},
            {"scenario": ScenarioConfig(road_segments=(StraightSegment(100.0),))},
        ):
            assert dataclasses.replace(config, **shared).lockstep_key() != config.lockstep_key()

    def test_lockstep_fields_name_the_key(self):
        config = SEOConfig()
        names = [name for name, _ in config.lockstep_fields()]
        assert names[:3] == ["tau_s", "scenario.road_segments", "scenario.obstacle_radius_m"]
        assert not set(names) & set(LOCKSTEP_ROW_FIELDS)
        assert tuple(value for _, value in config.lockstep_fields()) == config.lockstep_key()

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

    @pytest.mark.parametrize("use_lookup_table", [True, False])
    def test_builds_no_generator(self, fast_seo_config, use_lookup_table, monkeypatch):
        """Every draw comes from the engine's per-episode streams: building a
        framework (and its lookup table, from an empty cache) makes no
        generator."""
        from repro.runtime import cache

        monkeypatch.setattr(cache, "_DEFAULT_CACHE", cache.LookupTableCache())
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        config = dataclasses.replace(fast_seo_config, use_lookup_table=use_lookup_table)
        framework = SEOFramework(config)
        assert (framework.lookup_table is not None) == use_lookup_table
        assert built == []


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

    def test_run_returns_every_episode(self, fast_seo_config):
        # The paper's success filter belongs to aggregate_reports alone
        # (tests/test_analysis.py): run() returns collided episodes too.
        framework = SEOFramework(fast_seo_config)
        reports = framework.run(2)
        assert [report.episode for report in reports] == [0, 1]
        assert reports == run_batch(framework, range(2))

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
