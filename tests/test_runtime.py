"""Tests for the runtime subsystem: the process pool and the lookup-table cache."""

import dataclasses
import os

import pytest

from repro.core.framework import SEOFramework
from repro.core.intervals import SafeIntervalEstimator
from repro.runtime.batch import run_batch
from repro.runtime.cache import LookupTableCache, cache_key, set_default_cache
from repro.runtime.sweep import SweepRunner, pool_constructions, sweep_jobs


@pytest.fixture
def isolated_cache():
    """Install a fresh process-wide cache for the duration of a test."""
    cache = LookupTableCache()
    previous = set_default_cache(cache)
    yield cache
    set_default_cache(previous)


class TestParallelExecutor:
    """The process pool behind ``SweepRunner``."""

    def test_bit_identical_to_serial(self, fast_seo_config):
        """Same seeds => same energy totals, gains and delta_max samples."""
        serial = run_batch(SEOFramework(fast_seo_config), range(4))
        with SweepRunner(jobs=2) as runner:
            parallel = runner.run(sweep_jobs({"cell": fast_seo_config}, 4))["cell"]
        assert [report.episode for report in parallel] == [0, 1, 2, 3]
        for left, right in zip(serial, parallel, strict=True):
            assert left.energy_by_model_j == right.energy_by_model_j
            assert left.gain_by_model == right.gain_by_model
            assert left.delta_max_samples == right.delta_max_samples
        assert parallel == serial

    def test_bit_identical_for_gating(self, fast_seo_config):
        config = dataclasses.replace(fast_seo_config, optimization="model_gating")
        with SweepRunner(jobs=3) as runner:
            reports = runner.run(sweep_jobs({"cell": config}, 3))["cell"]
        assert reports == run_batch(SEOFramework(config), range(3))

    def test_single_job_degrades_to_serial(self, fast_seo_config):
        before = pool_constructions()
        with SweepRunner(jobs=1) as runner:
            reports = runner.run(sweep_jobs({"cell": fast_seo_config}, 2))["cell"]
        assert pool_constructions() == before
        assert reports == run_batch(SEOFramework(fast_seo_config), range(2))

    def test_nonpositive_jobs_uses_cpu_count(self):
        assert SweepRunner(jobs=0).workers == (os.cpu_count() or 1)


class TestLookupTableCache:
    def test_sweep_sharing_grid_builds_once(self, fast_seo_config, isolated_cache):
        """Three configs sharing one LookupGrid build the table exactly once."""
        variants = [
            fast_seo_config,
            dataclasses.replace(fast_seo_config, optimization="model_gating", seed=9),
            dataclasses.replace(fast_seo_config, filtered=False),
        ]
        tables = [SEOFramework(config).lookup_table for config in variants]
        assert isolated_cache.misses == 1
        assert isolated_cache.hits == 2
        assert tables[0] is tables[1] is tables[2]

    def test_different_grid_builds_again(self, fast_seo_config, isolated_cache):
        SEOFramework(fast_seo_config)
        other_grid = dataclasses.replace(fast_seo_config.lookup_grid, num_bearings=7)
        SEOFramework(dataclasses.replace(fast_seo_config, lookup_grid=other_grid))
        assert isolated_cache.misses == 2
        assert isolated_cache.hits == 0

    def test_tau_change_invalidates_key(self, fast_seo_config, isolated_cache):
        # tau changes the estimator horizon/step, which the table depends on.
        SEOFramework(fast_seo_config)
        SEOFramework(dataclasses.replace(fast_seo_config, tau_s=0.025))
        assert isolated_cache.misses == 2

    def test_cached_table_matches_direct_build(
        self, fast_estimator, small_lookup_grid
    ):
        from repro.core.lookup import DeadlineLookupTable

        cache = LookupTableCache()
        cached = cache.get_or_build(fast_estimator, grid=small_lookup_grid)
        direct = DeadlineLookupTable.build(fast_estimator, grid=small_lookup_grid)
        assert (cached.values == direct.values).all()
        assert cached.horizon_s == direct.horizon_s

    def test_cache_key_includes_barrier_and_vehicle(self, small_lookup_grid):
        base = SafeIntervalEstimator(horizon_s=0.08, step_s=0.005)
        key = cache_key(base, small_lookup_grid, 1.0)
        assert key is not None
        longer = SafeIntervalEstimator(horizon_s=0.1, step_s=0.005)
        assert cache_key(longer, small_lookup_grid, 1.0) != key
        assert cache_key(base, small_lookup_grid, 2.0) != key

    def test_cache_key_includes_vehicle_braking(self, small_lookup_grid):
        """Regression: estimators differing only in vehicle max_brake_mps2
        must not share a cached table (it drives negative-throttle rollouts)."""
        from repro.dynamics.bicycle import KinematicBicycleModel
        from repro.dynamics.params import VehicleParams

        strong = SafeIntervalEstimator(
            dynamics=KinematicBicycleModel(VehicleParams(max_brake_mps2=7.0)),
            horizon_s=0.08,
            step_s=0.005,
        )
        weak = SafeIntervalEstimator(
            dynamics=KinematicBicycleModel(VehicleParams(max_brake_mps2=1.0)),
            horizon_s=0.08,
            step_s=0.005,
        )
        assert cache_key(strong, small_lookup_grid, 1.0) != cache_key(
            weak, small_lookup_grid, 1.0
        )

class TestImportPath:
    def test_framework_build_keeps_asyncio_unimported(self):
        """Building a framework (and importing the runtime and CLI) from a
        fresh interpreter does not load asyncio, which would add to the
        set-up cost of every run."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import sys\n"
            "import repro.cli, repro.runtime\n"
            "from repro.core.framework import SEOConfig, SEOFramework\n"
            "SEOFramework(SEOConfig())\n"
            "loaded = sorted({'asyncio'} & set(sys.modules))\n"
            "print(','.join(loaded))\n"
        )
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            entry for entry in (src_dir, env.get("PYTHONPATH")) if entry
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        assert proc.stdout.strip() == ""
