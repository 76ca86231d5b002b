"""Tests for the runtime subsystem: executors and the lookup-table cache."""

import dataclasses

import pytest

from repro.core.framework import SEOFramework
from repro.core.intervals import SafeIntervalEstimator
from repro.runtime.cache import LookupTableCache, cache_key, set_default_cache
from repro.runtime.executor import ParallelExecutor, SerialExecutor


@pytest.fixture
def isolated_cache():
    """Install a fresh process-wide cache for the duration of a test."""
    cache = LookupTableCache()
    previous = set_default_cache(cache)
    yield cache
    set_default_cache(previous)


class TestSerialExecutor:
    def test_matches_framework_run(self, fast_seo_config):
        expected = SEOFramework(fast_seo_config).run(3)
        assert SerialExecutor().run(fast_seo_config, 3) == expected

    def test_reuses_prebuilt_framework(self, fast_seo_config, executor_spy):
        framework = SEOFramework(fast_seo_config)
        executor = SerialExecutor(framework=framework)
        executor.run(fast_seo_config, 1)
        assert executor_spy.built == []
        assert executor_spy.calls == [[framework]]

    def test_rejects_nonpositive_episodes(self, fast_seo_config):
        with pytest.raises(ValueError):
            SerialExecutor().run(fast_seo_config, 0)


class TestParallelExecutor:
    def test_bit_identical_to_serial(self, fast_seo_config):
        """Same seeds => same energy totals, gains and delta_max samples."""
        serial = SerialExecutor().run(fast_seo_config, 4)
        parallel = ParallelExecutor(jobs=2).run(fast_seo_config, 4)
        assert [report.episode for report in parallel] == [0, 1, 2, 3]
        for left, right in zip(serial, parallel, strict=True):
            assert left.energy_by_model_j == right.energy_by_model_j
            assert left.gain_by_model == right.gain_by_model
            assert left.delta_max_samples == right.delta_max_samples
        assert parallel == serial

    def test_bit_identical_for_gating(self, fast_seo_config):
        config = dataclasses.replace(fast_seo_config, optimization="model_gating")
        assert ParallelExecutor(jobs=3).run(config, 3) == SerialExecutor().run(config, 3)

    def test_framework_run_jobs_parameter(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        assert framework.run(3, jobs=2) == framework.run(3)

    def test_single_job_degrades_to_serial(self, fast_seo_config):
        assert ParallelExecutor(jobs=1).run(fast_seo_config, 2) == SerialExecutor().run(
            fast_seo_config, 2
        )

    def test_nonpositive_jobs_uses_cpu_count(self):
        assert ParallelExecutor(jobs=0).jobs >= 1



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

    def test_disk_persistence(self, fast_estimator, small_lookup_grid, tmp_path):
        writer = LookupTableCache(cache_dir=tmp_path)
        built = writer.get_or_build(fast_estimator, grid=small_lookup_grid)
        assert writer.misses == 1

        reader = LookupTableCache(cache_dir=tmp_path)
        loaded = reader.get_or_build(fast_estimator, grid=small_lookup_grid)
        assert reader.disk_hits == 1
        assert reader.misses == 0
        assert (loaded.values == built.values).all()
        # Second call in the same process is a memory hit.
        reader.get_or_build(fast_estimator, grid=small_lookup_grid)
        assert reader.hits == 1

    @pytest.mark.parametrize(
        "garbage",
        [
            b"this is not an npz file at all",
            b"PK\x03\x04truncated-zip-header",
            b"",
        ],
        ids=["random-bytes", "truncated-zip", "empty"],
    )
    def test_corrupt_disk_cache_is_rebuilt(
        self, fast_estimator, small_lookup_grid, tmp_path, garbage
    ):
        """A corrupt/truncated .npz is a miss: rebuild and overwrite, no error."""
        writer = LookupTableCache(cache_dir=tmp_path)
        built = writer.get_or_build(fast_estimator, grid=small_lookup_grid)
        path = writer.path_for(cache_key(fast_estimator, small_lookup_grid, 1.0))
        assert path.exists()
        path.write_bytes(garbage)

        reader = LookupTableCache(cache_dir=tmp_path)
        rebuilt = reader.get_or_build(fast_estimator, grid=small_lookup_grid)
        assert reader.misses == 1
        assert reader.disk_hits == 0
        assert (rebuilt.values == built.values).all()

        # The garbage file was overwritten with a loadable table.
        rereader = LookupTableCache(cache_dir=tmp_path)
        rereader.get_or_build(fast_estimator, grid=small_lookup_grid)
        assert rereader.disk_hits == 1

    def test_clear_resets_counters(self, fast_estimator, small_lookup_grid):
        cache = LookupTableCache()
        cache.get_or_build(fast_estimator, grid=small_lookup_grid)
        cache.clear()
        assert cache.size == 0
        assert (cache.hits, cache.disk_hits, cache.misses) == (0, 0, 0)

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

    def test_worker_initializer_propagates_cache_dir(self, tmp_path):
        from repro.runtime.cache import default_cache
        from repro.runtime.executor import _init_worker

        previous = set_default_cache(LookupTableCache())
        try:
            _init_worker(tmp_path)
            assert default_cache().cache_dir == tmp_path
            memo = default_cache()
            _init_worker(tmp_path)  # matching dir: cache (and its memo) kept
            assert default_cache() is memo
        finally:
            set_default_cache(previous)


class TestImportPath:
    def test_framework_build_keeps_asyncio_and_remote_unimported(self):
        """Building a framework (and importing the runtime and CLI) from a
        fresh interpreter loads neither asyncio nor the remote-worker module:
        only a socket sweep pays for them."""
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
            "loaded = sorted({'asyncio', 'repro.runtime.remote'} & set(sys.modules))\n"
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
