"""Tests for the sweep engine (`repro.runtime.sweep`)."""

import dataclasses
import math
import multiprocessing
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.framework import SEOFramework
from repro.experiments.common import ExperimentSettings, standard_config
from repro.experiments.fig5 import FIG5_METHODS
from repro.runtime import batch as engine
from repro.runtime.sweep import (
    EXECUTOR_BACKENDS,
    SweepJob,
    SweepRunner,
    resolve_jobs,
    split_ranges,
    sweep_jobs,
)
from repro.sim.road import ArcSegment, StraightSegment


def _exploding_task(ranges):
    """Stand-in pool task (module level, so a process pool can pickle it)."""
    raise RuntimeError("boom")


def _dying_task(ranges):
    """Stand-in pool task whose worker process dies while running its chunk."""
    os._exit(1)


class _InlinePool:
    """Stand-in for ``ProcessPoolExecutor`` that runs each task at submit.

    The tasks run in this process, so spies on the sweep module see the
    engine calls a real pool's workers would make.
    """

    def __init__(self, max_workers, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def _alone(config, episodes):
    """The reference: ``config``'s first episodes in one engine call of their own."""
    return engine.run_batch(SEOFramework(config), range(episodes))


def _run_config(runner, config, episodes):
    """Run one config through ``runner`` and return its reports."""
    return runner.run(sweep_jobs({"job": config}, episodes))["job"]


def _variants(fast_seo_config):
    """A small multi-config batch mixing optimization methods and controls."""
    return {
        "offload": fast_seo_config,
        "gating": dataclasses.replace(fast_seo_config, optimization="model_gating"),
        "unfiltered": dataclasses.replace(fast_seo_config, filtered=False),
    }


class TestSweepJob:
    def test_rejects_nonpositive_episodes(self, fast_seo_config):
        with pytest.raises(ValueError):
            SweepJob(label="x", config=fast_seo_config, episodes=0)

    def test_sweep_jobs_helper_preserves_keys(self, fast_seo_config):
        jobs = sweep_jobs(_variants(fast_seo_config), episodes=2)
        assert [job.label for job in jobs] == ["offload", "gating", "unfiltered"]
        assert all(job.episodes == 2 for job in jobs)


class TestSweepRunnerSerial:
    def test_matches_serial_per_config_path(self, fast_seo_config):
        configs = _variants(fast_seo_config)
        runner = SweepRunner(jobs=1)
        batch = runner.run(sweep_jobs(configs, episodes=2))
        for key, config in configs.items():
            assert batch[key] == _alone(config, 2)

    def test_serial_runner_never_builds_a_pool(self, fast_seo_config, recorded_pools):
        runner = SweepRunner(jobs=1)
        runner.run(sweep_jobs(_variants(fast_seo_config), episodes=1))
        assert recorded_pools == []

    def test_empty_batch(self):
        runner = SweepRunner(jobs=1)
        assert runner.run([]) == {}

    def test_duplicate_labels_rejected(self, fast_seo_config):
        jobs = [
            SweepJob(label="same", config=fast_seo_config, episodes=1),
            SweepJob(label="same", config=fast_seo_config, episodes=1),
        ]
        with pytest.raises(ValueError):
            SweepRunner(jobs=1).run(jobs)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=2, backend="rayon")


class TestSweepRunnerParallel:
    def test_bit_identical_to_serial_per_config(self, fast_seo_config):
        """Acceptance: a multi-config parallel sweep == the serial path."""
        configs = _variants(fast_seo_config)
        runner = SweepRunner(jobs=2)
        batch = runner.run(sweep_jobs(configs, episodes=3))
        for key, config in configs.items():
            expected = _alone(config, 3)
            assert [report.episode for report in batch[key]] == [0, 1, 2]
            assert batch[key] == expected

    def test_each_run_owns_its_pool(self, fast_seo_config, recorded_pools):
        """A pool lives for one run() call: two batches build two pools,
        and no worker outlives either call."""
        children = set(multiprocessing.active_children())
        runner = SweepRunner(jobs=2)
        for seed in (5, 9):
            config = dataclasses.replace(fast_seo_config, seed=seed)
            assert _run_config(runner, config, 2) == _alone(config, 2)
            assert set(multiprocessing.active_children()) <= children
        assert len(recorded_pools) == 2

    def test_pool_forks_no_more_workers_than_chunks(self, fast_seo_config, recorded_pools):
        """Two episodes are two chunks: a 4-job pool forks only two workers."""
        reports = _run_config(SweepRunner(jobs=4), fast_seo_config, 2)
        assert [pool.size for pool in recorded_pools] == [2]
        assert reports == _alone(fast_seo_config, 2)

    def test_pool_grows_for_a_batch_with_more_chunks(self, fast_seo_config, recorded_pools):
        """Each run sizes its own pool to min(jobs, chunks), so a batch with
        more chunks gets more workers and a smaller later batch gets fewer;
        the first batch, one chunk, builds none."""
        runner = SweepRunner(jobs=3)
        _run_config(runner, fast_seo_config, 1)
        config = dataclasses.replace(fast_seo_config, seed=9)
        reports = _run_config(runner, config, 3)
        _run_config(runner, fast_seo_config, 2)
        assert [pool.size for pool in recorded_pools] == [3, 2]
        assert reports == _alone(config, 3)

    def test_single_chunk_batch_runs_in_process(self, fast_seo_config, recorded_pools):
        """A 1-episode batch is one chunk at any jobs: it builds no pool and
        returns the in-process reports."""
        reports = _run_config(SweepRunner(jobs=2), fast_seo_config, 1)
        assert recorded_pools == []
        assert reports == _run_config(SweepRunner(jobs=1), fast_seo_config, 1)

    def test_auto_jobs_resolves_to_cpu_count(self):
        assert SweepRunner(jobs=0).workers == resolve_jobs(0)
        assert SweepRunner(jobs=0).workers >= 1

    def test_failing_episode_fails_fast(self, fast_seo_config, monkeypatch, recorded_pools):
        """A raising worker task surfaces immediately and tears the pool down."""
        from repro.runtime import sweep as sweep_module

        monkeypatch.setattr(sweep_module, "run_ranges", _exploding_task)
        children = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="boom"):
            SweepRunner(jobs=2, backend="process").run(
                sweep_jobs({"a": fast_seo_config}, episodes=3)
            )
        # Three episodes are two chunks, so the task ran in a worker.
        assert [pool.size for pool in recorded_pools] == [2]
        # Cancelled and shut down, not drained: no worker outlives run().
        assert set(multiprocessing.active_children()) <= children

    def test_lost_worker_breaks_the_pool_and_a_rerun_rebuilds_it(
        self, fast_seo_config, monkeypatch, recorded_pools
    ):
        """A worker process that dies mid-chunk fails the batch promptly; the
        next batch gets a fresh pool and the in-process reports."""
        from repro.runtime import sweep as sweep_module

        jobs = sweep_jobs(_variants(fast_seo_config), episodes=2)
        expected = SweepRunner(jobs=1).run(jobs)
        run_ranges = sweep_module.run_ranges
        monkeypatch.setattr(sweep_module, "run_ranges", _dying_task)
        children = set(multiprocessing.active_children())
        runner = SweepRunner(jobs=2, backend="process")
        started = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            runner.run(jobs)
        assert time.monotonic() - started < 60.0
        assert set(multiprocessing.active_children()) <= children
        monkeypatch.setattr(sweep_module, "run_ranges", run_ranges)
        assert runner.run(jobs) == expected
        # Six episodes of one lockstep group are two chunks per batch.
        assert [pool.size for pool in recorded_pools] == [2, 2]


class TestSplitRanges:
    @pytest.mark.parametrize(
        ("episodes", "parts"), [((2, 2, 2, 2), 3), ((5,), 2), ((1, 4, 2), 4), ((1,), 8)]
    )
    def test_chunks_cover_every_episode_once_in_order(self, episodes, parts):
        ranges = [(f"unit{index}", 0, count) for index, count in enumerate(episodes)]
        chunks = split_ranges(ranges, parts)
        flat = [
            (item, episode)
            for chunk in chunks
            for item, start, stop in chunk
            for episode in range(start, stop)
        ]
        assert flat == [
            (item, episode) for item, start, stop in ranges for episode in range(start, stop)
        ]
        sizes = [sum(stop - start for _, start, stop in chunk) for chunk in chunks]
        assert len(chunks) == min(parts, sum(episodes))
        assert max(sizes) - min(sizes) <= 1
        assert all(stop > start for chunk in chunks for _, start, stop in chunk)

    def test_ranges_keep_their_start(self):
        assert split_ranges([("a", 3, 7)], 2) == [[("a", 3, 5)], [("a", 5, 7)]]


class TestExecutorBackends:
    def test_retired_backends_refused(self):
        assert EXECUTOR_BACKENDS == ("process", "batch")
        for backend in ("thread", "async", "fibers"):
            with pytest.raises(ValueError, match=r"choose from \('process', 'batch'\)"):
                SweepRunner(jobs=2, backend=backend)
            with pytest.raises(ValueError, match=r"choose from \('process', 'batch'\)"):
                ExperimentSettings(backend=backend)


class TestExperimentPlumbing:
    def test_settings_accept_auto_jobs_and_backends(self):
        assert ExperimentSettings(jobs=0).jobs == 0
        assert ExperimentSettings(backend="batch").backend == "batch"
        with pytest.raises(ValueError):
            ExperimentSettings(jobs=-1)
        with pytest.raises(ValueError):
            ExperimentSettings(backend="fibers")


class TestDerivedKeys:
    """A unit's identity is its config and episode range, compared by value."""

    def test_unit_key_is_config_and_range(self, fast_seo_config):
        """Job identity is the content of (config, episode range), not the label."""
        job = SweepJob(label="anything", config=fast_seo_config, episodes=2)
        relabeled = SweepJob(label="else", config=fast_seo_config, episodes=2)
        assert job.unit.key == relabeled.unit.key == (fast_seo_config, 0, 2)

    def test_key_changes_with_any_nested_field(self, fast_seo_config):
        base = SweepJob(label="x", config=fast_seo_config, episodes=2)
        reseeded = dataclasses.replace(
            fast_seo_config, scenario=dataclasses.replace(fast_seo_config.scenario, seed=99)
        )
        assert SweepJob(label="x", config=reseeded, episodes=2).unit.key != base.unit.key
        assert SweepJob(label="x", config=fast_seo_config, episodes=3).unit.key != base.unit.key

    def test_identical_units_execute_once(self, fast_seo_config, sweep_spy):
        """Two labels naming the same content share one execution."""
        jobs = [
            SweepJob(label="left", config=fast_seo_config, episodes=1),
            SweepJob(label="right", config=fast_seo_config, episodes=1),
        ]
        runner = SweepRunner(jobs=1)
        batch = runner.run(jobs)
        assert [len(cells) for cells in sweep_spy.calls] == [1]
        assert batch["left"] == batch["right"]

    def test_numpy_scalar_config_executes_once(self, fast_seo_config, sweep_spy):
        """A config built from numpy scalars equals the literal one: one run."""
        numpyish = dataclasses.replace(
            fast_seo_config,
            scenario=dataclasses.replace(
                fast_seo_config.scenario,
                num_obstacles=np.int64(fast_seo_config.scenario.num_obstacles),
                seed=np.int64(fast_seo_config.scenario.seed),
            ),
            target_speed_mps=np.float64(fast_seo_config.target_speed_mps),
            max_steps=np.int64(fast_seo_config.max_steps),
        )
        assert numpyish == fast_seo_config
        runner = SweepRunner(jobs=1)
        batch = runner.run(sweep_jobs({"literal": fast_seo_config, "numpy": numpyish}, 2))
        assert [len(cells) for cells in sweep_spy.calls] == [1]
        assert batch["literal"] == batch["numpy"] == _alone(fast_seo_config, 2)

    def test_nested_field_change_executes_twice(self, fast_seo_config, sweep_spy):
        deeper = dataclasses.replace(
            fast_seo_config,
            detector_compute=dataclasses.replace(
                fast_seo_config.detector_compute, power_w=9.9
            ),
        )
        runner = SweepRunner(jobs=1)
        batch = runner.run(sweep_jobs({"base": fast_seo_config, "deeper": deeper}, 1))
        # detector_compute is in the lockstep key: two groups, one cell each.
        assert [len(cells) for cells in sweep_spy.calls] == [1, 1]
        assert batch["deeper"] == _alone(deeper, 1)


class TestLockstepMerging:
    """In-process units that share a lockstep key run as one engine call."""

    SETTINGS = ExperimentSettings(episodes=2, max_steps=600, seed=3)

    @staticmethod
    def _count_calls(monkeypatch):
        """Record the cell count of every engine call the sweep makes."""
        from repro.runtime import sweep as sweep_module

        calls = []
        run_cells = sweep_module.run_cells

        def counting(cells, timings=None):
            calls.append(len(cells))
            return run_cells(cells, timings)

        monkeypatch.setattr(sweep_module, "run_cells", counting)
        return calls

    def _fig5_configs(self):
        return {
            (method, filtered): standard_config(
                self.SETTINGS, optimization=method, filtered=filtered
            )
            for method in FIG5_METHODS
            for filtered in (False, True)
        }

    def test_fig5_units_make_one_engine_call(self, monkeypatch):
        configs = self._fig5_configs()
        alone = {label: _alone(config, 2) for label, config in configs.items()}
        calls = self._count_calls(monkeypatch)
        runner = SweepRunner(jobs=1)
        batch = runner.run(sweep_jobs(configs, episodes=2))
        assert calls == [4]
        assert batch == alone

    def test_incompatible_cells_are_not_merged(self, fast_seo_config, monkeypatch):
        """The curved centreline, the obstacle radius, ``tau_s`` and
        ``max_steps`` shape state every row shares: one call each."""
        scenario = fast_seo_config.scenario
        configs = {
            "base": fast_seo_config,
            "curved": dataclasses.replace(
                fast_seo_config,
                scenario=dataclasses.replace(
                    scenario,
                    road_segments=(
                        StraightSegment(30.0),
                        ArcSegment(radius_m=40.0, sweep_rad=math.radians(30.0)),
                        StraightSegment(15.0),
                    ),
                ),
            ),
            "radius": dataclasses.replace(
                fast_seo_config,
                scenario=dataclasses.replace(scenario, obstacle_radius_m=1.5),
            ),
            "tau": dataclasses.replace(fast_seo_config, tau_s=0.025),
            "max_steps": dataclasses.replace(fast_seo_config, max_steps=400),
        }
        keys = {config.lockstep_key() for config in configs.values()}
        assert len(keys) == len(configs)
        alone = {label: _alone(config, 2) for label, config in configs.items()}
        calls = self._count_calls(monkeypatch)
        runner = SweepRunner(backend="batch")
        batch = runner.run(sweep_jobs(configs, episodes=2))
        assert calls == [1] * len(configs)
        assert batch == alone

    def test_straight_road_scenarios_share_one_call(self, fast_seo_config, monkeypatch):
        """Straight-road length and obstacle count are rows: one call."""
        scenario = fast_seo_config.scenario
        configs = {
            "base": fast_seo_config,
            "road": dataclasses.replace(
                fast_seo_config, scenario=dataclasses.replace(scenario, road_length_m=70.0)
            ),
            "obstacles": dataclasses.replace(
                fast_seo_config, scenario=dataclasses.replace(scenario, num_obstacles=3)
            ),
        }
        assert len({config.lockstep_key() for config in configs.values()}) == 1
        alone = {label: _alone(config, 2) for label, config in configs.items()}
        calls = self._count_calls(monkeypatch)
        runner = SweepRunner(backend="batch")
        batch = runner.run(sweep_jobs(configs, episodes=2))
        assert calls == [len(configs)]
        assert batch == alone

    def test_pool_workers_run_merged_chunks(self, sweep_spy, monkeypatch):
        """Fig. 5's four compatible units reach a three-worker pool as three
        merged engine calls, one per chunk, with the in-process reports."""
        from repro.runtime import sweep as sweep_module

        configs = self._fig5_configs()
        runner = SweepRunner(jobs=1)
        expected = runner.run(sweep_jobs(configs, episodes=2))
        sweep_spy.calls.clear()
        sizes = []

        def inline_pool(max_workers):
            sizes.append(max_workers)
            return _InlinePool(max_workers)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", inline_pool)
        runner = SweepRunner(jobs=3)
        batch = runner.run(sweep_jobs(configs, episodes=2))
        assert sizes == [3]
        assert batch == expected
        assert len(sweep_spy.calls) == 3
        label_of = {config: label for label, config in configs.items()}
        chunks = split_ranges([(label, 0, 2) for label in configs], 3)
        assert sorted(
            [label_of[framework.config] for framework in call]
            for call in sweep_spy.calls
        ) == sorted([label for label, _, _ in chunk] for chunk in chunks)
