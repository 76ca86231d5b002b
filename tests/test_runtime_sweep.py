"""Tests for the shared-pool sweep engine (`repro.runtime.sweep`)."""

import dataclasses
import math
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.common import ExperimentSettings, run_batch, standard_config
from repro.experiments.fig5 import FIG5_METHODS
from repro.runtime.executor import SerialExecutor, resolve_jobs
from repro.runtime.sweep import (
    EXECUTOR_BACKENDS,
    SweepJob,
    SweepRunner,
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
        with SweepRunner(jobs=1) as runner:
            batch = runner.run(sweep_jobs(configs, episodes=2))
        for key, config in configs.items():
            assert batch[key] == SerialExecutor().run(config, 2)

    def test_serial_runner_never_builds_a_pool(self, fast_seo_config):
        runner = SweepRunner(jobs=1)
        runner.run(sweep_jobs(_variants(fast_seo_config), episodes=1))
        assert runner.pools_created == 0
        runner.close()

    def test_empty_batch(self):
        with SweepRunner(jobs=1) as runner:
            assert runner.run([]) == {}

    def test_duplicate_labels_rejected(self, fast_seo_config):
        jobs = [
            SweepJob(label="same", config=fast_seo_config, episodes=1),
            SweepJob(label="same", config=fast_seo_config, episodes=1),
        ]
        with SweepRunner(jobs=1) as runner, pytest.raises(ValueError):
            runner.run(jobs)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=2, backend="rayon")


class TestSweepRunnerParallel:
    def test_bit_identical_to_serial_per_config(self, fast_seo_config):
        """Acceptance: a multi-config parallel sweep == the serial path."""
        configs = _variants(fast_seo_config)
        with SweepRunner(jobs=2) as runner:
            batch = runner.run(sweep_jobs(configs, episodes=3))
        for key, config in configs.items():
            expected = SerialExecutor().run(config, 3)
            assert [report.episode for report in batch[key]] == [0, 1, 2]
            assert batch[key] == expected

    def test_single_pool_across_batches(self, fast_seo_config):
        """The shared pool is created once and reused by later batches."""
        with SweepRunner(jobs=2) as runner:
            runner.run(sweep_jobs({"a": fast_seo_config}, episodes=2))
            runner.run(
                sweep_jobs(
                    {"b": dataclasses.replace(fast_seo_config, seed=9)}, episodes=2
                )
            )
            assert runner.pools_created == 1

    def test_run_one_convenience(self, fast_seo_config):
        with SweepRunner(jobs=2) as runner:
            reports = runner.run_one(fast_seo_config, 2)
        assert reports == SerialExecutor().run(fast_seo_config, 2)

    def test_auto_jobs_resolves_to_cpu_count(self):
        assert SweepRunner(jobs=0).workers == resolve_jobs(0)
        assert SweepRunner(jobs=0).workers >= 1

    def test_run_after_close_raises(self, fast_seo_config):
        runner = SweepRunner(jobs=2)
        runner.close()
        with pytest.raises(RuntimeError):
            runner.run(sweep_jobs({"a": fast_seo_config}, episodes=1))

    def test_failing_episode_fails_fast(self, fast_seo_config, monkeypatch):
        """A raising worker task surfaces immediately and tears the pool down."""
        from repro.runtime import sweep as sweep_module

        monkeypatch.setattr(sweep_module, "run_ranges", _exploding_task)
        runner = SweepRunner(jobs=2, backend="process")
        with pytest.raises(RuntimeError, match="boom"):
            runner.run(sweep_jobs({"a": fast_seo_config}, episodes=3))
        assert runner._pool is None  # cancelled and shut down, not drained
        runner.close()

    def test_lost_worker_breaks_the_pool_and_a_rerun_rebuilds_it(
        self, fast_seo_config, monkeypatch
    ):
        """A worker process that dies mid-chunk fails the batch promptly; the
        next batch gets a fresh pool and the in-process reports."""
        from repro.runtime import sweep as sweep_module

        jobs = sweep_jobs(_variants(fast_seo_config), episodes=2)
        with SweepRunner(jobs=1) as serial:
            expected = serial.run(jobs)
        monkeypatch.setattr(sweep_module, "run_ranges", _dying_task)
        with SweepRunner(jobs=2, backend="process") as runner:
            started = time.monotonic()
            with pytest.raises(BrokenProcessPool):
                runner.run(jobs)
            assert time.monotonic() - started < 60.0
            assert runner._pool is None
            monkeypatch.undo()
            assert runner.run(jobs) == expected
            assert runner.pools_created == 2


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
        assert EXECUTOR_BACKENDS == ("process", "socket", "batch")
        for backend in ("thread", "async", "fibers"):
            with pytest.raises(ValueError, match=r"choose from \('process', 'socket', 'batch'\)"):
                SweepRunner(jobs=2, backend=backend)
            with pytest.raises(ValueError, match=r"choose from \('process', 'socket', 'batch'\)"):
                ExperimentSettings(backend=backend)


class TestExperimentPlumbing:
    def test_run_batch_uses_shared_runner(self, fast_seo_config):
        """Drivers funnel their batches into settings.runner when provided."""
        seen = []

        class RecordingRunner(SweepRunner):
            def run(self, jobs, experiment=None):
                seen.append([job.label for job in jobs])
                return super().run(jobs, experiment=experiment)

        runner = RecordingRunner(jobs=1)
        settings = ExperimentSettings(episodes=1, max_steps=200, runner=runner)
        batch = run_batch({"only": fast_seo_config}, settings)
        assert seen == [["only"]]
        assert set(batch) == {"only"}

    def test_settings_accept_auto_jobs_and_backends(self):
        assert ExperimentSettings(jobs=0).jobs == 0
        assert ExperimentSettings(backend="batch").backend == "batch"
        with pytest.raises(ValueError):
            ExperimentSettings(jobs=-1)
        with pytest.raises(ValueError):
            ExperimentSettings(backend="fibers")


class TestDerivedKeys:
    def test_job_key_is_derived_content_hash(self, fast_seo_config):
        """Job identity is the content of (config, episode range), not the label."""
        job = SweepJob(label="anything", config=fast_seo_config, episodes=2)
        relabeled = SweepJob(label="else", config=fast_seo_config, episodes=2)
        assert job.key == relabeled.key
        assert len(job.key) == 64 and int(job.key, 16) >= 0

    def test_key_changes_with_any_nested_field(self, fast_seo_config):
        base = SweepJob(label="x", config=fast_seo_config, episodes=2)
        reseeded = dataclasses.replace(
            fast_seo_config, scenario=dataclasses.replace(fast_seo_config.scenario, seed=99)
        )
        assert SweepJob(label="x", config=reseeded, episodes=2).key != base.key
        assert SweepJob(label="x", config=fast_seo_config, episodes=3).key != base.key

    def test_identical_units_execute_once(self, fast_seo_config):
        """Two labels naming the same content share one execution."""
        jobs = [
            SweepJob(label="left", config=fast_seo_config, episodes=1),
            SweepJob(label="right", config=fast_seo_config, episodes=1),
        ]
        with SweepRunner(jobs=1) as runner:
            batch = runner.run(jobs)
        assert runner.units_executed == 1
        assert batch["left"] == batch["right"]


class TestPoolConstructionCounter:
    def test_reset_returns_previous_value(self, fast_seo_config):
        from repro.runtime import sweep as sweep_module

        with SweepRunner(jobs=2, backend="process") as runner:
            runner.run(sweep_jobs({"a": fast_seo_config}, episodes=2))
        before = sweep_module.pool_constructions()
        assert before >= 1
        assert sweep_module.reset_pool_constructions() == before
        assert sweep_module.pool_constructions() == 0

    def test_increments_are_thread_safe(self):
        import threading

        from repro.runtime import sweep as sweep_module

        sweep_module.reset_pool_constructions()
        increments = 200
        threads = [
            threading.Thread(
                target=lambda: [
                    sweep_module._count_pool_construction() for _ in range(increments)
                ]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sweep_module.pool_constructions() == 8 * increments
        sweep_module.reset_pool_constructions()


class TestLockstepMerging:
    """In-process units that share a lockstep key run as one engine call."""

    SETTINGS = ExperimentSettings(episodes=2, max_steps=600, seed=3)

    @staticmethod
    def _count_calls(monkeypatch):
        """Record the cell count of every engine call the executor makes."""
        from repro.runtime import executor as executor_module

        calls = []
        run_cells = executor_module.run_cells

        def counting(cells, timings=None):
            calls.append(len(cells))
            return run_cells(cells, timings)

        monkeypatch.setattr(executor_module, "run_cells", counting)
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
        alone = {label: SerialExecutor().run(config, 2) for label, config in configs.items()}
        calls = self._count_calls(monkeypatch)
        with SweepRunner(jobs=1) as runner:
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
        alone = {label: SerialExecutor().run(config, 2) for label, config in configs.items()}
        calls = self._count_calls(monkeypatch)
        with SweepRunner(backend="batch") as runner:
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
        alone = {label: SerialExecutor().run(config, 2) for label, config in configs.items()}
        calls = self._count_calls(monkeypatch)
        with SweepRunner(backend="batch") as runner:
            batch = runner.run(sweep_jobs(configs, episodes=2))
        assert calls == [len(configs)]
        assert batch == alone

    def test_socket_workers_run_merged_chunks(self, executor_spy):
        """Fig. 5's four compatible units reach three socket workers as three
        merged engine calls, one per chunk, with the in-process reports."""
        from repro.runtime.remote import WorkerServer

        configs = self._fig5_configs()
        with SweepRunner(jobs=1) as runner:
            expected = runner.run(sweep_jobs(configs, episodes=2))
        executor_spy.calls.clear()
        servers = [WorkerServer() for _ in range(3)]
        try:
            with SweepRunner(
                backend="socket", workers=[server.address for server in servers]
            ) as runner:
                batch = runner.run(sweep_jobs(configs, episodes=2))
        finally:
            for server in servers:
                server.stop()
        assert batch == expected
        label_of = {config: label for label, config in configs.items()}
        chunks = split_ranges([(label, 0, 2) for label in configs], 3)
        assert sorted(
            [label_of[framework.config] for framework in call]
            for call in executor_spy.calls
        ) == sorted([label for label, _, _ in chunk] for chunk in chunks)

    def test_resume_merges_the_units_left_to_run(self, tmp_path, monkeypatch):
        from repro.runtime.ledger import RunLedger

        configs = self._fig5_configs()
        labels = list(configs)
        alone = {label: SerialExecutor().run(config, 2) for label, config in configs.items()}
        ledger = RunLedger(tmp_path / "ledger")
        with SweepRunner(jobs=1, ledger=ledger) as runner:
            runner.run(sweep_jobs({label: configs[label] for label in labels[::2]}, 2))
        calls = self._count_calls(monkeypatch)
        with SweepRunner(jobs=1, ledger=RunLedger(tmp_path / "ledger"), resume=True) as runner:
            batch = runner.run(sweep_jobs(configs, episodes=2))
            assert runner.units_resumed == 2
            assert runner.units_executed == 2
        assert calls == [2]
        assert batch == alone
