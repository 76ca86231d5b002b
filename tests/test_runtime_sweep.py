"""Tests for the shared-pool sweep engine (`repro.runtime.sweep`)."""

import dataclasses

import pytest

from repro.experiments.common import ExperimentSettings, run_batch, standard_config
from repro.experiments.fig5 import FIG5_METHODS
from repro.runtime.executor import SerialExecutor, resolve_jobs
from repro.runtime.sweep import EXECUTOR_BACKENDS, SweepJob, SweepRunner, sweep_jobs


def _exploding_task(config, episode):
    """Stand-in pool task (module level, so a process pool can pickle it)."""
    raise RuntimeError("boom")


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

        monkeypatch.setattr(sweep_module, "_run_episode_task", _exploding_task)
        runner = SweepRunner(jobs=2, backend="process")
        with pytest.raises(RuntimeError, match="boom"):
            runner.run(sweep_jobs({"a": fast_seo_config}, episodes=3))
        assert runner._pool is None  # cancelled and shut down, not drained
        runner.close()


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
        scenario = fast_seo_config.scenario
        configs = {
            "base": fast_seo_config,
            "road": dataclasses.replace(
                fast_seo_config, scenario=dataclasses.replace(scenario, road_length_m=70.0)
            ),
            "obstacles": dataclasses.replace(
                fast_seo_config, scenario=dataclasses.replace(scenario, num_obstacles=3)
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
