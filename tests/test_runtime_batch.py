"""Tests for the structure-of-arrays batch engine (bit-exact vs serial).

The serial path is the oracle: every assertion here is exact ``==`` on whole
:class:`EpisodeReport` objects, never approximate.  Any drift between the
lockstep engine and the per-episode loop is a bug by definition.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro import streams
from repro.contracts import ContractViolationError
from repro.core.framework import MAX_OFFLOAD_DEADLINE_PERIODS, SEOConfig, SEOFramework
from repro.core.safety import NO_OBSTACLE_DISTANCE_M, SafetyInputs
from repro.dynamics.state import ControlAction
from repro.runtime.batch import BatchExecutor, run_batch
from repro.runtime.executor import SerialExecutor
from repro.runtime.sweep import EXECUTOR_BACKENDS, SweepJob, SweepRunner
from repro.sim.scenario import DEFAULT_SUITE


@pytest.mark.parametrize("family_name", DEFAULT_SUITE.names())
def test_bit_exact_per_scenario_family(family_name):
    """Batch reports equal serial reports exactly on every registered family.

    Covers the stochastic families too: ``sensor-dropout`` exercises the
    dropout RNG stream and stale-detection ageing, ``moving-traffic`` the
    time-indexed obstacle motion.
    """
    family = DEFAULT_SUITE.get(family_name)
    config = SEOConfig(scenario=family.base, max_steps=200)
    serial = SerialExecutor().run(config, 2)
    batch = BatchExecutor().run(config, 2)
    assert batch == serial


@pytest.mark.parametrize(
    "overrides",
    [
        {"optimization": "none"},
        {"optimization": "model_gating"},
        {"optimization": "sensor_gating"},
        {"filtered": False},
        {"controller": "pure_pursuit"},
        {"safety_aware": False},
        {"use_lookup_table": False, "max_steps": 120},
        {"detector_period_multiples": (1, 2, 4)},
        # Deadline bounds: offload at its bitmask cap, gating beyond it.
        {"max_deadline_periods": MAX_OFFLOAD_DEADLINE_PERIODS, "max_steps": 120},
        {
            "optimization": "model_gating",
            "max_deadline_periods": MAX_OFFLOAD_DEADLINE_PERIODS + 1,
            "max_steps": 120,
        },
    ],
)
def test_bit_exact_across_modes(fast_seo_config, overrides):
    config = dataclasses.replace(fast_seo_config, **overrides)
    assert BatchExecutor().run(config, 2) == SerialExecutor().run(config, 2)


@pytest.mark.parametrize("case", ["offload", "sensor-dropout", "default-course"])
def test_bit_exact_across_stream_refills(monkeypatch, fast_seo_config, case):
    """Batch == serial when the draw streams refill every few draws.

    The default chunk covers most of a short parity run, so this patches
    it down to force refills every few draws on the offload, dropout and
    detector-noise streams alike.
    """
    monkeypatch.setattr(streams, "_CHUNK", 3)
    if case == "offload":
        config = fast_seo_config
    elif case == "sensor-dropout":
        config = SEOConfig(
            scenario=DEFAULT_SUITE.get("sensor-dropout").base, max_steps=400
        )
    else:
        config = SEOConfig(max_steps=400)
    serial = SerialExecutor().run(config, 3)
    assert BatchExecutor().run(config, 3) == serial
    assert sum(report.offloads_issued for report in serial) > 0
    if case == "sensor-dropout":
        assert sum(report.sensor_dropouts for report in serial) > 0


def test_early_termination_masking():
    """Episodes of one batch ending on different frames stay bit-exact.

    On the default course the four episodes terminate on four different
    frames; the batch engine must freeze each one at its own terminal frame
    (masking) rather than stepping the whole batch to a common horizon.
    """
    config = SEOConfig(max_steps=800)
    serial = SerialExecutor().run(config, 4)
    batch = BatchExecutor().run(config, 4)
    # The scenario must actually exercise masking: distinct end frames, none
    # of them at the horizon.
    assert len({report.steps for report in serial}) > 1
    assert all(report.steps < config.max_steps for report in serial)
    assert batch == serial


def test_masked_episode_keeps_terminal_state():
    """A collided episode's report is unaffected by surviving batchmates."""
    config = SEOConfig(max_steps=800)
    serial = SerialExecutor().run(config, 4)
    ended_first = min(serial, key=lambda report: report.steps)
    alone = run_batch(SEOFramework(config), [ended_first.episode])
    assert alone == [ended_first]


def test_run_range_matches_serial_slice(fast_seo_config):
    serial = SerialExecutor().run_range(fast_seo_config, 2, 5)
    batch = BatchExecutor().run_range(fast_seo_config, 2, 5)
    assert batch == serial
    assert [report.episode for report in batch] == [2, 3, 4]


def test_validation_errors(fast_seo_config):
    with pytest.raises(ValueError):
        BatchExecutor().run(fast_seo_config, 0)
    with pytest.raises(ValueError):
        BatchExecutor().run_range(fast_seo_config, 3, 3)
    with pytest.raises(ValueError):
        BatchExecutor().run_range(fast_seo_config, -1, 2)


def test_framework_memoized_across_calls(fast_seo_config):
    executor = BatchExecutor()
    executor.run(fast_seo_config, 1)
    framework = executor._framework
    executor.run(fast_seo_config, 1)
    assert executor._framework is framework


class TestBackendWiring:
    def test_registered_backend(self):
        assert "batch" in EXECUTOR_BACKENDS

    def test_explicit_jobs_warns(self):
        """jobs != 1 (here 0, "all cores") with the batch backend is
        accepted but flagged."""
        with pytest.warns(UserWarning, match="ignores jobs"):
            runner = SweepRunner(jobs=0, backend="batch")
        assert runner.backend == "batch"
        runner.close()

    def test_default_jobs_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SweepRunner(jobs=1, backend="batch").close()

    def test_sweep_runner_explicit_jobs_warns(self):
        """The CLI routes through SweepRunner, so it must warn there too."""
        with pytest.warns(UserWarning, match="ignores jobs"), SweepRunner(
            jobs=4, backend="batch"
        ):
            pass

    def test_sweep_runner_rejects_workers(self):
        with pytest.raises(ValueError, match="only valid with the socket"):
            SweepRunner(backend="batch", workers=["host:1"])

    def test_sweep_runner_no_pool(self, fast_seo_config):
        """A batch-backend sweep is bit-identical and never builds a pool."""
        jobs = [SweepJob(label="cell", config=fast_seo_config, episodes=3)]
        with SweepRunner(backend="batch") as runner:
            results = runner.run(jobs)
            assert runner.pools_created == 0
        assert results["cell"] == SerialExecutor().run(fast_seo_config, 3)

    def test_framework_run_routes_through_executor(self, fast_seo_config):
        """`SEOFramework.run(jobs=1)` uses the executor API, same reports."""
        framework = SEOFramework(fast_seo_config)
        expected = [framework.run_episode(episode) for episode in range(2)]
        assert framework.run(2) == expected


class TestLookupQueryBatch:
    def test_elementwise_equals_scalar_query(self, fast_seo_config):
        framework = SEOFramework(fast_seo_config)
        table = framework.lookup_table
        assert table is not None
        rng = np.random.default_rng(7)
        count = 64
        distances = np.concatenate(
            [
                rng.uniform(0.0, 45.0, count - 2),
                [NO_OBSTACLE_DISTANCE_M, table.grid.max_distance_m],
            ]
        )
        bearings = rng.uniform(-np.pi, np.pi, count)
        speeds = rng.uniform(0.0, 15.0, count)
        steerings = rng.uniform(-1.5, 1.5, count)
        throttles = rng.uniform(-1.5, 1.5, count)

        before = table.queries
        batched = table.query_batch(distances, bearings, speeds, steerings, throttles)
        assert table.queries == before + count

        for index in range(count):
            inputs = SafetyInputs(
                distance_m=float(distances[index]),
                bearing_rad=float(bearings[index]),
                speed_mps=float(speeds[index]),
            )
            control = ControlAction(
                steering=float(steerings[index]), throttle=float(throttles[index])
            )
            assert batched[index] == table.query(inputs, control)

    def test_rejects_mismatched_shapes(self, fast_seo_config):
        table = SEOFramework(fast_seo_config).lookup_table
        # The kernel raises ValueError itself; with runtime contracts on,
        # the declared (N,) specs reject the call first.
        with pytest.raises((ValueError, ContractViolationError)):
            table.query_batch(
                np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), np.zeros(3)
            )
