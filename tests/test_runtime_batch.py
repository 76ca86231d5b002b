"""Tests for the structure-of-arrays episode engine: row independence.

``run_batch`` is the one frame loop, so it has no second implementation to
be compared with.  Instead every assertion here is exact ``==`` between a
lockstep call over several episodes and the same episodes run one call each:
an episode's report must not depend on which episodes share its call.  The
golden corpus (``tests/test_golden_reports.py``) pins the reports
themselves.
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
from repro.platform.presets import NAVTECH_RADAR, VELODYNE_LIDAR, ZED_CAMERA
from repro.runtime.batch import run_batch, run_cells
from repro.runtime.executor import SerialExecutor
from repro.runtime.sweep import EXECUTOR_BACKENDS, SweepJob, SweepRunner
from repro.sim.scenario import DEFAULT_SUITE, ScenarioConfig


def alone(framework, episodes):
    """Each episode's report from a ``run_batch`` call of its own."""
    return [run_batch(framework, [episode])[0] for episode in episodes]


@pytest.mark.parametrize("family_name", DEFAULT_SUITE.names())
def test_bit_exact_per_scenario_family(family_name):
    """Lockstep reports equal one-episode reports exactly on every family.

    Covers the stochastic families too: ``sensor-dropout`` exercises the
    dropout RNG stream and stale-detection ageing, ``moving-traffic`` the
    time-indexed obstacle motion.  The episodes go in out of order, and the
    reports come back in call order.
    """
    family = DEFAULT_SUITE.get(family_name)
    framework = SEOFramework(SEOConfig(scenario=family.base, max_steps=200))
    episodes = [1, 0]
    assert run_batch(framework, episodes) == alone(framework, episodes)


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
    framework = SEOFramework(dataclasses.replace(fast_seo_config, **overrides))
    assert run_batch(framework, range(2)) == alone(framework, range(2))


@pytest.mark.parametrize("case", ["offload", "sensor-dropout", "default-course"])
def test_bit_exact_across_stream_refills(monkeypatch, fast_seo_config, case):
    """Rows stay independent when the draw streams refill every few draws.

    The default chunk covers most of a short run, so this patches it down
    to force refills every few draws on the offload, dropout and
    detector-noise streams alike.  In lockstep a refill serves every row
    that shares the seed group; alone it serves one.
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
    framework = SEOFramework(config)
    batch = run_batch(framework, range(3))
    assert batch == alone(framework, range(3))
    assert sum(report.offloads_issued for report in batch) > 0
    if case == "sensor-dropout":
        assert sum(report.sensor_dropouts for report in batch) > 0


def test_early_termination_masking():
    """Episodes of one call ending on different frames stay bit-exact.

    On the default course the four episodes terminate on four different
    frames; the engine must freeze each one at its own terminal frame
    (masking) rather than stepping the whole batch to a common horizon.
    """
    config = SEOConfig(max_steps=800)
    framework = SEOFramework(config)
    batch = run_batch(framework, range(4))
    # The scenario must actually exercise masking: distinct end frames, none
    # of them at the horizon.
    assert len({report.steps for report in batch}) > 1
    assert all(report.steps < config.max_steps for report in batch)
    assert batch == alone(framework, range(4))


def test_masked_episode_keeps_terminal_state():
    """A collided episode's report is unaffected by surviving batchmates."""
    config = SEOConfig(max_steps=800)
    batch = run_batch(SEOFramework(config), range(4))
    ended_first = min(batch, key=lambda report: report.steps)
    alone_report = run_batch(SEOFramework(config), [ended_first.episode])
    assert alone_report == [ended_first]


@pytest.mark.parametrize(
    "scenario",
    [
        ScenarioConfig(
            num_obstacles=3, road_length_m=60.0, seed=5, sensor_dropout_probability=0.2
        ),
        ScenarioConfig(
            num_obstacles=3, road_length_m=60.0, seed=5, obstacle_motion="lateral-loop",
            obstacle_speed_mps=1.0,
        ),
    ],
    ids=["dropout", "moving"],
)
def test_cells_equal_each_cell_alone(scenario):
    """Rows of different cells report as their cell run alone.

    The cells vary every per-row field (method, shield, sensor, deadline
    source) and hold different episode counts, out of order.  The short
    road makes the shield act and the rows end on different frames, so
    the row columns are read on a shrinking active set.
    """
    base = SEOConfig(scenario=scenario, max_steps=500, seed=5)
    variants = [
        {"optimization": "sensor_gating", "detector_sensor": ZED_CAMERA},
        {"optimization": "offload", "filtered": False},
        {"optimization": "model_gating", "detector_sensor": VELODYNE_LIDAR,
         "use_lookup_table": False},
        {"optimization": "none", "safety_aware": False, "detector_sensor": NAVTECH_RADAR},
        {"optimization": "offload", "use_lookup_table": False},
    ]
    frameworks = [SEOFramework(dataclasses.replace(base, **v)) for v in variants]
    episodes = [[1, 0, 4], [2, 5], [0, 3], [1, 6], [3, 2]]
    cells = run_cells(list(zip(frameworks, episodes)))
    assert cells == [run_batch(fw, eps) for fw, eps in zip(frameworks, episodes)]
    reports = [report for cell in cells for report in cell]
    assert len({report.steps for report in reports}) > 1
    assert all(report.shield_interventions for report in cells[0])


def test_run_cells_refuses_incompatible_cells(fast_seo_config):
    frameworks = [
        SEOFramework(fast_seo_config),
        SEOFramework(dataclasses.replace(fast_seo_config, max_steps=100)),
    ]
    with pytest.raises(ValueError, match="lockstep_key"):
        run_cells([(framework, [0]) for framework in frameworks])
    assert run_cells([]) == []
    assert run_cells([(frameworks[0], []), (frameworks[0], [0])])[0] == []


def test_run_range_matches_serial_slice(fast_seo_config):
    """A work unit's episode range is one lockstep call over that slice."""
    reports = SerialExecutor().run_range(fast_seo_config, 2, 5)
    assert reports == alone(SEOFramework(fast_seo_config), range(2, 5))
    assert [report.episode for report in reports] == [2, 3, 4]


def test_validation_errors(fast_seo_config):
    with pytest.raises(ValueError):
        SerialExecutor().run(fast_seo_config, 0)
    with pytest.raises(ValueError):
        SerialExecutor().run_range(fast_seo_config, 3, 3)
    with pytest.raises(ValueError):
        SerialExecutor().run_range(fast_seo_config, -1, 2)


def test_framework_memoized_across_calls(fast_seo_config, executor_spy):
    executor = SerialExecutor()
    executor.run(fast_seo_config, 1)
    executor.run(fast_seo_config, 1)
    assert len(executor_spy.built) == 1
    assert executor_spy.calls == [executor_spy.built, executor_spy.built]


def test_ranges_of_one_config_share_a_framework(fast_seo_config, executor_spy):
    other = dataclasses.replace(fast_seo_config, filtered=False)
    SerialExecutor().run_ranges(
        [(fast_seo_config, 0, 1), (other, 0, 1), (fast_seo_config, 1, 2)]
    )
    first, second = executor_spy.built
    assert executor_spy.calls == [[first, second, first]]


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
        assert results["cell"] == alone(SEOFramework(fast_seo_config), range(3))

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
