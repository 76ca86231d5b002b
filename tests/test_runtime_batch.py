"""Tests for the structure-of-arrays episode engine: row independence.

``run_batch`` is the one frame loop, so it has no second implementation to
be compared with.  Instead every assertion here is exact ``==`` between a
lockstep call over several episodes and the same episodes run one call each:
an episode's report must not depend on which episodes share its call.  The
golden corpus (``tests/test_golden_reports.py``) pins the reports
themselves.
"""

import dataclasses
import itertools
import re
import warnings

import numpy as np
import pytest

from repro import streams
from repro.contracts import ContractViolationError
from repro.core.framework import MAX_OFFLOAD_DEADLINE_PERIODS, SEOConfig, SEOFramework
from repro.core.lookup import DeadlineLookupTable
from repro.core.optimizations import ModeRows
from repro.core.safety import NO_OBSTACLE_DISTANCE_M, SafetyInputs
from repro.core.scheduler import EnergyColumns, SchedulerState
from repro.dynamics.state import ControlAction
from repro.platform.presets import NAVTECH_RADAR, VELODYNE_LIDAR, ZED_CAMERA
from repro.runtime import batch as batch_module
from repro.runtime.batch import _PHASES, LiveRows, run_batch, run_cells
from repro.runtime.sweep import (
    EXECUTOR_BACKENDS,
    SweepJob,
    SweepRunner,
    run_ranges,
)
from repro.runtime.workunit import WorkUnit
from repro.sim.road import StraightSegment
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


def test_cells_partition_rows_that_end_interleaved():
    """Rows of two cells ending on interleaved frames report as if run alone.

    The engine keeps its live rows as a prefix of every per-row array and
    moves the rows that end behind them.  Here the first row to end sits in
    the middle of the call and the end frames alternate between the cells,
    so each partition reorders rows of both cells, and the position-to-row
    map decides which draw-stream rows and reports they reach.
    """
    base = SEOConfig(max_steps=800)
    frameworks = [
        SEOFramework(base),
        SEOFramework(dataclasses.replace(base, optimization="none")),
    ]
    episodes = [[2, 0, 4], [5, 3, 1]]
    cells = run_cells(list(zip(frameworks, episodes)))
    assert cells == [alone(fw, eps) for fw, eps in zip(frameworks, episodes)]
    ends = sorted(
        (report.steps, cell) for cell, reports in enumerate(cells) for report in reports
    )
    assert len({steps for steps, _ in ends}) == 6
    assert all(steps < base.max_steps for steps, _ in ends)
    # Neither cell's rows all end before the other's: the end order switches
    # cells at least three times.
    labels = [cell for _, cell in ends]
    assert sum(a != b for a, b in zip(labels, labels[1:])) >= 3
    # The first row to end is not the last row of the call.
    first = min((report.steps, report.episode) for report in cells[0] + cells[1])
    assert first != (cells[1][-1].steps, cells[1][-1].episode)


def _per_row_arrays(owner, n, prefix=""):
    """``(name, array)`` of every ndarray with ``n`` rows reachable from
    ``owner``'s attributes, through the row-state objects it holds."""
    for name, value in vars(owner).items():
        if isinstance(value, np.ndarray):
            if value.ndim and value.shape[0] == n:
                yield prefix + name, value
        elif isinstance(value, ModeRows):
            for field, column in value._asdict().items():
                yield f"{prefix}{name}.{field}", column
        elif isinstance(value, (LiveRows, SchedulerState, EnergyColumns)):
            yield from _per_row_arrays(value, n, f"{prefix}{name}.")


def test_live_rows_list_every_per_row_array():
    """Every per-row array of a lockstep call is a ``LiveRows`` column,
    which the end-of-frame partition moves, or one of the named arrays that
    it must not move: row-indexed outputs, read-only constants and the
    per-frame hand-offs between stages."""
    scenario = ScenarioConfig(
        num_obstacles=3, obstacle_motion="lateral-loop", obstacle_speed_mps=1.0,
        sensor_dropout_probability=0.2,
    )
    base = SEOConfig(scenario=scenario, max_steps=50)
    frameworks = [
        SEOFramework(base),
        SEOFramework(dataclasses.replace(base, optimization="none", use_lookup_table=False)),
    ]
    n = 7
    call = batch_module._Lockstep(frameworks, [4, 3], [3, 0, 6, 1, 2, 5, 4])
    for stage in batch_module._STAGES:  # one frame: the hand-offs exist
        getattr(call, stage)()
    assert call.m == n
    listed = {id(array) for array in call.rows.row_arrays()}
    assert len(listed) == len(call.rows.row_arrays())
    assert all(array.shape[0] == n for array in call.rows.row_arrays())
    outputs = {"steps_count", "finished_f", "collided_f", "offroad_f"}
    constants = {"zeros", "no_transmission", "no_miss", "row_numbers", "flat_rows", "scan_pos"}
    # Hand-offs are rebuilt every frame over the live rows (the scans over
    # the rows that need one, which may be fewer).
    handoffs = {"dist_b", "bear_b", "fs", "ft", "kept", "scan_rows", "best"}
    unlisted = {
        name for name, array in _per_row_arrays(call, n) if id(array) not in listed
    }
    assert unlisted - handoffs == outputs | constants
    assert {"dist_b", "bear_b", "fs", "ft", "kept"} <= unlisted


def test_cells_merge_scenario_rows():
    """Cells that differ in the scenario's row fields share one call.

    Zero, two, three and five obstacles (padded to five, masked), moving
    with static obstacles, dropout with none, and different road lengths,
    widths, zones and target speeds: every cell equals itself run alone,
    and the rows end on different frames.
    """
    base = SEOConfig(max_steps=900, seed=2)

    def cell(target_speed=8.0, **scenario):
        return SEOFramework(
            dataclasses.replace(
                base,
                target_speed_mps=target_speed,
                scenario=ScenarioConfig(
                    initial_speed_mps=target_speed, target_speed_mps=target_speed,
                    **scenario,
                ),
            )
        )

    frameworks = [
        cell(num_obstacles=0, road_length_m=70.0),
        cell(num_obstacles=2, road_length_m=60.0, road_width_m=10.0, target_speed=7.0),
        cell(
            num_obstacles=5, road_length_m=110.0, road_width_m=14.0,
            obstacle_zone_start_fraction=0.45, obstacle_motion="lateral-loop",
            obstacle_speed_mps=1.0, target_speed=6.0,
        ),
        cell(num_obstacles=3, sensor_dropout_probability=0.35, target_speed=7.0),
        cell(num_obstacles=5, road_length_m=80.0, road_width_m=9.0),
    ]
    assert len({fw.config.lockstep_key() for fw in frameworks}) == 1
    episodes = [[1, 0], [2, 0], [0, 3], [1, 2], [4, 0]]
    cells = run_cells(list(zip(frameworks, episodes)))
    assert cells == [run_batch(fw, eps) for fw, eps in zip(frameworks, episodes)]
    reports = [report for reports in cells for report in reports]
    assert len({report.steps for report in reports}) >= 8
    assert sum(report.steps < base.max_steps for report in reports) >= 8
    assert all(
        report.min_obstacle_distance_m == NO_OBSTACLE_DISTANCE_M for report in cells[0]
    )
    assert all(report.sensor_dropouts for report in cells[3])
    assert not any(
        report.sensor_dropouts for i, c in enumerate(cells) if i != 3 for report in c
    )


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"max_steps": 100}, "max_steps"),
        ({"tau_s": 0.025, "max_steps": 100}, "tau_s"),
        (
            {"scenario": ScenarioConfig(road_segments=(StraightSegment(60.0),))},
            "scenario.road_segments",
        ),
        ({"scenario": ScenarioConfig(obstacle_radius_m=1.5)}, "scenario.obstacle_radius_m"),
    ],
    ids=["max_steps", "tau_s", "road_segments", "obstacle_radius"],
)
def test_run_cells_names_the_first_differing_key_field(fast_seo_config, overrides, field):
    frameworks = [
        SEOFramework(fast_seo_config),
        SEOFramework(dataclasses.replace(fast_seo_config, **overrides)),
    ]
    with pytest.raises(ValueError, match=rf"must agree on {re.escape(field)} \("):
        run_cells([(framework, [0]) for framework in frameworks])


def test_run_cells_refuses_incompatible_cells(fast_seo_config):
    frameworks = [
        SEOFramework(fast_seo_config),
        SEOFramework(dataclasses.replace(fast_seo_config, max_steps=100)),
    ]
    with pytest.raises(ValueError, match="lockstep_key"):
        run_cells([(framework, [0]) for framework in frameworks])
    assert run_cells([]) == []
    assert run_cells([(frameworks[0], []), (frameworks[0], [0])])[0] == []


def test_phase_timings(monkeypatch, fast_seo_config):
    """``timings`` gets every phase, its scan sub-phases sum to ``scan``, a
    second call adds to the same dict, and the reports do not change."""
    framework = SEOFramework(fast_seo_config)
    untimed = run_batch(framework, range(2))
    timings: dict[str, float] = {}
    assert run_batch(framework, range(2), timings) == untimed
    assert set(timings) == set(_PHASES)
    assert all(isinstance(seconds, float) and seconds >= 0.0 for seconds in timings.values())
    assert timings["scan"] == timings["scan_raycast"] + timings["scan_group"] + timings["scan_view"]

    # A clock that advances one second per read makes each phase count its
    # laps: whole numbers, equal on every call, so accumulation is exact.
    ticks = itertools.count()
    monkeypatch.setattr(batch_module, "perf_counter", lambda: float(next(ticks)))
    once: dict[str, float] = {}
    run_batch(framework, range(2), once)
    twice: dict[str, float] = {}
    assert run_batch(framework, range(2), twice) == untimed
    assert run_batch(framework, range(2), twice) == untimed
    assert all(seconds > 0.0 for seconds in once.values())
    assert twice == {phase: 2 * seconds for phase, seconds in once.items()}


def test_run_range_matches_serial_slice(fast_seo_config):
    """A work unit's episode range is one lockstep call over that slice."""
    reports = run_ranges([(fast_seo_config, 2, 5)])[0]
    assert reports == alone(SEOFramework(fast_seo_config), range(2, 5))
    assert [report.episode for report in reports] == [2, 3, 4]


def test_validation_errors(fast_seo_config):
    with pytest.raises(ValueError):
        SEOFramework(fast_seo_config).run(0)
    with pytest.raises(ValueError):
        WorkUnit(config=fast_seo_config, episode_start=3, episode_stop=3)
    with pytest.raises(ValueError):
        WorkUnit(config=fast_seo_config, episode_start=-1, episode_stop=2)


def test_ranges_of_one_config_share_a_framework(fast_seo_config, sweep_spy):
    other = dataclasses.replace(fast_seo_config, filtered=False)
    run_ranges([(fast_seo_config, 0, 1), (other, 0, 1), (fast_seo_config, 1, 2)])
    first, second = sweep_spy.built
    assert sweep_spy.calls == [[first, second, first]]


class TestBackendWiring:
    def test_registered_backend(self):
        assert "batch" in EXECUTOR_BACKENDS

    def test_explicit_jobs_warns(self):
        """jobs != 1 (here 0, "all cores") with the batch backend is
        accepted but flagged."""
        with pytest.warns(UserWarning, match="ignores jobs"):
            runner = SweepRunner(jobs=0, backend="batch")
        assert runner.backend == "batch"

    def test_default_jobs_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SweepRunner(jobs=1, backend="batch")

    def test_sweep_runner_explicit_jobs_warns(self):
        """The CLI routes through SweepRunner, so it must warn there too."""
        with pytest.warns(UserWarning, match="ignores jobs"):
            SweepRunner(jobs=4, backend="batch")

    def test_sweep_runner_no_pool(self, fast_seo_config, recorded_pools):
        """A batch-backend sweep is bit-identical and never builds a pool."""
        jobs = [SweepJob(label="cell", config=fast_seo_config, episodes=3)]
        runner = SweepRunner(backend="batch")
        results = runner.run(jobs)
        assert recorded_pools == []
        assert results["cell"] == alone(SEOFramework(fast_seo_config), range(3))

    def test_framework_run_routes_through_executor(self, fast_seo_config):
        """`SEOFramework.run` is one lockstep call, with the reports run alone."""
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

        batched = table.query_batch(distances, bearings, speeds, steerings, throttles)

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

    def test_engine_queries_once_per_lookup_row_starting_an_interval(
        self, fast_seo_config, monkeypatch
    ):
        """One merged call of lookup-table, exact and safety-oblivious rows
        queries the table for exactly the lookup rows' sampled intervals."""
        configs = [
            fast_seo_config,
            dataclasses.replace(fast_seo_config, use_lookup_table=False),
            dataclasses.replace(fast_seo_config, safety_aware=False),
        ]
        frameworks = [SEOFramework(config) for config in configs]
        sizes = []
        query_batch = DeadlineLookupTable.query_batch

        def spy(self, distances_m, *rest):
            sizes.append(distances_m.size)
            return query_batch(self, distances_m, *rest)

        monkeypatch.setattr(DeadlineLookupTable, "query_batch", spy)
        lookup, exact, oblivious = run_cells([(fw, range(3)) for fw in frameworks])
        assert all(0 < size <= 3 for size in sizes)
        assert sum(sizes) == sum(len(report.delta_max_samples) for report in lookup) > 3
        assert all(report.delta_max_samples for report in exact + oblivious)

    def test_rejects_mismatched_shapes(self, fast_seo_config):
        table = SEOFramework(fast_seo_config).lookup_table
        # The kernel raises ValueError itself; with runtime contracts on,
        # the declared (N,) specs reject the call first.
        with pytest.raises((ValueError, ContractViolationError)):
            table.query_batch(
                np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), np.zeros(3)
            )
