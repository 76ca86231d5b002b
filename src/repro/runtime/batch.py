"""Structure-of-arrays episode engine: the one frame loop.

:func:`run_cells` steps the episodes of one or more *cells* (a
:class:`~repro.core.framework.SEOFramework` and its episode indices) in
numpy lockstep: one frame of the runtime loop advances *every* live episode
at once, so the per-frame numpy work (range scans, RK4 dynamics, deadline
queries, decision kernels, road membership) is amortized over the whole
call instead of being paid per episode.  It is the only frame loop:
:func:`run_batch` is its one-cell call,
:meth:`~repro.core.framework.SEOFramework.run_episode` the 1-episode call
of that, and :class:`~repro.runtime.sweep.SweepRunner` runs each group of
compatible work units (or each pool worker's chunk of one) as one call.

**Cells.**  Cells may share a call when their configs have equal
:meth:`~repro.core.framework.SEOConfig.lockstep_key`: they differ at most
in the fields of :data:`~repro.core.framework.LOCKSTEP_ROW_FIELDS` and in
the scenario fields outside
:data:`~repro.core.framework.LOCKSTEP_SCENARIO_FIELDS`, which the engine
holds as row columns.  The optimization method is a
:class:`~repro.core.optimizations.ModeRows` column of the period kernel,
``filtered`` a shield row mask, the deadline source (the lookup table, the
exact estimator, or the horizon when safety-oblivious) a row subset of the
episodes starting an interval, the sensor the per-row energies of
:class:`~repro.core.scheduler.EnergyColumns`, and the target speed the
controller's speed column.  Each row builds its world from its own
scenario: road length and width are the ``length_rows`` and
``half_width_rows`` columns, the obstacles are padded to the widest row
with an ``obs_valid`` mask that the view, scan and end-condition kernels
apply, and the dropout probability is a ``p_drop`` column.  Every column
is an ``(N,)`` (or ``(N, K)``) mask, also in a one-cell call whose rows
all agree.

The decision layer lives with its owners instead of being written here:
the controller, barrier, shield and scheduler each expose one batch-first
kernel (``act_batch``, ``evaluate_batch``, ``filter_batch``, the
``*_kernel`` functions of :mod:`repro.core.scheduler`); only the
scheduler keeps a scalar entry point, a 1-element view of its kernels
(``SafeRuntimeScheduler``).  Algorithm 1's
per-period model step is one call of
:func:`~repro.core.optimizations.period_kernel` under every row's
optimization, charged to the columnar
:class:`~repro.core.scheduler.EnergyColumns` by ``charge_period_kernel``;
:meth:`~repro.core.scheduler.EnergyColumns.report_fields` builds the
energy fields of every report.

**Stages.**  :class:`LiveRows` holds every per-row column.  A frame is the
stages of :data:`_STAGES` in order; the last ends episodes on
:meth:`~repro.sim.world.World.status_batch`, which ``World.status`` views.

**Row independence.** An episode's report depends only on ``(config,
episode index)``, never on which episodes share its call, from its own
cell or from another: ``run_batch(fw, eps) == [run_batch(fw, [e])[0] for e
in eps]``, and every cell of ``run_cells(cells)`` equals ``run_batch`` of
that cell alone, exactly.  The golden corpus (``tests/golden/reports.json``)
pins the reports themselves.  Three disciplines keep the rows independent:

* **Elementwise float ops.** Every vectorized section applies the same
  elementwise operations to each row (numpy ufuncs are size-independent)
  and no reduction crosses the episode axis.  The row kernels are the
  obstacle raycast (``RangeScanner.scan_batch``), the nearest-obstacle
  view (``World.nearest_obstacle_view_batch``), detection grouping and
  noise (``DetectorModel.detect_batch``), the multi-segment Frenet lookups
  (the ``Centerline`` batch kernels) and the RK4 plant update
  (:func:`repro.dynamics.bicycle.rk4_plant_batch`).  A row of one cell
  takes the same values as it would alone: a row column selects per row
  between results that are each computed elementwise.
* **Per-episode RNG streams.**  World placement consumes its per-episode
  generator up front in ``build_world``.  Every per-frame consumer
  (offload round trips, sensor dropout, per-detector noise) reads a
  generator seeded from the config seed and the episode index, each
  episode through its own row of a :class:`~repro.streams.DrawStream`.  A
  stream refills its buffers with *sized* draws, which yield exactly the
  values of scalar draws, and keeps one cursor per episode, so a frame's
  draws for all episodes are one gather (per model for detector noise)
  instead of one generator call per episode.  Within an episode the draws
  keep a fixed order: the offload and dropout draws of a frame are taken
  in pipeline order (row-major over the ``(episode, model)`` mask), and
  the noise loop visits models in pipeline order.  The detector streams
  share one buffer per detector: every episode's detector generator is
  seeded with the same ``detector.seed``.  Rows that never offload retire
  from the offload stream up front.
* **Masking, not branching.** Per-frame decisions are evaluated as boolean
  masks over the live rows; pass 2's ledger update (dropout, insertion
  ranks, staleness) is whole-``(m, M)`` mask algebra over the
  latest-detection ledger, a set of per-``(episode, model)``
  nearest/staleness/insertion-rank arrays.  The live episodes are the
  prefix ``[:m]`` of every per-row array, so a frame reads and writes them
  through slices; ``order[:m]`` maps positions to episode rows for the
  draw streams and the reports.  A frame in which episodes terminate
  (collision, road exit, route completion) moves them behind the live
  rows with one stable partition of every :meth:`LiveRows.row_arrays`
  column, which freezes a finished episode's state at its terminal frame.

Still per-episode in the frame loop: refills of exhausted draw streams and
the moving-obstacle ``position_at`` updates, which visit only the live rows
that carry a moving obstacle.  The ``delta_max`` samples go
to one flat ``(row, period)`` log, split per row when the reports are
built.
"""

from __future__ import annotations

from time import perf_counter
from collections.abc import Iterable, Sequence

import numpy as np

from repro.control.heuristic import ObstacleAvoidanceController
from repro.core.framework import EpisodeReport, SEOConfig, SEOFramework
from repro.core.safety import NO_OBSTACLE_DISTANCE_M
from repro.core.optimizations import (
    ModeRows,
    offload_arrival_kernel,
    period_kernel,
)
from repro.core.scheduler import (
    EnergyColumns,
    SchedulerState,
    begin_interval_kernel,
    charge_period_kernel,
    deadline_done_kernel,
    finish_period_kernel,
    full_slot_kernel,
    natural_slot_kernel,
)
from repro.core.shield import SteeringShield
from repro.dynamics.bicycle import rk4_plant_batch
from repro.dynamics.state import wrap_angle
from repro.perception.detections import nearest_per_row
from repro.sim.scenario import build_world
from repro.sim.world import World
from repro.streams import DrawStream

__all__ = ["LiveRows", "run_batch", "run_cells"]

#: The stages of one frame, in order: methods of :class:`_Lockstep`.
_STAGES = ("scan_view", "decision", "scheduler", "scan_raycast", "scan_group", "dynamics")
#: Engine phases :func:`run_cells` accumulates into ``timings``: the stages,
#: and ``"scan"``, the sum of the three ``scan_*`` stages.
_PHASES = (*_STAGES, "scan")


def run_batch(
    framework: SEOFramework,
    episodes: Iterable[int],
    timings: dict[str, float] | None = None,
) -> list[EpisodeReport]:
    """Run the given episode indices in numpy lockstep: one cell of :func:`run_cells`.

    Returns reports in the order of ``episodes``; each is bit-identical to
    the report of its episode run alone (``run_batch(framework, [e])[0]``,
    which is :meth:`~repro.core.framework.SEOFramework.run_episode`).
    """
    return run_cells([(framework, episodes)], timings)[0]


def run_cells(
    cells: Sequence[tuple[SEOFramework, Iterable[int]]],
    timings: dict[str, float] | None = None,
) -> list[list[EpisodeReport]]:
    """Run every cell's episode indices in one numpy lockstep.

    ``cells`` are ``(framework, episodes)`` pairs whose configs share one
    :meth:`~repro.core.framework.SEOConfig.lockstep_key`; cells that do
    not are refused with a ``ValueError`` naming the first key field that
    differs.  Within a call the cells may differ in the row fields: the
    per-row settings of :data:`~repro.core.framework.LOCKSTEP_ROW_FIELDS`
    and the scenario outside the centreline and the obstacle radius (road
    length and width, obstacle count, zone and motion, sensor dropout,
    initial pose and speed).  Returns one report list per cell, in the
    order of its ``episodes``; each report is bit-identical to the report
    of its episode run alone.

    When ``timings`` is given, wall-clock seconds spent in each stage are
    accumulated into it under the stage's name: ``"decision"`` (perception
    aggregate, barrier, controller, shield), ``"scheduler"`` (deadline
    sampling plus Algorithm 1), ``"dynamics"`` (RK4 plant update and
    episode status), and ``"scan_view"`` (the nearest-obstacle view
    kernel), ``"scan_raycast"`` (beam-fan ray casting) and ``"scan_group"``
    (detection grouping, noise and the nearest-detection ledger update),
    whose sum is stored as ``"scan"``.  Without ``timings`` the loop reads
    no clock.
    """
    if not cells:
        return []
    frameworks = [framework for framework, _ in cells]
    cell_episodes = [[int(episode) for episode in episodes] for _, episodes in cells]
    config = frameworks[0].config
    key = config.lockstep_key()
    for other in frameworks[1:]:
        if other.config.lockstep_key() != key:
            differing = next(
                name
                for (name, value), (_, theirs) in zip(
                    config.lockstep_fields(), other.config.lockstep_fields()
                )
                if value != theirs
            )
            raise ValueError(
                f"cells of one lockstep call must agree on {differing} "
                "(SEOConfig.lockstep_key must match)"
            )
    cell_sizes = [len(episodes) for episodes in cell_episodes]
    episode_ids = [episode for episodes in cell_episodes for episode in episodes]
    n = len(episode_ids)
    if n == 0:
        return [[] for _ in cells]

    call = _Lockstep(frameworks, cell_sizes, episode_ids)
    stages = [(name, getattr(call, name)) for name in _STAGES]
    spent = dict.fromkeys(_PHASES, 0.0)
    for _ in range(config.max_steps):
        if not call.m:
            break
        for name, stage in stages:
            if timings is None:
                stage()
            else:
                start = perf_counter()
                stage()
                spent[name] += perf_counter() - start
    if timings is not None:
        spent["scan"] = spent["scan_raycast"] + spent["scan_group"] + spent["scan_view"]
        for phase, seconds in spent.items():
            timings[phase] = timings.get(phase, 0.0) + seconds

    # Split the delta_max log per episode row, each row's samples in frame
    # order (a stable sort keeps it).
    logged_rows = np.concatenate([np.zeros(0, dtype=np.int64), *call.sample_rows])
    logged = np.concatenate([np.zeros(0, dtype=np.int64), *call.sample_periods])
    by_row = np.argsort(logged_rows, kind="stable")
    bounds = np.cumsum(np.bincount(logged_rows, minlength=n))[:-1]
    samples = np.split(logged[by_row], bounds)
    # The row of each episode sits at position ``position[row]``.
    rows = call.rows
    position = np.argsort(rows.order)
    reports = [
        EpisodeReport(
            episode=episode,
            steps=int(call.steps_count[i]),
            duration_s=int(call.steps_count[i]) * config.tau_s,
            completed=bool(call.finished_f[i]),
            collided=bool(call.collided_f[i]),
            off_road=bool(call.offroad_f[i]),
            shield_interventions=int(rows.interventions[p]),
            delta_max_samples=samples[i].tolist(),
            min_obstacle_distance_m=float(rows.min_dist[p]),
            unsafe_steps=int(rows.unsafe[p]),
            sensor_dropouts=int(rows.dropouts[p]),
            **rows.energy.report_fields(p),
        )
        for i, (episode, p) in enumerate(zip(episode_ids, position.tolist()))
    ]
    cell_bounds = np.cumsum([0, *cell_sizes]).tolist()
    return [reports[lo:hi] for lo, hi in zip(cell_bounds, cell_bounds[1:])]


class LiveRows:
    """Every per-row column of one lockstep call, each allocated once here.

    ``order[p]`` is the episode row at position ``p``: it names the row's
    draw-stream rows and report.
    """

    def __init__(
        self, worlds: Sequence[World], row_configs: Sequence[SEOConfig], energy: EnergyColumns
    ) -> None:
        n = len(worlds)
        self.order = np.arange(n)
        self.xs = np.array([world.state.x_m for world in worlds], dtype=float)
        self.ys = np.array([world.state.y_m for world in worlds], dtype=float)
        self.hs = np.array([world.state.heading_rad for world in worlds], dtype=float)
        self.vs = np.array([world.state.speed_mps for world in worlds], dtype=float)
        self.proj_s, self.proj_d = worlds[0].road.centerline.project_batch(self.xs, self.ys)

        # Obstacles padded to the widest row (at least one slot, so every call
        # runs the same kernels): ``obs_valid`` masks the real slots, a prefix
        # of each row, and the view, scan and end-condition kernels skip pads.
        obstacle_counts = np.array([len(world.obstacles) for world in worlds], dtype=np.int64)
        K = max(1, int(obstacle_counts.max()))
        self.obs_valid = np.arange(K) < obstacle_counts[:, None]
        self.obs_x = np.zeros((n, K), dtype=float)
        self.obs_y = np.zeros((n, K), dtype=float)
        self.obs_r = np.zeros((n, K), dtype=float)
        placed = [obstacle for world in worlds for obstacle in world.obstacles]
        self.obs_x[self.obs_valid] = [obstacle.x_m for obstacle in placed]
        self.obs_y[self.obs_valid] = [obstacle.y_m for obstacle in placed]
        self.obs_r[self.obs_valid] = [obstacle.radius_m for obstacle in placed]
        self.movers = np.array(
            [any(obstacle.motion is not None for obstacle in world.obstacles) for world in worlds]
        )

        # Row settings: the scenario's and the config's row fields.
        self.length_rows = np.array([world.road.length_m for world in worlds], dtype=float)
        self.half_width_rows = np.array([world.road.half_width_m for world in worlds], dtype=float)
        self.target_rows = np.array([row.target_speed_mps for row in row_configs], dtype=float)
        self.p_drop = np.array(
            [row.scenario.sensor_dropout_probability for row in row_configs], dtype=float
        )
        self.filtered = np.array([row.filtered for row in row_configs])
        # Deadline sources: the lookup table, the exact estimator, or (for
        # safety-oblivious rows) the estimator horizon.
        self.lookup_rows = np.array(
            [row.safety_aware and row.use_lookup_table for row in row_configs]
        )
        self.exact_rows = np.array(
            [row.safety_aware and not row.use_lookup_table for row in row_configs]
        )
        self.modes = ModeRows.of([row.optimization for row in row_configs])

        # Run state: scheduler intervals, energy accounts and counters.
        num_opt = len(energy.names) - energy.critical_count
        self.sched = SchedulerState.create(n, num_opt)
        self.energy = energy
        self.dropouts = np.zeros(n, dtype=np.int64)
        self.unsafe = np.zeros(n, dtype=np.int64)
        self.interventions = np.zeros(n, dtype=np.int64)
        self.min_dist = np.full(n, float("inf"), dtype=float)
        # Latest-detection ledger, structure-of-arrays over (episode, model):
        # presence/nearest/staleness columns plus an insertion *rank*, the order
        # in which each model first produced an output in that episode.  The
        # controller reads the nearest held detection across models; among
        # equal distances the earliest-inserted model wins.
        self.det_present = np.zeros((n, num_opt), dtype=bool)
        self.det_nonempty = np.zeros((n, num_opt), dtype=bool)
        self.det_best_d = np.zeros((n, num_opt), dtype=float)
        self.det_best_b = np.zeros((n, num_opt), dtype=float)
        self.det_stale_flag = np.zeros((n, num_opt), dtype=bool)
        self.det_rank = np.zeros((n, num_opt), dtype=np.int64)
        self.det_next_rank = np.zeros(n, dtype=np.int64)

    def row_arrays(self) -> list[np.ndarray]:
        """Every column; ``modes``, ``sched`` and ``energy`` expand to theirs."""
        arrays: list[np.ndarray] = []
        for column in vars(self).values():
            if isinstance(column, np.ndarray):
                arrays.append(column)
            else:
                arrays.extend(column if isinstance(column, ModeRows) else column.row_arrays())
        return arrays


def _row_stream(base: int, episodes: list[int], kind: str, draws: np.ndarray) -> DrawStream | None:
    """One stream row per episode, seeded ``base * 1000 + episode``, or None
    when no row ``draws``; the rows that never draw retire up front."""
    if not draws.any():
        return None
    stream = DrawStream([base * 1000 + episode for episode in episodes], kind)
    stream.retire(np.nonzero(~draws)[0])
    return stream


class _Lockstep:
    """One :func:`run_cells` call: its constants, :class:`LiveRows` and stages.

    Each stage of :data:`_STAGES` works on the live prefix ``[:m]`` and
    names its result for the stages after it (``dist_b``/``bear_b``,
    ``fs``/``ft``, ``kept``, ``scan_rows``/``best``); ``dynamics`` ends the
    frame."""

    def __init__(
        self, frameworks: Sequence[SEOFramework], cell_sizes: list[int], episode_ids: list[int]
    ) -> None:
        framework = frameworks[0]
        self.config = config = framework.config
        row_configs = [
            other.config for other, size in zip(frameworks, cell_sizes) for _ in range(size)
        ]
        n = len(episode_ids)
        self.tau = tau = config.tau_s
        self.params = framework.vehicle_params
        self.barrier = framework.barrier
        self.t = 0
        self.time_s = 0.0
        self.m = n

        # World construction (placement RNG fully consumed here, per episode),
        # each row from its own scenario.  The rows share the centreline: equal
        # curved segments, or the straight road, which projects the same
        # whatever its length.
        worlds = [
            build_world(
                row.scenario,
                rng=np.random.default_rng((config.seed + 1) * 1000 + episode),
                vehicle_params=self.params,
            )
            for row, episode in zip(row_configs, episode_ids)
        ]
        self.centerline = worlds[0].road.centerline
        # Indexed by episode row (not by position: see ``LiveRows.order``).
        self.moving = [
            [(k, o) for k, o in enumerate(world.obstacles) if o.motion is not None]
            for world in worlds
        ]
        energy = EnergyColumns.create(
            [(other.model_set, size) for other, size in zip(frameworks, cell_sizes)], tau
        )
        self.rows = rows = LiveRows(worlds, row_configs, energy)

        # Per-episode draw streams (the offload and dropout generators, one row
        # per episode), shared shield, controller.
        self.sched_stream = _row_stream(
            config.seed + 2, episode_ids, "standard_exponential", rows.modes.offload
        )
        self.drop_stream = _row_stream(config.seed + 3, episode_ids, "random", rows.p_drop > 0.0)
        self.controller = framework._build_controller()
        # The shield math is stateless (the per-episode counters are row
        # columns), so one instance filters the whole batch.
        self.shield = SteeringShield(intervention_margin_m=config.shield_margin_m)

        # Detectors: one shared scan per episode per frame feeds every detector
        # that needs a fresh output (the scan is a pure function of the
        # pre-step world; every detector holds the same scanner).  Each
        # detector's noise source has one row per episode, every row replaying
        # the detector seed from its own cursor.
        self.detectors = framework.detectors
        self.scanner = next(iter(self.detectors.values())).scanner
        self.det_noise = {
            name: detector.noise_source(n) for name, detector in self.detectors.items()
        }
        # A finished episode retires from every stream, so it stops holding
        # its seed group's draws.
        self.draw_streams = [
            stream
            for stream in (self.sched_stream, self.drop_stream, *self.det_noise.values())
            if stream is not None
        ]

        # Model pipeline (the ledger's column order: Lambda'' then Lambda') and
        # deadline provider.
        self.num_crit = num_crit = energy.critical_count
        self.opt_names = energy.names[num_crit:]
        num_opt = len(self.opt_names)
        models = framework.model_set.critical + framework.model_set.optimizable
        self.delta_i_all = np.array(
            [model.discretized_period(tau) for model in models], dtype=np.int64
        )
        self.delta_i_opt = self.delta_i_all[num_crit:]
        self.compute_opt = energy.compute_j[num_crit:]
        self.planner = framework.offload_planner
        self.delta_hat = self.planner.estimated_response_periods(tau)
        self.estimator = framework.estimator
        # Every cell that builds a table builds this one (equal lockstep keys).
        self.lookup_table = next(
            (other.lookup_table for other in frameworks if other.lookup_table is not None),
            None,
        )

        # Written once per episode, when it ends; indexed by episode row.
        self.steps_count = np.full(n, config.max_steps, dtype=np.int64)
        self.finished_f = np.zeros(n, dtype=bool)
        self.collided_f = np.zeros(n, dtype=bool)
        self.offroad_f = np.zeros(n, dtype=bool)
        # ``delta_max`` log: the episode rows and periods of each frame's new
        # intervals, split per row when the reports are built.
        self.sample_rows: list[np.ndarray] = []
        self.sample_periods: list[np.ndarray] = []

        # Per-frame constants (read-only; the arrays are sliced to the live count).
        self.rank_max = np.iinfo(np.int64).max
        self.zeros = np.zeros(n, dtype=float)
        self.no_transmission = np.zeros((n, num_opt), dtype=float)
        self.no_miss = np.zeros((n, num_opt), dtype=bool)
        self.row_numbers = np.arange(n)
        self.flat_rows = self.row_numbers * num_opt
        # Scan row of each position that needs a scan this frame.
        self.scan_pos = np.zeros(n, dtype=np.int64)

    def scan_view(self) -> None:
        """Nearest-obstacle view kernel: ``dist_b``, ``bear_b``."""
        rows, m = self.rows, self.m
        self.dist_b, self.bear_b, _nearest = World.nearest_obstacle_view_batch(
            rows.xs[:m], rows.ys[:m], rows.hs[:m],
            rows.obs_x[:m], rows.obs_y[:m], rows.obs_r[:m], rows.obs_valid[:m],
        )

    def decision(self) -> None:
        """Pass 1: perception aggregate -> safety state -> control: ``fs``, ``ft``."""
        rows, m = self.rows, self.m
        dist_b, bear_b = self.dist_b, self.bear_b
        h_act = rows.hs[:m]
        v_act = rows.vs[:m]
        # Nearest detection across models: masked distance minimum, ties to
        # the lowest insertion rank (see the ledger comment in LiveRows).
        candidates = rows.det_nonempty[:m]
        dist_masked = np.where(candidates, rows.det_best_d[:m], np.inf)
        nearest_dist = np.minimum.reduce(dist_masked, axis=1)
        has_det = np.isfinite(nearest_dist)
        is_nearest = candidates & (dist_masked == nearest_dist[:, None])
        # Rows without a detection read an arbitrary held column: the
        # controller ignores the detection inputs of rows without one.
        model_sel = np.where(is_nearest, rows.det_rank[:m], self.rank_max).argmin(axis=1)
        held = self.flat_rows[:m] + model_sel
        det_d = rows.det_best_d.reshape(-1)[held]
        det_bg = rows.det_best_b.reshape(-1)[held]
        det_stale = rows.det_stale_flag.reshape(-1)[held]

        lat_act = rows.proj_d[:m]
        if self.centerline.is_straight:
            heading_err = wrap_angle(h_act)
            curv_act = self.zeros[:m]
        else:
            road_heading, curv_act = self.centerline.heading_curvature_at_batch(rows.proj_s[:m])
            heading_err = wrap_angle(h_act - road_heading)

        h_vals = self.barrier.evaluate_batch(dist_b, bear_b, v_act)
        np.minimum(rows.min_dist[:m], dist_b, out=rows.min_dist[:m])
        rows.unsafe[:m] += h_vals < 0.0

        target_act = rows.target_rows[:m]
        controller = self.controller
        if isinstance(controller, ObstacleAvoidanceController):
            raw_s, raw_t = controller.act_batch(
                v_act, target_act, lat_act, heading_err, curv_act,
                has_det, det_d, det_bg, det_stale,
            )
        else:  # pure pursuit: SEOConfig admits only these two controllers
            raw_s, raw_t = controller.act_batch(
                v_act, target_act, lat_act, heading_err, curv_act
            )

        fs, ft, intervened = self.shield.filter_batch(
            h_vals, dist_b, bear_b, v_act, lat_act, rows.half_width_rows[:m], raw_s, raw_t
        )
        # Unfiltered rows drive the raw control.
        keep = rows.filtered[:m]
        self.fs = np.where(keep, fs, raw_s)
        self.ft = np.where(keep, ft, raw_t)
        rows.interventions[:m] += intervened & keep

    def scheduler(self) -> None:
        """Deadline sampling, then Algorithm 1's period: ``kept``."""
        rows, m = self.rows, self.m
        sched, energy = rows.sched, rows.energy
        dist_b, bear_b, fs, ft = self.dist_b, self.bear_b, self.fs, self.ft
        v_act = rows.vs[:m]
        num_crit, delta_i_opt = self.num_crit, self.delta_i_opt

        # ---- Deadline sampling for episodes starting a safe interval ----
        # Safety-oblivious rows keep the horizon; the others read their
        # source on their subset of the starting episodes.
        starting = sched.new_delta[:m].nonzero()[0]
        if starting.size:
            deadlines = np.full(starting.size, self.estimator.horizon_s, dtype=float)
            at = rows.lookup_rows[starting]
            if np.count_nonzero(at):
                assert self.lookup_table is not None
                picked = starting[at]
                deadlines[at] = self.lookup_table.query_batch(
                    dist_b[picked], bear_b[picked], v_act[picked], fs[picked], ft[picked]
                )
            present = rows.exact_rows[starting] & (dist_b[starting] < NO_OBSTACLE_DISTANCE_M)
            if np.count_nonzero(present):
                picked = starting[present]
                deadlines[present] = self.estimator.estimate_batch(
                    dist_b[picked],
                    bear_b[picked],
                    v_act[picked],
                    fs[picked],
                    ft[picked],
                    obstacle_radius_m=self.config.scenario.obstacle_radius_m,
                )
            periods = begin_interval_kernel(
                sched, starting, deadlines, self.tau, self.config.max_deadline_periods, delta_i_opt
            )
            self.sample_rows.append(rows.order[starting])
            self.sample_periods.append(periods)

        # ---- Pass 2: Algorithm 1's period kernel over (episode, model) ----
        # The shared kernels decide and charge every live episode at once.
        # Issued offloads draw their round trips from each episode's stream
        # row in pipeline order.
        dmx_act = sched.delta_max[:m]
        istep_act = sched.interval_step[:m]
        natural = natural_slot_kernel(self.t, self.delta_i_all)
        natural_opt = natural[num_crit:]
        full = full_slot_kernel(natural_opt, istep_act, delta_i_opt, dmx_act)
        outcome = period_kernel(
            rows.modes.head(m), natural_opt, full, istep_act, dmx_act, delta_i_opt,
            self.delta_hat, sched.pending[:m], self.compute_opt,
            energy.measurement_j[:m, num_crit:],
        )
        pending = outcome.pending
        transmission = self.no_transmission[:m]
        missed = self.no_miss[:m]
        issue_counts = np.add.reduce(outcome.issue, axis=1)
        issue_rows = issue_counts.nonzero()[0]
        if issue_rows.size:
            assert self.sched_stream is not None
            draws_per_offload = self.planner.draws_per_sample
            exp_draws = self.sched_stream.take(
                rows.order[issue_rows], issue_counts[issue_rows] * draws_per_offload
            ).reshape(-1, draws_per_offload)
            _tx_t, _rt, tx_energy, response = self.planner.sample_batch(self.tau, exp_draws)
            transmission = np.zeros((m, len(self.opt_names)), dtype=float)
            transmission[outcome.issue] = tx_energy
            pending, missed = offload_arrival_kernel(
                pending, outcome.issue, istep_act, dmx_act, delta_i_opt, response
            )
        sched.pending[:m] = pending
        charge_period_kernel(
            energy, natural, outcome.compute_j, transmission,
            outcome.measurement_j, outcome.issue, missed,
        )

        # Perception effect of the period, as (episode, model) masks.
        # Scenario-level sensor degradation: with probability p the frame
        # behind a fresh *local* inference of a model that already has an
        # output is corrupt, so the held output ages instead of being
        # replaced, the same fallback as model gating.  The inference still
        # runs and is charged.  Offload responses are never dropped: their
        # frame was captured and paid for when the offload was issued.
        # Rows with p = 0 draw nothing.  An episode's dropout draws are taken
        # in pipeline order (row-major over the mask).  A kept inference
        # claims its insertion rank *now*, models in pipeline order; the
        # scan stages fill the nearest/staleness columns in.
        fresh = outcome.fresh
        present = rows.det_present[:m]
        stale = rows.det_stale_flag[:m]
        kept = fresh
        if self.drop_stream is not None:
            draw = fresh & outcome.local & present & (rows.p_drop[:m, None] > 0.0)
            draw_counts = np.add.reduce(draw, axis=1)
            draw_rows = draw_counts.nonzero()[0]
            if draw_rows.size:
                taken = draw_counts[draw_rows]
                draws = self.drop_stream.take(rows.order[draw_rows], taken)
                dropped = np.zeros((m, len(self.opt_names)), dtype=bool)
                dropped[draw] = draws < rows.p_drop[draw_rows].repeat(taken)
                rows.dropouts[:m] += np.add.reduce(dropped, axis=1)
                stale |= dropped
                kept = fresh & ~dropped
        new = kept & ~present
        if np.count_nonzero(new):
            ranks = rows.det_next_rank[:m, None] + np.add.accumulate(new, axis=1) - 1
            np.copyto(rows.det_rank[:m], ranks, where=new)
            rows.det_next_rank[:m] += np.add.reduce(new, axis=1)
        # Gated models age their held output; fresh ones are refreshed below.
        stale |= ~fresh & present
        stale &= ~kept
        present |= kept
        self.kept = kept

        deadline_done_kernel(sched.done[:m], istep_act, dmx_act, delta_i_opt)
        finish_period_kernel(sched.done[:m], sched.new_delta[:m], istep_act)

    def scan_raycast(self) -> None:
        """One range scan per live row any model needs, in position order."""
        rows = self.rows
        self.scan_rows = scan_rows = np.logical_or.reduce(self.kept, axis=1).nonzero()[0]
        if scan_rows.size:
            self.scan_pos[scan_rows] = self.row_numbers[: scan_rows.size]
            self.best = self.scanner.scan_batch(
                rows.xs[scan_rows], rows.ys[scan_rows], rows.hs[scan_rows],
                rows.obs_x[scan_rows], rows.obs_y[scan_rows], rows.obs_r[scan_rows],
                rows.obs_valid[scan_rows],
            )

    def scan_group(self) -> None:
        """Detection grouping and noise per kept inference, into the ledger."""
        if not self.scan_rows.size:
            return
        rows = self.rows
        for j, name in enumerate(self.opt_names):
            picked = self.kept[:, j].nonzero()[0]
            if not picked.size:
                continue
            counts, dists, bears, _spans = self.detectors[name].detect_batch(
                self.best[self.scan_pos[picked]], self.det_noise[name], rows.order[picked]
            )
            nonempty = counts > 0
            rows.det_nonempty[picked, j] = nonempty
            if np.count_nonzero(nonempty):
                _has, first = nearest_per_row(counts, dists)
                filled = picked[nonempty]
                rows.det_best_d[filled, j] = dists[first]
                rows.det_best_b[filled, j] = bears[first]

    def dynamics(self) -> None:
        """RK4 plant update, obstacle motion and the end condition; ends the frame."""
        rows, m = self.rows, self.m
        xn, yn, hn, vn = rk4_plant_batch(
            rows.xs[:m], rows.ys[:m], rows.hs[:m], rows.vs[:m],
            self.fs, self.ft, self.tau, self.params,
        )

        # Only the live rows that carry a moving obstacle pay a Python loop.
        self.time_s += self.tau
        mover_pos = rows.movers[:m].nonzero()[0]
        for position, row in zip(mover_pos.tolist(), rows.order[mover_pos].tolist()):
            for k, obstacle in self.moving[row]:
                mx, my = obstacle.motion.position_at((obstacle.x_m, obstacle.y_m), self.time_s)
                rows.obs_x[position, k] = mx
                rows.obs_y[position, k] = my

        s_tot, d_arr = self.centerline.project_batch(xn, yn)
        collided, off, fin = World.status_batch(
            xn, yn, s_tot, d_arr, rows.obs_x[:m], rows.obs_y[:m], rows.obs_r[:m],
            rows.obs_valid[:m], rows.length_rows[:m], rows.half_width_rows[:m], self.params,
        )
        rows.xs[:m] = xn
        rows.ys[:m] = yn
        rows.hs[:m] = hn
        rows.vs[:m] = vn
        rows.proj_s[:m] = s_tot
        rows.proj_d[:m] = d_arr
        ended = collided | off | fin
        if np.count_nonzero(ended):
            ended_rows = rows.order[:m][ended]
            self.steps_count[ended_rows] = self.t + 1
            self.collided_f[ended_rows] = collided[ended]
            self.offroad_f[ended_rows] = off[ended]
            self.finished_f[ended_rows] = fin[ended]
            for stream in self.draw_streams:
                stream.retire(ended_rows)
            # One stable partition moves the ended rows behind the live ones.
            live = (~ended).nonzero()[0]
            perm = np.concatenate((live, ended.nonzero()[0]))
            for column in rows.row_arrays():
                column[:m] = column[:m][perm]
            self.m = live.size
        self.t += 1
