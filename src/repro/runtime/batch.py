"""Structure-of-arrays episode engine: the one frame loop.

:func:`run_cells` steps the episodes of one or more *cells* (a
:class:`~repro.core.framework.SEOFramework` and its episode indices) in
numpy lockstep: one frame of the runtime loop advances *every* live episode
at once, so the per-frame numpy work (range scans, RK4 dynamics, deadline
queries, decision kernels, road membership) is amortized over the whole
call instead of being paid per episode.  It is the only frame loop:
:func:`run_batch` is its one-cell call,
:meth:`~repro.core.framework.SEOFramework.run_episode` the 1-episode call
of that, and :class:`~repro.runtime.executor.SerialExecutor` runs each
group of compatible work units as one call.

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
scenario: road length and width are the ``length_rows``,
``half_width_rows`` and ``edge_rows`` columns, the obstacles are padded to
the widest row with an ``obs_valid`` mask that the view, scan and
collision kernels apply, and the dropout probability is a ``p_drop``
column.  Every column is an ``(N,)`` (or ``(N, K)``) mask, also in a
one-cell call whose rows all agree.

The decision layer lives with its owners instead of being written here:
the controller, barrier, shield and scheduler each expose one batch-first
kernel (``act_batch``, ``evaluate_batch``, ``filter_batch``, the
``*_kernel`` functions of :mod:`repro.core.scheduler`), and their scalar
entry points are 1-element views of those kernels.  Algorithm 1's
per-period model step is one call of
:func:`~repro.core.optimizations.period_kernel` under every row's
optimization, charged to the columnar
:class:`~repro.core.scheduler.EnergyColumns` by ``charge_period_kernel``;
:meth:`~repro.core.scheduler.EnergyColumns.report_fields` builds the
energy fields of every report.

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
  rows with one stable partition, which freezes a finished episode's
  state at its terminal frame.

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
from repro.core.framework import EpisodeReport, SEOFramework
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
from repro.sim.collision import collided_batch
from repro.sim.scenario import build_world
from repro.sim.world import World
from repro.streams import DrawStream

__all__ = ["run_batch", "run_cells"]

#: Engine phases :func:`run_cells` accumulates into ``timings``.
_PHASES = (
    "decision",
    "scheduler",
    "scan",
    "scan_raycast",
    "scan_group",
    "scan_view",
    "dynamics",
)


def run_batch(  # repro-lint: ignore[REPRO503] (returns reports, not arrays)
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

    When ``timings`` is given, wall-clock seconds spent in each engine phase
    are accumulated into it under the keys ``"decision"`` (perception
    aggregate, barrier, controller, shield), ``"scheduler"`` (deadline
    sampling plus Algorithm 1), ``"scan"`` (range scans and detection
    extraction) and ``"dynamics"`` (RK4 plant update and episode status).
    The scan phase is additionally broken into the sub-phase keys
    ``"scan_raycast"`` (beam-fan ray casting), ``"scan_group"`` (detection
    grouping, noise and the nearest-detection ledger update) and
    ``"scan_view"`` (the nearest-obstacle view kernel); their sum equals
    ``"scan"``.  Without ``timings`` the loop reads no clock.
    """
    if not cells:
        return []
    frameworks = [framework for framework, _ in cells]
    cell_episodes = [[int(episode) for episode in episodes] for _, episodes in cells]
    framework = frameworks[0]
    config = framework.config
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
    row_configs = [
        other.config
        for other, size in zip(frameworks, cell_sizes)
        for _ in range(size)
    ]
    n = len(episode_ids)
    if n == 0:
        return [[] for _ in cells]

    tau = config.tau_s
    params = framework.vehicle_params
    barrier = framework.barrier
    filtered = np.array([row.filtered for row in row_configs])
    target_rows = np.array([row.target_speed_mps for row in row_configs], dtype=float)

    # ------------------------------------------------------------------
    # World construction (placement RNG fully consumed here, per episode),
    # each row from its own scenario.  The rows share the centreline: equal
    # curved segments, or the straight road, which projects the same
    # whatever its length.
    # ------------------------------------------------------------------
    worlds = [
        build_world(
            row.scenario,
            rng=np.random.default_rng((config.seed + 1) * 1000 + episode),
            vehicle_params=params,
        )
        for row, episode in zip(row_configs, episode_ids)
    ]
    centerline = worlds[0].road.centerline
    straight = centerline.is_straight
    length_rows = np.array([world.road.length_m for world in worlds], dtype=float)
    half_width_rows = np.array([world.road.half_width_m for world in worlds], dtype=float)
    edge_rows = half_width_rows - 0.5 * params.width_m + 1e-9
    vehicle_radius = params.collision_radius_m

    xs = np.array([world.state.x_m for world in worlds], dtype=float)
    ys = np.array([world.state.y_m for world in worlds], dtype=float)
    hs = np.array([world.state.heading_rad for world in worlds], dtype=float)
    vs = np.array([world.state.speed_mps for world in worlds], dtype=float)

    # Obstacles padded to the widest row (at least one slot, so every call
    # runs the same kernels): ``obs_valid`` masks the real slots, a prefix
    # of each row, and the view, scan and collision kernels skip the rest.
    obstacle_counts = np.array([len(world.obstacles) for world in worlds], dtype=np.int64)
    K = max(1, int(obstacle_counts.max()))
    obs_valid = np.arange(K) < obstacle_counts[:, None]
    obs_x = np.zeros((n, K), dtype=float)
    obs_y = np.zeros((n, K), dtype=float)
    obs_r = np.zeros((n, K), dtype=float)
    placed = [obstacle for world in worlds for obstacle in world.obstacles]
    obs_x[obs_valid] = [obstacle.x_m for obstacle in placed]
    obs_y[obs_valid] = [obstacle.y_m for obstacle in placed]
    obs_r[obs_valid] = [obstacle.radius_m for obstacle in placed]
    # Indexed by episode row (not by position: see ``order`` below).
    moving = [
        [(k, o) for k, o in enumerate(world.obstacles) if o.motion is not None]
        for world in worlds
    ]
    movers = np.array([bool(motions) for motions in moving])
    has_moving = bool(movers.any())
    del worlds, placed

    # ------------------------------------------------------------------
    # Per-episode draw streams (the offload and dropout generators, one row
    # per episode), shared shield, controller.
    # ------------------------------------------------------------------
    modes = ModeRows.of([row.optimization for row in row_configs])
    sched_stream = (
        DrawStream(
            [(config.seed + 2) * 1000 + episode for episode in episode_ids],
            "standard_exponential",
        )
        if modes.offload.any()
        else None
    )
    if sched_stream is not None:
        sched_stream.retire(np.nonzero(~modes.offload)[0])
    p_drop = np.array(
        [row.scenario.sensor_dropout_probability for row in row_configs], dtype=float
    )
    dropping = p_drop > 0.0
    drop_stream = (
        DrawStream(
            [(config.seed + 3) * 1000 + episode for episode in episode_ids], "random"
        )
        if dropping.any()
        else None
    )
    if drop_stream is not None:
        drop_stream.retire(np.nonzero(~dropping)[0])
    controller = framework._build_controller()
    heuristic_controller = isinstance(controller, ObstacleAvoidanceController)
    # The shield math is stateless (the per-episode counters live in the
    # arrays below), so one instance filters the whole batch.
    shield = SteeringShield(
        safety_function=barrier,
        intervention_margin_m=config.shield_margin_m,
    )

    # ------------------------------------------------------------------
    # Detectors: one shared scan per episode per frame feeds every detector
    # that needs a fresh output (the scan is a pure function of the
    # pre-step world; every detector holds the same scanner).  Each
    # detector's noise source has one row per episode, every row replaying
    # the detector seed as ``reset()`` does.
    # ------------------------------------------------------------------
    detectors = framework.detectors
    scanner = next(iter(detectors.values())).scanner
    det_noise = {name: detector.noise_source(n) for name, detector in detectors.items()}
    # A finished episode retires from every stream, so it stops holding
    # its seed group's draws.
    draw_streams = [
        stream
        for stream in (sched_stream, drop_stream, *det_noise.values())
        if stream is not None
    ]

    # ------------------------------------------------------------------
    # Model pipeline (the ledger's column order: Lambda'' then Lambda') and
    # deadline provider.
    # ------------------------------------------------------------------
    model_set = framework.model_set
    energy = EnergyColumns.create(
        [(other.model_set, size) for other, size in zip(frameworks, cell_sizes)], tau
    )
    num_crit = energy.critical_count
    opt_names = energy.names[num_crit:]
    num_opt = len(opt_names)
    models = model_set.critical + model_set.optimizable
    delta_i_all = np.array([model.discretized_period(tau) for model in models], dtype=np.int64)
    delta_i_opt = delta_i_all[num_crit:]
    compute_opt = energy.compute_j[num_crit:]
    max_deadline_periods = config.max_deadline_periods
    planner = framework.offload_planner
    delta_hat = planner.estimated_response_periods(tau)
    draws_per_offload = planner.draws_per_sample

    # Deadline sources: the lookup table, the exact estimator, or (for
    # safety-oblivious rows) the estimator horizon.
    estimator = framework.estimator
    horizon_s = estimator.horizon_s
    lookup_rows = np.array(
        [row.safety_aware and row.use_lookup_table for row in row_configs]
    )
    exact_rows = np.array(
        [row.safety_aware and not row.use_lookup_table for row in row_configs]
    )
    # Every cell that builds a table builds this one (equal lockstep keys).
    lookup_table = next(
        (other.lookup_table for other in frameworks if other.lookup_table is not None),
        None,
    )
    obstacle_radius = config.scenario.obstacle_radius_m

    # ------------------------------------------------------------------
    # Per-episode run state (structure of arrays; the scheduler interval
    # state is one SchedulerState row per episode).
    # ------------------------------------------------------------------
    sched = SchedulerState.create(n, num_opt)
    dropouts = np.zeros(n, dtype=np.int64)
    unsafe = np.zeros(n, dtype=np.int64)
    interventions = np.zeros(n, dtype=np.int64)
    min_dist = np.full(n, float("inf"), dtype=float)
    # Latest-detection ledger, structure-of-arrays over (episode, model):
    # presence/nearest/staleness columns plus an insertion *rank*, the order
    # in which each model first produced an output in that episode.  The
    # controller reads the nearest held detection across models; among
    # equal distances the earliest-inserted model wins.
    det_present = np.zeros((n, num_opt), dtype=bool)
    det_nonempty = np.zeros((n, num_opt), dtype=bool)
    det_best_d = np.zeros((n, num_opt), dtype=float)
    det_best_b = np.zeros((n, num_opt), dtype=float)
    det_stale_flag = np.zeros((n, num_opt), dtype=bool)
    det_rank = np.zeros((n, num_opt), dtype=np.int64)
    det_next_rank = np.zeros(n, dtype=np.int64)
    proj_s, proj_d = centerline.project_batch(xs, ys)

    # Live episodes are the prefix ``[:m]`` of every per-row array, so a
    # frame reads and writes them through slices.  ``order[p]`` is the
    # episode row at position ``p``: it names the row's draw-stream rows
    # and report.  A frame in which episodes end moves them behind the
    # live ones with one stable partition of every array below.
    order = np.arange(n)
    m = n
    row_state = (
        order, xs, ys, hs, vs, proj_s, proj_d, obs_x, obs_y, obs_r, obs_valid,
        movers, length_rows, half_width_rows, edge_rows, target_rows,
        p_drop, dropping, filtered, lookup_rows, exact_rows, *modes,
        *sched.row_arrays(), *energy.row_arrays(),
        dropouts, unsafe, interventions, min_dist,
        det_present, det_nonempty, det_best_d, det_best_b, det_stale_flag,
        det_rank, det_next_rank,
    )
    # Written once per episode, when it ends; indexed by episode row.
    steps_count = np.full(n, config.max_steps, dtype=np.int64)
    finished_f = np.zeros(n, dtype=bool)
    collided_f = np.zeros(n, dtype=bool)
    offroad_f = np.zeros(n, dtype=bool)
    # ``delta_max`` log: the episode rows and periods of each frame's new
    # intervals, split per row when the reports are built.
    sample_rows: list[np.ndarray] = []
    sample_periods: list[np.ndarray] = []

    # Per-frame constants, sliced to the live count (read-only).
    rank_max = np.iinfo(np.int64).max
    zeros = np.zeros(n, dtype=float)
    no_transmission = np.zeros((n, num_opt), dtype=float)
    no_miss = np.zeros((n, num_opt), dtype=bool)
    row_numbers = np.arange(n)
    flat_rows = row_numbers * num_opt
    # Scan row of each position that needs a scan this frame.
    scan_pos = np.zeros(n, dtype=np.int64)

    spent = dict.fromkeys(_PHASES, 0.0) if timings is not None else None
    stamp = 0.0
    time_s = 0.0

    for t in range(config.max_steps):
        if not m:
            break
        if spent is not None:
            stamp = perf_counter()
        x_act = xs[:m]
        y_act = ys[:m]
        h_act = hs[:m]
        v_act = vs[:m]

        # ---- Nearest-obstacle view kernel (scan/view sub-phase) ----
        valid_act = obs_valid[:m]
        dist_b, bear_b, _nearest = World.nearest_obstacle_view_batch(
            x_act, y_act, h_act, obs_x[:m], obs_y[:m], obs_r[:m], valid_act
        )
        if spent is not None:
            stamp = _lap(spent, "scan_view", stamp)

        # ---- Pass 1: perception aggregate -> safety state -> control ----
        # Nearest detection across models: masked distance minimum, ties to
        # the lowest insertion rank (see the ledger comment above).
        candidates = det_nonempty[:m]
        dist_masked = np.where(candidates, det_best_d[:m], np.inf)
        nearest_dist = np.minimum.reduce(dist_masked, axis=1)
        has_det = np.isfinite(nearest_dist)
        is_nearest = candidates & (dist_masked == nearest_dist[:, None])
        # Rows without a detection read an arbitrary held column: the
        # controller ignores the detection inputs of rows without one.
        model_sel = np.where(is_nearest, det_rank[:m], rank_max).argmin(axis=1)
        held = flat_rows[:m] + model_sel
        det_d = det_best_d.reshape(-1)[held]
        det_bg = det_best_b.reshape(-1)[held]
        det_stale = det_stale_flag.reshape(-1)[held]

        lat_act = proj_d[:m]
        if straight:
            heading_err = wrap_angle(h_act)
            curv_act = zeros[:m]
        else:
            road_heading, curv_act = centerline.heading_curvature_at_batch(proj_s[:m])
            heading_err = wrap_angle(h_act - road_heading)

        h_vals = barrier.evaluate_batch(dist_b, bear_b, v_act)
        np.minimum(min_dist[:m], dist_b, out=min_dist[:m])
        unsafe[:m] += h_vals < 0.0

        target_act = target_rows[:m]
        if heuristic_controller:
            raw_s, raw_t = controller.act_batch(
                v_act, target_act, lat_act, heading_err, curv_act,
                has_det, det_d, det_bg, det_stale,
            )
        else:  # pure pursuit: SEOConfig admits only these two controllers
            raw_s, raw_t = controller.act_batch(
                v_act, target_act, lat_act, heading_err, curv_act
            )

        fs, ft, intervened = shield.filter_batch(
            h_vals, dist_b, bear_b, v_act, lat_act, half_width_rows[:m], raw_s, raw_t
        )
        # Unfiltered rows drive the raw control.
        keep = filtered[:m]
        fs = np.where(keep, fs, raw_s)
        ft = np.where(keep, ft, raw_t)
        interventions[:m] += intervened & keep
        if spent is not None:
            stamp = _lap(spent, "decision", stamp)

        # ---- Deadline sampling for episodes starting a safe interval ----
        # Safety-oblivious rows keep the horizon; the others read their
        # source on their subset of the starting episodes.
        starting = sched.new_delta[:m].nonzero()[0]
        if starting.size:
            deadlines = np.full(starting.size, horizon_s, dtype=float)
            at = lookup_rows[starting]
            if np.count_nonzero(at):
                assert lookup_table is not None
                rows = starting[at]
                deadlines[at] = lookup_table.query_batch(
                    dist_b[rows], bear_b[rows], v_act[rows], fs[rows], ft[rows]
                )
            present = exact_rows[starting] & (dist_b[starting] < NO_OBSTACLE_DISTANCE_M)
            if np.count_nonzero(present):
                rows = starting[present]
                deadlines[present] = estimator.estimate_batch(
                    dist_b[rows],
                    bear_b[rows],
                    v_act[rows],
                    fs[rows],
                    ft[rows],
                    obstacle_radius_m=obstacle_radius,
                )
            periods = begin_interval_kernel(
                sched, starting, deadlines, tau, max_deadline_periods, delta_i_opt
            )
            sample_rows.append(order[starting])
            sample_periods.append(periods)

        # ---- Pass 2: Algorithm 1's period kernel over (episode, model) ----
        # The shared kernels decide and charge every live episode at once.
        # Issued offloads draw their round trips from each episode's stream
        # row in pipeline order.
        dmx_act = sched.delta_max[:m]
        istep_act = sched.interval_step[:m]
        natural = natural_slot_kernel(t, delta_i_all)
        natural_opt = natural[num_crit:]
        full = full_slot_kernel(natural_opt, istep_act, delta_i_opt, dmx_act)
        outcome = period_kernel(
            modes.head(m), natural_opt, full, istep_act, dmx_act, delta_i_opt,
            delta_hat, sched.pending[:m], compute_opt,
            energy.measurement_j[:m, num_crit:],
        )
        pending = outcome.pending
        transmission = no_transmission[:m]
        missed = no_miss[:m]
        issue_counts = np.add.reduce(outcome.issue, axis=1)
        issue_rows = issue_counts.nonzero()[0]
        if issue_rows.size:
            assert sched_stream is not None
            exp_draws = sched_stream.take(
                order[issue_rows], issue_counts[issue_rows] * draws_per_offload
            ).reshape(-1, draws_per_offload)
            _tx_t, _rt, tx_energy, response = planner.sample_batch(tau, exp_draws)
            transmission = np.zeros((m, num_opt), dtype=float)
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
        # scan phase below fills the nearest/staleness columns in.
        fresh = outcome.fresh
        present = det_present[:m]
        stale = det_stale_flag[:m]
        kept = fresh
        if drop_stream is not None:
            draw = fresh & outcome.local & present & dropping[:m, None]
            draw_counts = np.add.reduce(draw, axis=1)
            draw_rows = draw_counts.nonzero()[0]
            if draw_rows.size:
                taken = draw_counts[draw_rows]
                draws = drop_stream.take(order[draw_rows], taken)
                dropped = np.zeros((m, num_opt), dtype=bool)
                dropped[draw] = draws < p_drop[draw_rows].repeat(taken)
                dropouts[:m] += np.add.reduce(dropped, axis=1)
                stale |= dropped
                kept = fresh & ~dropped
        new = kept & ~present
        if np.count_nonzero(new):
            ranks = det_next_rank[:m, None] + np.add.accumulate(new, axis=1) - 1
            np.copyto(det_rank[:m], ranks, where=new)
            det_next_rank[:m] += np.add.reduce(new, axis=1)
        # Gated models age their held output; fresh ones are refreshed below.
        stale |= ~fresh & present
        stale &= ~kept
        present |= kept

        deadline_done_kernel(sched.done[:m], istep_act, dmx_act, delta_i_opt)
        finish_period_kernel(sched.done[:m], sched.new_delta[:m], istep_act)
        if spent is not None:
            stamp = _lap(spent, "scheduler", stamp)

        # ---- Batched range scans for every fresh inference ----
        # One scan row per live episode that any model needs, in position
        # order.
        scan_rows = np.logical_or.reduce(kept, axis=1).nonzero()[0]
        if scan_rows.size:
            scan_pos[scan_rows] = row_numbers[: scan_rows.size]
            best = scanner.scan_batch(
                xs[scan_rows], ys[scan_rows], hs[scan_rows],
                obs_x[scan_rows], obs_y[scan_rows], obs_r[scan_rows],
                obs_valid[scan_rows],
            )
        if spent is not None:
            stamp = _lap(spent, "scan_raycast", stamp)

        # ---- Detection grouping + noise through the detector kernel ----
        if scan_rows.size:
            for j, name in enumerate(opt_names):
                rows = kept[:, j].nonzero()[0]
                if not rows.size:
                    continue
                counts, dists, bears, _spans = detectors[name].detect_batch(
                    best[scan_pos[rows]], det_noise[name], order[rows]
                )
                nonempty = counts > 0
                det_nonempty[rows, j] = nonempty
                if np.count_nonzero(nonempty):
                    _has, first = nearest_per_row(counts, dists)
                    filled = rows[nonempty]
                    det_best_d[filled, j] = dists[first]
                    det_best_b[filled, j] = bears[first]
        if spent is not None:
            stamp = _lap(spent, "scan_group", stamp)

        # ---- Batched RK4 plant update (shared bicycle kernel) ----
        xn, yn, hn, vn = rk4_plant_batch(
            x_act, y_act, h_act, v_act, fs, ft, tau, params
        )

        # ---- Status: obstacle motion, collision, road membership ----
        # Only the live rows that carry a moving obstacle pay a Python loop.
        time_s += tau
        if has_moving:
            mover_pos = movers[:m].nonzero()[0]
            for position, row in zip(mover_pos.tolist(), order[mover_pos].tolist()):
                for k, obstacle in moving[row]:
                    mx, my = obstacle.motion.position_at(
                        (obstacle.x_m, obstacle.y_m), time_s
                    )
                    obs_x[position, k] = mx
                    obs_y[position, k] = my

        collided = collided_batch(
            xn, yn, obs_x[:m], obs_y[:m], obs_r[:m], valid_act, vehicle_radius
        )
        s_tot, d_arr = centerline.project_batch(xn, yn)
        fin = s_tot >= length_rows[:m]
        off = ~(np.abs(d_arr) <= edge_rows[:m])

        xs[:m] = xn
        ys[:m] = yn
        hs[:m] = hn
        vs[:m] = vn
        proj_s[:m] = s_tot
        proj_d[:m] = d_arr
        ended = collided | off | fin
        if np.count_nonzero(ended):
            ended_rows = order[:m][ended]
            steps_count[ended_rows] = t + 1
            collided_f[ended_rows] = collided[ended]
            offroad_f[ended_rows] = off[ended]
            finished_f[ended_rows] = fin[ended]
            for stream in draw_streams:
                stream.retire(ended_rows)
            live = (~ended).nonzero()[0]
            perm = np.concatenate((live, ended.nonzero()[0]))
            for column in row_state:
                column[:m] = column[:m][perm]
            m = live.size
        if spent is not None:
            _lap(spent, "dynamics", stamp)

    if timings is not None:
        assert spent is not None
        spent["scan"] = spent["scan_raycast"] + spent["scan_group"] + spent["scan_view"]
        for phase, seconds in spent.items():
            timings[phase] = timings.get(phase, 0.0) + seconds

    # Split the delta_max log per episode row, each row's samples in frame
    # order (a stable sort keeps it).
    logged_rows = np.concatenate([np.zeros(0, dtype=np.int64), *sample_rows])
    logged = np.concatenate([np.zeros(0, dtype=np.int64), *sample_periods])
    by_row = np.argsort(logged_rows, kind="stable")
    bounds = np.cumsum(np.bincount(logged_rows, minlength=n))[:-1]
    samples = np.split(logged[by_row], bounds)
    # The row of each episode sits at position ``position[row]``.
    position = np.empty(n, dtype=np.int64)
    position[order] = row_numbers
    reports = [
        EpisodeReport(
            episode=episode,
            steps=int(steps_count[i]),
            duration_s=int(steps_count[i]) * tau,
            completed=bool(finished_f[i]),
            collided=bool(collided_f[i]),
            off_road=bool(offroad_f[i]),
            shield_interventions=int(interventions[p]),
            delta_max_samples=samples[i].tolist(),
            min_obstacle_distance_m=float(min_dist[p]),
            unsafe_steps=int(unsafe[p]),
            sensor_dropouts=int(dropouts[p]),
            **energy.report_fields(p),
        )
        for i, (episode, p) in enumerate(zip(episode_ids, position.tolist()))
    ]
    cell_bounds = np.cumsum([0, *cell_sizes]).tolist()
    return [reports[lo:hi] for lo, hi in zip(cell_bounds, cell_bounds[1:])]


def _lap(spent: dict[str, float], phase: str, stamp: float) -> float:
    """Charge the time since ``stamp`` to ``phase``; returns the new stamp."""
    now = perf_counter()
    spent[phase] += now - stamp
    return now

