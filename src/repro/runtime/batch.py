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
in the fields of :data:`~repro.core.framework.LOCKSTEP_ROW_FIELDS`, which
the engine holds as row columns.  The optimization method is a
:class:`~repro.core.optimizations.ModeRows` column of the period kernel,
``filtered`` a shield row mask, the deadline source (the lookup table, the
exact estimator, or the horizon when safety-oblivious) a row subset of the
episodes starting an interval, and the sensor the per-row energies of
:class:`~repro.core.scheduler.EnergyColumns`.  Every column is an ``(N,)``
mask, also in a one-cell call whose rows all agree.

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
  draws for all episodes are one gather (per model for dropout and noise)
  instead of one generator call per episode.  Within an episode the draws
  keep a fixed order: the offload draws of a frame are taken in pipeline
  order, and the dropout and noise loops visit models in pipeline order.
  The detector streams share one buffer per detector: every episode's
  detector generator is seeded with the same ``detector.seed``.  Rows
  that never offload retire from the offload stream up front.
* **Masking, not branching.** Per-frame decisions are evaluated as boolean
  masks over the active set (the latest-detection ledger is a set of
  per-``(episode, model)`` nearest/staleness/insertion-rank arrays), and
  episodes that terminate (collision, road exit, route completion) are
  removed from the ``active`` index list.  A finished episode's state is
  frozen at its terminal frame.

Still per-episode in the frame loop: refills of exhausted draw streams,
the moving-obstacle ``position_at`` updates and the ``delta_max`` sample
appends.
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
    :meth:`~repro.core.framework.SEOConfig.lockstep_key`.  Returns one
    report list per cell, in the order of its ``episodes``; each report is
    bit-identical to the report of its episode run alone.

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
    for other in frameworks[1:]:
        if other.config.lockstep_key() != config.lockstep_key():
            raise ValueError(
                "cells of one lockstep call may differ only in "
                "LOCKSTEP_ROW_FIELDS (SEOConfig.lockstep_key must match)"
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
    target_speed = config.target_speed_mps
    filtered = np.array([row.filtered for row in row_configs])

    # ------------------------------------------------------------------
    # World construction (placement RNG fully consumed here, per episode).
    # ------------------------------------------------------------------
    worlds = [
        build_world(
            config.scenario,
            rng=np.random.default_rng((config.seed + 1) * 1000 + episode),
            vehicle_params=params,
        )
        for episode in episode_ids
    ]
    road = worlds[0].road
    centerline = road.centerline
    length_m = road.length_m
    half_width = road.half_width_m
    straight = road.is_straight
    edge_limit = road.half_width_m - 0.5 * params.width_m + 1e-9
    vehicle_radius = params.collision_radius_m

    xs = np.array([world.state.x_m for world in worlds], dtype=float)
    ys = np.array([world.state.y_m for world in worlds], dtype=float)
    hs = np.array([world.state.heading_rad for world in worlds], dtype=float)
    vs = np.array([world.state.speed_mps for world in worlds], dtype=float)

    obstacle_counts = {len(world.obstacles) for world in worlds}
    if len(obstacle_counts) != 1:  # pragma: no cover - placement guarantees
        raise AssertionError("episodes of one scenario must share the obstacle count")
    K = obstacle_counts.pop()
    obs_x = np.array(
        [[obstacle.x_m for obstacle in world.obstacles] for world in worlds],
        dtype=float,
    ).reshape(n, K)
    obs_y = np.array(
        [[obstacle.y_m for obstacle in world.obstacles] for world in worlds],
        dtype=float,
    ).reshape(n, K)
    obs_r = np.array(
        [[obstacle.radius_m for obstacle in world.obstacles] for world in worlds],
        dtype=float,
    ).reshape(n, K)
    moving = [
        [(k, o) for k, o in enumerate(world.obstacles) if o.motion is not None]
        for world in worlds
    ]
    has_moving = any(moving)
    del worlds

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
    p_drop = config.scenario.sensor_dropout_probability
    drop_stream = (
        DrawStream(
            [(config.seed + 3) * 1000 + episode for episode in episode_ids], "random"
        )
        if p_drop > 0.0
        else None
    )
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
    # pre-step world).  Each detector's noise source has one row per
    # episode, every row replaying the detector seed as ``reset()`` does.
    # ------------------------------------------------------------------
    det_items = list(framework.detectors.items())
    if not det_items:  # pragma: no cover - SEOFramework always builds detectors
        raise ValueError("batch engine requires at least one detector")
    scanner = det_items[0][1].scanner
    for _, detector in det_items:
        if detector.scanner != scanner:
            raise NotImplementedError(
                "batch engine requires all detectors to share one scanner"
            )
    detectors = framework.detectors
    det_noise = {name: detector.noise_source(n) for name, detector in det_items}
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
    samples: list[list[int]] = [[] for _ in range(n)]
    dropouts = np.zeros(n, dtype=np.int64)
    unsafe = np.zeros(n, dtype=np.int64)
    interventions = np.zeros(n, dtype=np.int64)
    min_dist = np.full(n, float("inf"), dtype=float)
    steps_count = np.full(n, config.max_steps, dtype=np.int64)
    finished_f = np.zeros(n, dtype=bool)
    collided_f = np.zeros(n, dtype=bool)
    offroad_f = np.zeros(n, dtype=bool)
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
    scan_pos = np.zeros(n, dtype=np.int64)
    proj_s, proj_d = centerline.project_batch(xs, ys)

    si_d = np.zeros(n, dtype=float)
    si_b = np.zeros(n, dtype=float)
    ctrl_s = np.zeros(n, dtype=float)
    ctrl_t = np.zeros(n, dtype=float)

    # Per-frame constants, sliced to the live count.
    rank_max = np.iinfo(np.int64).max
    target_rows = np.full(n, target_speed, dtype=float)
    row_numbers = np.arange(n)

    spent = dict.fromkeys(_PHASES, 0.0) if timings is not None else None
    stamp = 0.0
    time_s = 0.0
    active = list(range(n))

    for t in range(config.max_steps):
        if not active:
            break
        idx = np.array(active, dtype=int)
        m = len(active)
        if spent is not None:
            stamp = perf_counter()

        # ---- Nearest-obstacle view kernel (scan/view sub-phase) ----
        if K:
            dist_b, bear_b, _nearest = World.nearest_obstacle_view_batch(
                xs[idx], ys[idx], hs[idx], obs_x[idx], obs_y[idx], obs_r[idx]
            )
        else:
            dist_b = np.full(m, NO_OBSTACLE_DISTANCE_M, dtype=float)
            bear_b = np.zeros(m, dtype=float)
        if spent is not None:
            stamp = _lap(spent, "scan_view", stamp)

        # ---- Pass 1: perception aggregate -> safety state -> control ----
        # Nearest detection across models: masked distance minimum, ties to
        # the lowest insertion rank (see the ledger comment above).
        candidates = det_nonempty[idx]
        dist_masked = np.where(candidates, det_best_d[idx], np.inf)
        nearest_dist = dist_masked.min(axis=1)
        has_det = np.isfinite(nearest_dist)
        is_nearest = candidates & (dist_masked == nearest_dist[:, None])
        rank_masked = np.where(is_nearest, det_rank[idx], rank_max)
        model_sel = np.argmin(rank_masked, axis=1)
        det_d = np.where(has_det, det_best_d[idx, model_sel], 0.0)
        det_bg = np.where(has_det, det_best_b[idx, model_sel], 0.0)
        det_stale = has_det & det_stale_flag[idx, model_sel]

        v_act = vs[idx]
        h_act = hs[idx]
        lat_act = proj_d[idx]
        if straight:
            heading_err = wrap_angle(h_act - 0.0)
            curv_act = np.zeros(m, dtype=float)
        else:
            s_cl = np.minimum(np.maximum(proj_s[idx], 0.0), length_m)
            heading_err = wrap_angle(h_act - centerline.heading_at_batch(s_cl))
            curv_act = centerline.curvature_at_batch(s_cl)

        h_vals = barrier.evaluate_batch(dist_b, bear_b, v_act)
        min_dist[idx] = np.minimum(min_dist[idx], dist_b)
        unsafe[idx] += h_vals < 0.0

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
            h_vals, dist_b, bear_b, v_act, lat_act, half_width, raw_s, raw_t
        )
        # Unfiltered rows drive the raw control.
        keep = filtered[idx]
        fs = np.where(keep, fs, raw_s)
        ft = np.where(keep, ft, raw_t)
        interventions[idx] += intervened & keep

        si_d[idx] = dist_b
        si_b[idx] = bear_b
        ctrl_s[idx] = fs
        ctrl_t[idx] = ft
        if spent is not None:
            stamp = _lap(spent, "decision", stamp)

        # ---- Deadline sampling for episodes starting a safe interval ----
        # Safety-oblivious rows keep the horizon; the others read their
        # source on their subset of the starting episodes.
        start_eps = idx[sched.new_delta[idx]]
        if start_eps.size:
            deadlines = np.full(start_eps.size, horizon_s, dtype=float)
            at = lookup_rows[start_eps]
            if at.any():
                assert lookup_table is not None
                lookup_eps = start_eps[at]
                deadlines[at] = lookup_table.query_batch(
                    si_d[lookup_eps],
                    si_b[lookup_eps],
                    vs[lookup_eps],
                    ctrl_s[lookup_eps],
                    ctrl_t[lookup_eps],
                )
            present = exact_rows[start_eps] & (si_d[start_eps] < NO_OBSTACLE_DISTANCE_M)
            if present.any():
                exact_eps = start_eps[present]
                deadlines[present] = estimator.estimate_batch(
                    si_d[exact_eps],
                    si_b[exact_eps],
                    vs[exact_eps],
                    ctrl_s[exact_eps],
                    ctrl_t[exact_eps],
                    obstacle_radius_m=obstacle_radius,
                )
            periods = begin_interval_kernel(
                sched, start_eps, deadlines, tau, max_deadline_periods, delta_i_opt
            )
            for k in range(start_eps.size):
                samples[int(start_eps[k])].append(int(periods[k]))

        # ---- Pass 2: Algorithm 1's period kernel over (episode, model) ----
        # The shared kernels decide and charge every live episode at once.
        # Issued offloads draw their round trips from each episode's stream
        # row in pipeline order.
        dmx_act = sched.delta_max[idx]
        istep_act = sched.interval_step[idx]
        natural = natural_slot_kernel(t, delta_i_all)
        natural_opt = natural[num_crit:]
        full = full_slot_kernel(natural_opt, istep_act, delta_i_opt, dmx_act)
        outcome = period_kernel(
            modes.take(idx), natural_opt, full, istep_act, dmx_act, delta_i_opt,
            delta_hat, sched.pending[idx], compute_opt,
            energy.measurement_j[idx, num_crit:],
        )
        pending = outcome.pending
        transmission = np.zeros((m, num_opt), dtype=float)
        missed = np.zeros((m, num_opt), dtype=bool)
        issue_counts = outcome.issue.sum(axis=1)
        issue_rows = np.nonzero(issue_counts)[0]
        if issue_rows.size:
            assert sched_stream is not None
            exp_draws = sched_stream.take(
                idx[issue_rows], issue_counts[issue_rows] * draws_per_offload
            ).reshape(-1, draws_per_offload)
            _tx_t, _rt, tx_energy, response = planner.sample_batch(tau, exp_draws)
            transmission[outcome.issue] = tx_energy
            pending, missed = offload_arrival_kernel(
                pending, outcome.issue, istep_act, dmx_act, delta_i_opt, response
            )
        sched.pending[idx] = pending
        charge_period_kernel(
            energy, idx, natural, outcome.compute_j, transmission,
            outcome.measurement_j, outcome.issue, missed,
        )

        needs: list[np.ndarray | None] = [None] * num_opt
        for j in range(num_opt):
            fresh = outcome.fresh[:, j]
            local = outcome.local[:, j]
            # Perception effect of the period.  Scenario-level sensor
            # degradation: with probability p the frame behind a fresh
            # *local* inference of a model that already has an output is
            # corrupt, so the held output ages instead of being replaced,
            # the same fallback as model gating.  The inference still runs
            # and is charged.  Offload responses are never dropped: their
            # frame was captured and paid for when the offload was issued.
            # p = 0 draws nothing.  A kept inference claims its insertion
            # rank *now*; the scan phase below fills the nearest/staleness
            # columns in.
            kept = fresh
            if drop_stream is not None:
                draw_pos = np.nonzero(fresh & local & det_present[idx, j])[0]
                if draw_pos.size:
                    draw_eps = idx[draw_pos]
                    dropped = (
                        drop_stream.take(draw_eps, np.ones(draw_pos.size, dtype=np.int64))
                        < p_drop
                    )
                    drop_eps = draw_eps[dropped]
                    dropouts[drop_eps] += 1
                    det_stale_flag[drop_eps, j] = True
                    kept = fresh.copy()
                    kept[draw_pos[dropped]] = False
            fresh_eps = idx[kept]
            if fresh_eps.size:
                new_eps = fresh_eps[~det_present[fresh_eps, j]]
                det_rank[new_eps, j] = det_next_rank[new_eps]
                det_next_rank[new_eps] += 1
                det_present[fresh_eps, j] = True
                needs[j] = fresh_eps
            gated_eps = idx[~fresh & det_present[idx, j]]
            det_stale_flag[gated_eps, j] = True

        deadline_done_kernel(sched, idx, delta_i_opt)
        finish_period_kernel(sched, idx)
        if spent is not None:
            stamp = _lap(spent, "scheduler", stamp)

        # ---- Batched range scans for every fresh inference ----
        # One scan row per episode that any model needs, in episode order;
        # ``scan_pos`` maps an episode to its row.
        any_needs = any(rows is not None for rows in needs)
        if any_needs:
            scan_mask = np.zeros(n, dtype=bool)
            for rows in needs:
                if rows is not None:
                    scan_mask[rows] = True
            sel = np.nonzero(scan_mask)[0]
            scan_pos[sel] = row_numbers[: sel.size]
            best = scanner.scan_batch(
                xs[sel], ys[sel], hs[sel], obs_x[sel], obs_y[sel], obs_r[sel]
            )
        if spent is not None:
            stamp = _lap(spent, "scan_raycast", stamp)

        # ---- Detection grouping + noise through the detector kernel ----
        if any_needs:
            for j, name in enumerate(opt_names):
                rows = needs[j]
                if rows is None:
                    continue
                counts, dists, bears, _spans = detectors[name].detect_batch(
                    best[scan_pos[rows]], det_noise[name], rows
                )
                det_stale_flag[rows, j] = False
                nonempty = counts > 0
                det_nonempty[rows, j] = nonempty
                if nonempty.any():
                    _has, first = nearest_per_row(counts, dists)
                    filled = rows[nonempty]
                    det_best_d[filled, j] = dists[first]
                    det_best_b[filled, j] = bears[first]
        if spent is not None:
            stamp = _lap(spent, "scan_group", stamp)

        # ---- Batched RK4 plant update (shared bicycle kernel) ----
        xn, yn, hn, vn = rk4_plant_batch(
            xs[idx], ys[idx], h_act, v_act, fs, ft, tau, params
        )

        # ---- Status: obstacle motion, collision, road membership ----
        time_s += tau
        if has_moving:
            for i in active:
                for k, obstacle in moving[i]:
                    mx, my = obstacle.motion.position_at(
                        (obstacle.x_m, obstacle.y_m), time_s
                    )
                    obs_x[i, k] = mx
                    obs_y[i, k] = my

        collided = (
            np.any(
                np.hypot(obs_x[idx] - xn[:, None], obs_y[idx] - yn[:, None])
                <= (obs_r[idx] + vehicle_radius),
                axis=1,
            )
            if K
            else np.zeros(m, dtype=bool)
        )

        s_tot, d_arr = centerline.project_batch(xn, yn)
        fin = s_tot >= length_m
        off = ~(np.abs(d_arr) <= edge_limit)

        xs[idx] = xn
        ys[idx] = yn
        hs[idx] = hn
        vs[idx] = vn
        proj_s[idx] = s_tot
        proj_d[idx] = d_arr
        ended = collided | off | fin
        if ended.any():
            ended_idx = idx[ended]
            steps_count[ended_idx] = t + 1
            collided_f[ended_idx] = collided[ended]
            offroad_f[ended_idx] = off[ended]
            finished_f[ended_idx] = fin[ended]
            for stream in draw_streams:
                stream.retire(ended_idx)
            active = idx[~ended].tolist()
        if spent is not None:
            _lap(spent, "dynamics", stamp)

    if timings is not None:
        assert spent is not None
        spent["scan"] = spent["scan_raycast"] + spent["scan_group"] + spent["scan_view"]
        for phase, seconds in spent.items():
            timings[phase] = timings.get(phase, 0.0) + seconds

    reports = [
        EpisodeReport(
            episode=episode,
            steps=int(steps_count[i]),
            duration_s=int(steps_count[i]) * tau,
            completed=bool(finished_f[i]),
            collided=bool(collided_f[i]),
            off_road=bool(offroad_f[i]),
            shield_interventions=int(interventions[i]),
            delta_max_samples=samples[i],
            min_obstacle_distance_m=float(min_dist[i]),
            unsafe_steps=int(unsafe[i]),
            sensor_dropouts=int(dropouts[i]),
            **energy.report_fields(i),
        )
        for i, episode in enumerate(episode_ids)
    ]
    bounds = np.cumsum([0, *cell_sizes]).tolist()
    return [reports[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _lap(spent: dict[str, float], phase: str, stamp: float) -> float:
    """Charge the time since ``stamp`` to ``phase``; returns the new stamp."""
    now = perf_counter()
    spent[phase] += now - stamp
    return now

