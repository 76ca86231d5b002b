"""Batched multi-config sweeps over one shared pool of content-addressed units.

Every paper artifact (Fig. 1/5/6, Tables I-III, the ablations, the scenario
suite) is a *sweep*: the same episode loop evaluated over a batch of named
:class:`~repro.core.framework.SEOConfig` variants.  :class:`SweepRunner`
makes the sweep a first-class object: it accepts a batch of
:class:`SweepJob` entries, lowers each to a content-addressed
:class:`~repro.runtime.workunit.WorkUnit`, fans **all episodes of all
units** into one shared worker pool, and routes the reports back per job in
episode order.

Because episodes are fully determined by ``(config, episode index)`` (see
:mod:`repro.runtime.executor`), interleaving configs in one pool cannot
change any report, and a unit's reports are valid wherever and whenever the
unit runs.  The runner exploits that in three ways:

* **Ledger** — with a :class:`~repro.runtime.ledger.RunLedger` attached,
  every freshly executed unit is recorded on disk; with ``resume=True``,
  units already in the ledger are loaded back bit-identically instead of
  re-executed.
* **Sharding** — with a :class:`~repro.runtime.shard.ShardSpec` attached,
  only the units whose content hash maps to this shard are executed; the
  rest raise :class:`SweepIncomplete` after the local share is done, and
  ``repro.cli merge`` later reassembles the full artifact from the shard
  ledgers.
* **Remote dispatch** — the ``"socket"`` backend feeds the same units to
  persistent workers on other machines over a JSON/TCP protocol
  (:mod:`repro.runtime.remote`).

The runner is the one place that turns a backend name into a pool, and
:func:`check_backend` is the one statement of which backend names and
worker-address pairings are valid.  The pool is created lazily on the first
parallel batch and reused by every subsequent :meth:`SweepRunner.run` call,
so a CLI invocation that regenerates every artifact constructs at most one
pool.
"""

from __future__ import annotations

import threading
import warnings
from collections.abc import Callable, Hashable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Any

from repro.core.framework import EpisodeReport, SEOConfig
from repro.runtime.cache import default_cache
from repro.runtime.executor import (
    SerialExecutor,
    _init_worker,
    _run_episode_task,
    resolve_jobs,
)
from repro.runtime.ledger import RunLedger
from repro.runtime.shard import ShardManifest, ShardSpec
from repro.runtime.workunit import WorkUnit

__all__ = [
    "EXECUTOR_BACKENDS",
    "SweepIncomplete",
    "SweepJob",
    "SweepRunner",
    "check_backend",
    "sweep_jobs",
    "pool_constructions",
    "reset_pool_constructions",
]

#: Backend names accepted by :class:`SweepRunner` (and the CLI ``--backend``
#: flag): ``"process"`` fans episodes out over a local process pool;
#: ``"socket"`` dispatches them to ``repro.cli worker --listen`` processes
#: over TCP (see :mod:`repro.runtime.remote`); ``"batch"`` runs in-process,
#: the same as ``jobs=1``: each unit's episodes step in numpy lockstep (see
#: :mod:`repro.runtime.batch`).
EXECUTOR_BACKENDS = ("process", "socket", "batch")


def check_backend(backend: str, workers: Sequence[str] | None = None) -> None:
    """Refuse an unknown backend name or a backend/worker-address mismatch.

    Worker addresses (``"host:port"`` strings) are required by, and only
    valid with, the ``"socket"`` backend.
    """
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown backend: {backend!r} (choose from {EXECUTOR_BACKENDS})"
        )
    if backend == "socket" and not workers:
        raise ValueError(
            "the socket backend requires worker addresses "
            '(workers=["host:port", ...]; on the CLI, --workers HOST:PORT,...)'
        )
    if workers and backend != "socket":
        raise ValueError(
            "worker addresses (--workers) are only valid with the socket "
            "backend (--backend socket)"
        )


#: Process-wide count of worker pools constructed by sweep runners.  Tests
#: (and the CLI acceptance criterion "one pool per invocation") assert on
#: deltas of this counter; guarded by a lock so concurrent runners can't
#: race the increment.
_POOL_CONSTRUCTIONS = 0
_POOL_CONSTRUCTIONS_LOCK = threading.Lock()


def pool_constructions() -> int:
    """Total worker pools constructed by :class:`SweepRunner` in this process."""
    with _POOL_CONSTRUCTIONS_LOCK:
        return _POOL_CONSTRUCTIONS


def reset_pool_constructions() -> int:
    """Reset the pool-construction counter to zero; returns the old value."""
    global _POOL_CONSTRUCTIONS
    with _POOL_CONSTRUCTIONS_LOCK:
        previous = _POOL_CONSTRUCTIONS
        _POOL_CONSTRUCTIONS = 0
        return previous


def _count_pool_construction() -> None:
    global _POOL_CONSTRUCTIONS
    with _POOL_CONSTRUCTIONS_LOCK:
        _POOL_CONSTRUCTIONS += 1


class SweepIncomplete(RuntimeError):
    """A sharded sweep executed its share; other shards own the rest.

    Raised by :meth:`SweepRunner.run` *after* the locally assigned units are
    executed and recorded, so a driver's aggregation (which would need the
    full batch) is skipped while the shard's work is durably in its ledger.
    """

    def __init__(
        self,
        shard: ShardSpec,
        executed: int,
        cached: int,
        skipped: int,
        experiment: str | None = None,
    ) -> None:
        self.shard = shard
        self.executed = executed
        self.cached = cached
        self.skipped = skipped
        self.experiment = experiment
        total = executed + cached + skipped
        super().__init__(
            f"shard {shard}: executed {executed} unit(s), {cached} from ledger, "
            f"{skipped} owned by other shards ({total} total)"
        )


@dataclass(frozen=True)
class SweepJob:
    """One named entry of a sweep batch.

    Attributes:
        label: Identifier the job's reports are routed back under.  Any
            hashable works; drivers typically use the cell coordinates of
            their artifact (``("offload", True)``, an obstacle count, ...).
            Purely presentational — the job's identity is its derived
            content-addressed :attr:`key`.
        config: The configuration to run.
        episodes: Number of episodes (indices ``0 .. episodes-1``).
    """

    label: Hashable
    config: SEOConfig
    episodes: int

    def __post_init__(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")

    @property
    def unit(self) -> WorkUnit:
        """The content-addressed work unit this job lowers to."""
        return WorkUnit.for_sweep(self.config, self.episodes)

    @property
    def key(self) -> str:
        """Stable content hash of ``(config, episode range)``.

        Derived, never caller-invented: equal work has equal keys across
        processes, machines and runs, which is what the ledger, shard and
        remote layers key on.
        """
        return self.unit.key


def sweep_jobs(
    configs: Mapping[Hashable, SEOConfig], episodes: int
) -> list[SweepJob]:
    """Build a job batch running every named config for ``episodes`` episodes."""
    return [
        SweepJob(label=label, config=config, episodes=episodes)
        for label, config in configs.items()
    ]


class SweepRunner:
    """Run batches of ``(config, episodes)`` jobs over one shared worker pool.

    The runner owns at most one live pool: the first parallel :meth:`run`
    creates it, later calls reuse it, and :meth:`close` (or exiting the
    context manager) shuts it down — after which the runner refuses further
    batches instead of silently leaking a fresh pool.  With ``jobs == 1`` or
    the ``"batch"`` backend no pool is ever created and every unit runs
    in-process through :class:`~repro.runtime.executor.SerialExecutor`:
    the units whose configs share a
    :meth:`~repro.core.framework.SEOConfig.lockstep_key` run as one
    lockstep call — either way the reports are bit-identical.

    Args:
        jobs: Worker count; ``jobs <= 0`` selects ``os.cpu_count()`` and
            ``jobs == 1`` keeps everything in-process.
        backend: One of :data:`EXECUTOR_BACKENDS`: ``"process"``
            (default), ``"socket"`` or ``"batch"`` (in-process, the same
            as ``jobs == 1``; ``jobs`` is ignored).
        ledger: Optional on-disk run ledger.  Every freshly executed unit is
            recorded in it (cross-run reuse); with ``resume=True`` recorded
            units are loaded instead of executed.
        resume: Load completed units from ``ledger`` (requires one).
        shard: Optional shard spec; only units assigned to this shard by
            content hash are executed, and batches containing foreign units
            raise :class:`SweepIncomplete` after the local share completes.
        manifest: Optional shard manifest; every declared unit and every
            locally resolved unit is recorded into it (and saved to
            ``manifest_path`` after each batch when that is set).
        manifest_path: Where to persist the manifest after each batch.
        workers: Remote worker addresses (``"host:port"`` strings), required
            by — and only valid with — the ``"socket"`` backend.  The pool
            size is the number of addresses (``jobs`` is ignored), and the
            sweep always dispatches remotely, even with a single address.
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: str = "process",
        ledger: RunLedger | None = None,
        resume: bool = False,
        shard: ShardSpec | None = None,
        manifest: ShardManifest | None = None,
        manifest_path: Path | None = None,
        workers: Sequence[str] | None = None,
    ) -> None:
        check_backend(backend, workers)
        if resume and ledger is None:
            raise ValueError("resume=True requires a ledger")
        if backend == "batch" and jobs != 1:
            warnings.warn(
                "the batch backend runs in-process and ignores jobs="
                f"{jobs}; its throughput comes from numpy lockstep, not "
                "worker parallelism",
                stacklevel=2,
            )
        self.backend = backend
        self.worker_addresses = tuple(workers) if workers else None
        self.workers = (
            len(self.worker_addresses)
            if self.worker_addresses is not None
            else resolve_jobs(jobs)
        )
        self.ledger = ledger
        self.resume = resume
        self.shard = shard
        self.manifest = manifest
        self.manifest_path = Path(manifest_path) if manifest_path else None
        self.pools_created = 0
        self.units_executed = 0
        self.units_resumed = 0
        self._pool = None
        self._closed = False
        self._serial = SerialExecutor()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the shared pool (if any) and refuse further batches."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._closed = True

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            if self.backend == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(default_cache().cache_dir,),
                )
            else:
                # Imported lazily: keeps asyncio off the import path of
                # every run that never dispatches remotely.
                from repro.runtime.remote import SocketWorkerPool

                assert self.worker_addresses is not None
                self._pool = SocketWorkerPool(
                    self.worker_addresses, cache_dir=default_cache().cache_dir
                )
            self.pools_created += 1
            _count_pool_construction()
        return self._pool

    def _submitter(self, pool: Any) -> Callable[[SEOConfig, int], "object"]:
        """Episode submission callable for the active backend's pool."""
        if self.backend == "process":
            return lambda config, episode: pool.submit(
                _run_episode_task, config, episode
            )
        return pool.submit  # SocketWorkerPool.submit(config, episode)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[SweepJob], experiment: str | None = None
    ) -> dict[Hashable, list[EpisodeReport]]:
        """Run a batch of jobs and route reports back per label, episode-ordered.

        Jobs are lowered to content-addressed units and deduplicated: two
        labels naming identical work share one execution.  Units already in
        the ledger are loaded when resuming; units owned by other shards are
        skipped (raising :class:`SweepIncomplete` once the local share is
        executed and recorded).  Every episode of every executed unit is
        submitted to the shared pool up front, so the whole batch drains
        with full parallelism instead of config by config.  Results are
        bit-identical to the in-process per-config path.  A failing episode
        fails the batch fast: queued episodes are cancelled rather than
        drained before the error surfaces.

        Args:
            jobs: The batch to run; labels must be unique within it.
            experiment: Optional driver name recorded in ledger/manifest
                metadata (e.g. ``"fig5"``).
        """
        if self._closed:
            raise RuntimeError("SweepRunner is closed; create a new one")
        labels = [job.label for job in jobs]
        if len(set(labels)) != len(labels):
            raise ValueError("sweep job labels must be unique within a batch")
        if not jobs:
            return {}

        units: dict[str, WorkUnit] = {}
        key_by_label: dict[Hashable, str] = {}
        for job in jobs:
            unit = job.unit
            units.setdefault(unit.key, unit)
            key_by_label[job.label] = unit.key
            if self.manifest is not None:
                self.manifest.declare(
                    unit, label=str(job.label), experiment=experiment
                )

        resolved: dict[str, list[EpisodeReport]] = {}
        to_run: list[WorkUnit] = []
        skipped = 0
        for key, unit in units.items():
            if self.resume and self.ledger is not None:
                reports = self.ledger.get(unit)
                if reports is not None:
                    resolved[key] = reports
                    self.units_resumed += 1
                    continue
            if self.shard is not None and not self.shard.assigns(key):
                skipped += 1
                continue
            to_run.append(unit)

        fresh = self._execute_units(to_run)
        for unit in to_run:
            reports = fresh[unit.key]
            if self.ledger is not None:
                label = next(
                    str(job.label) for job in jobs if key_by_label[job.label] == unit.key
                )
                self.ledger.put(unit, reports, label=label, experiment=experiment)
            resolved[unit.key] = reports
        self.units_executed += len(to_run)

        if self.manifest is not None:
            for key in resolved:
                self.manifest.mark_completed(key)
            if self.manifest_path is not None:
                self.manifest.save(self.manifest_path)

        if skipped:
            assert self.shard is not None
            raise SweepIncomplete(
                shard=self.shard,
                executed=len(to_run),
                cached=len(units) - len(to_run) - skipped,
                skipped=skipped,
                experiment=experiment,
            )
        return {label: resolved[key] for label, key in key_by_label.items()}

    def _execute_units(
        self, units: Sequence[WorkUnit]
    ) -> dict[str, list[EpisodeReport]]:
        """Execute units on the configured backend, keyed by unit hash."""
        if not units:
            return {}
        # In-process: the units of one lockstep key are one lockstep call,
        # each unit's episode range a cell of it.  The socket backend never
        # degrades to it: one address still means "run it on that machine".
        if self.backend == "batch" or (
            self.backend == "process" and self.workers <= 1
        ):
            groups: dict[Hashable, list[WorkUnit]] = {}
            for unit in units:
                groups.setdefault(unit.config.lockstep_key(), []).append(unit)
            results: dict[str, list[EpisodeReport]] = {}
            for group in groups.values():
                cells = self._serial.run_ranges(
                    [(unit.config, unit.episode_start, unit.episode_stop) for unit in group]
                )
                results.update(zip((unit.key for unit in group), cells))
            return results
        pool = self._ensure_pool()
        submit = self._submitter(pool)
        futures = {
            unit.key: [submit(unit.config, episode) for episode in unit.episodes]
            for unit in units
        }
        results = {}
        try:
            for key, unit_futures in futures.items():
                results[key] = [future.result() for future in unit_futures]
        except BaseException:
            # Fail fast: drop the queued episodes instead of letting the
            # pool drain the rest of the sweep before the error surfaces.
            # A later run() may lazily build a replacement pool.
            pool.shutdown(cancel_futures=True)
            self._pool = None
            raise
        return results

    def run_one(self, config: SEOConfig, episodes: int) -> list[EpisodeReport]:
        """Convenience wrapper: run a single config through the shared pool."""
        return self.run([SweepJob(label="job", config=config, episodes=episodes)])[
            "job"
        ]
