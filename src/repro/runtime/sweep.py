"""Batched multi-config sweeps, in-process or over one local process pool.

Every paper artifact (Fig. 1/5/6, Tables I-III, the ablations, the scenario
suite) is a *sweep*: the same episode loop evaluated over a batch of named
:class:`~repro.core.framework.SEOConfig` variants.  :class:`SweepRunner`
makes the sweep a first-class object: it accepts a batch of
:class:`SweepJob` entries, lowers each to a
:class:`~repro.runtime.workunit.WorkUnit`, runs units with equal configs
and ranges once, groups the units whose configs share a
:meth:`~repro.core.framework.SEOConfig.lockstep_key`, and runs each
group's episode ranges in numpy lockstep: in-process as one call, or cut
into at most one chunk per worker of a local process pool.  Reports are
routed back per job in episode order.

Episodes are fully determined by ``(config, episode index)``: every draw
an episode makes comes from a generator the engine seeds from the config
seed and, but for detector noise, the episode index (see
:mod:`repro.runtime.batch`).  So neither the grouping nor the cut can
change any report.

The runner is the one place that turns a backend name into a pool, and
:func:`check_backend` is the one statement of which backend names are
valid.  A pool lives for one :meth:`SweepRunner.run` call; the CLI puts
every artifact of an invocation into that one call (see :mod:`repro.cli`),
so ``all`` constructs at most one pool.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Hashable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TypeVar

from repro.core.framework import EpisodeReport, SEOConfig, SEOFramework
from repro.runtime.batch import run_cells
from repro.runtime.workunit import WorkUnit

__all__ = [
    "EXECUTOR_BACKENDS",
    "SweepJob",
    "SweepRunner",
    "check_backend",
    "sweep_jobs",
    "resolve_jobs",
    "split_ranges",
]

#: Backend names accepted by :class:`SweepRunner` (and the CLI ``--backend``
#: flag): ``"process"`` fans chunks of lockstep groups out over a local
#: process pool; ``"batch"`` runs in-process, the same as ``jobs=1``: each
#: group is one lockstep call (see :mod:`repro.runtime.batch`).
EXECUTOR_BACKENDS = ("process", "batch")


def resolve_jobs(jobs: int) -> int:
    """Resolve a ``--jobs`` value: ``jobs <= 0`` means "use all CPU cores"."""
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def check_backend(backend: str) -> None:
    """Refuse an unknown backend name."""
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(f"unknown backend: {backend!r} (choose from {EXECUTOR_BACKENDS})")


@dataclass(frozen=True)
class SweepJob:
    """One named entry of a sweep batch.

    Attributes:
        label: Identifier the job's reports are routed back under.  Any
            hashable works; drivers typically use the cell coordinates of
            their artifact (``("offload", True)``, an obstacle count, ...).
            Purely presentational — the job's identity is its
            :attr:`unit`.
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
        """The work unit this job lowers to."""
        return WorkUnit(config=self.config, episode_start=0, episode_stop=self.episodes)


def sweep_jobs(configs: Mapping[Hashable, SEOConfig], episodes: int) -> list[SweepJob]:
    """Build a job batch running every named config for ``episodes`` episodes."""
    return [
        SweepJob(label=label, config=config, episodes=episodes)
        for label, config in configs.items()
    ]


def run_ranges(
    ranges: Sequence[tuple[SEOConfig, int, int]]
) -> list[list[EpisodeReport]]:
    """Run ``(config, start, stop)`` episode ranges of one lockstep key as one call.

    The one task of a sweep: :class:`SweepRunner` calls it in-process and
    submits it to pool workers (it is top level, so a process pool can
    pickle it).  Each distinct config's framework is built once, and the
    ranges are the cells of one :func:`~repro.runtime.batch.run_cells`
    call.  Returns each range's reports, bit-identical to running it alone.
    """
    frameworks: dict[SEOConfig, SEOFramework] = {}
    for config, _, _ in ranges:
        if config not in frameworks:
            frameworks[config] = SEOFramework(config)
    return run_cells(
        [(frameworks[config], range(start, stop)) for config, start, stop in ranges]
    )


_Item = TypeVar("_Item")


def split_ranges(
    ranges: Sequence[tuple[_Item, int, int]], parts: int
) -> list[list[tuple[_Item, int, int]]]:
    """Cut ``(item, start, stop)`` episode ranges into contiguous chunks.

    Returns at most ``parts`` chunks that together hold every episode of
    ``ranges`` once, in order, with episode counts differing by at most
    one.  A range cut by a chunk boundary continues at the start of the
    next chunk.
    """
    total = sum(stop - start for _, start, stop in ranges)
    count = max(1, min(parts, total))
    chunks: list[list[tuple[_Item, int, int]]] = [[] for _ in range(count)]
    offset = 0  # episodes of ``ranges`` before the current range
    for item, start, stop in ranges:
        for index, chunk in enumerate(chunks):
            # Chunk ``index`` holds the flat episodes from total*index//count on.
            low = max(total * index // count - offset, 0)
            high = min(total * (index + 1) // count - offset, stop - start)
            if low < high:
                chunk.append((item, start + low, start + high))
        offset += stop - start
    return chunks


class SweepRunner:
    """Run batches of ``(config, episodes)`` jobs, in-process or over a pool.

    The units whose configs share a
    :meth:`~repro.core.framework.SEOConfig.lockstep_key` form a group.
    With ``jobs == 1`` or the ``"batch"`` backend no pool is ever created
    and each group is one :func:`run_ranges` call in-process; otherwise
    :meth:`run` cuts each group into at most one chunk per worker and, if
    that makes more than one chunk, builds a pool, submits each chunk as
    one :func:`run_ranges` task and shuts the pool down before it returns
    (a batch of one chunk runs in-process).  Either way the reports are
    bit-identical.

    Args:
        jobs: Worker count; ``jobs <= 0`` selects ``os.cpu_count()`` and
            ``jobs == 1`` keeps everything in-process.
        backend: One of :data:`EXECUTOR_BACKENDS`: ``"process"``
            (default) or ``"batch"`` (in-process, the same as
            ``jobs == 1``; ``jobs`` is ignored).
    """

    def __init__(self, jobs: int = 1, backend: str = "process") -> None:
        check_backend(backend)
        if backend == "batch" and jobs != 1:
            warnings.warn(
                "the batch backend runs in-process and ignores jobs="
                f"{jobs}; its throughput comes from numpy lockstep, not "
                "worker parallelism",
                stacklevel=2,
            )
        self.backend = backend
        self.workers = resolve_jobs(jobs)

    def run(
        self, jobs: Sequence[SweepJob], experiment: str | None = None
    ) -> dict[Hashable, list[EpisodeReport]]:
        """Run a batch of jobs and route reports back per label, episode-ordered.

        Jobs are lowered to work units and deduplicated by
        :attr:`~repro.runtime.workunit.WorkUnit.key`: two labels naming
        equal configs over equal ranges share one execution.  Every chunk
        of every group is submitted to the pool up front, so the whole
        batch drains with full parallelism instead of config by config.
        Results are bit-identical to the in-process per-config path.  A
        failing task fails the batch fast: queued tasks are cancelled
        rather than drained before the error surfaces.

        Args:
            jobs: The batch to run; labels must be unique within it.
            experiment: Ignored; callers may name the artifact the batch
                belongs to (e.g. ``"fig5"``).
        """
        labels = [job.label for job in jobs]
        if len(set(labels)) != len(labels):
            raise ValueError("sweep job labels must be unique within a batch")
        if not jobs:
            return {}
        units: dict[Hashable, WorkUnit] = {}
        key_by_label: dict[Hashable, Hashable] = {}
        for job in jobs:
            unit = job.unit
            units.setdefault(unit.key, unit)
            key_by_label[job.label] = unit.key
        groups: dict[Hashable, list[tuple[WorkUnit, int, int]]] = {}
        for unit in units.values():
            groups.setdefault(unit.config.lockstep_key(), []).append(
                (unit, unit.episode_start, unit.episode_stop)
            )
        # In-process, a group is one lockstep call.  A pool gets it cut by
        # episode count, so a one-group artifact still keeps every worker
        # busy; a batch that is one chunk runs in-process, where it needs no
        # fork and no worker-side framework builds.
        parts = 1 if self.backend == "batch" else self.workers
        tasks = [chunk for group in groups.values() for chunk in split_ranges(group, parts)]
        ranges = [[(unit.config, start, stop) for unit, start, stop in task] for task in tasks]
        if parts == 1 or len(ranges) == 1:
            outputs = [run_ranges(task) for task in ranges]
        else:
            # The pool forks only as many workers as the batch can use.
            pool = ProcessPoolExecutor(max_workers=min(self.workers, len(ranges)))
            try:
                futures = [pool.submit(run_ranges, task) for task in ranges]
                outputs = [future.result() for future in futures]
            finally:
                # No pool outlives run().  On a failing task, drop the
                # queued ones instead of letting the pool drain the rest of
                # the sweep before the error surfaces.
                pool.shutdown(cancel_futures=True)
        results: dict[Hashable, list[EpisodeReport]] = {}
        for task, cells in zip(tasks, outputs, strict=True):
            for (unit, _, _), reports in zip(task, cells, strict=True):
                results.setdefault(unit.key, []).extend(reports)
        return {label: results[key] for label, key in key_by_label.items()}
