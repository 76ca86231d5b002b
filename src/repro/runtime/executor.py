"""Episode execution engines: in-process and process-parallel.

Every figure/table of the paper is regenerated by running ``N`` independent
episodes of an :class:`repro.core.framework.SEOFramework`.  Episodes are
fully determined by ``(SEOConfig, episode index)`` — the world, the scheduler
and the detector noise generators are all re-seeded per episode — so they can
execute in any order, in any lockstep batch and on any process without
changing the results.

:class:`SerialExecutor` runs them in-process: each work unit's episode range
is one :func:`~repro.runtime.batch.run_batch` call, stepping its episodes in
numpy lockstep.  :class:`ParallelExecutor` fans them out over a
:class:`concurrent.futures.ProcessPoolExecutor`: each worker receives the
pickled :class:`~repro.core.framework.SEOConfig` plus an episode index,
rebuilds the framework once per worker (memoized on the config), and streams
back :class:`~repro.core.framework.EpisodeReport` objects which are then
reordered by episode index — the returned list is bit-identical to the
in-process run.

Multi-config sweeps that want to share one pool across many
``(config, episodes)`` batches should use
:class:`repro.runtime.sweep.SweepRunner`, the one place that turns a
backend name into a pool.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.core.framework import EpisodeReport, SEOConfig, SEOFramework
from repro.runtime.batch import run_batch
from repro.runtime.cache import LookupTableCache, default_cache, set_default_cache

__all__ = [
    "EpisodeExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "resolve_jobs",
]


def resolve_jobs(jobs: int) -> int:
    """Resolve a ``--jobs`` value: ``jobs <= 0`` means "use all CPU cores"."""
    return jobs if jobs > 0 else (os.cpu_count() or 1)


class EpisodeExecutor(abc.ABC):
    """Strategy interface for running a batch of episodes of one config."""

    @abc.abstractmethod
    def run(self, config: SEOConfig, episodes: int) -> list[EpisodeReport]:
        """Run episodes ``0 .. episodes-1`` and return reports in index order."""

    @staticmethod
    def _validate(episodes: int) -> None:
        if episodes <= 0:
            raise ValueError("episodes must be positive")


class SerialExecutor(EpisodeExecutor):
    """Run episodes in the current process, in numpy lockstep.

    Args:
        framework: Optional pre-built framework to reuse.  When provided and
            its config matches the requested one, the (expensive) framework
            construction is skipped; otherwise a fresh framework is built.
    """

    def __init__(self, framework: SEOFramework | None = None) -> None:
        self._framework = framework

    def run(self, config: SEOConfig, episodes: int) -> list[EpisodeReport]:
        self._validate(episodes)
        return self.run_range(config, 0, episodes)

    def run_range(
        self, config: SEOConfig, start: int, stop: int
    ) -> list[EpisodeReport]:
        """Run episodes ``start .. stop-1`` (a work unit's episode range)."""
        if start < 0 or stop <= start:
            raise ValueError("episode range must be non-empty and non-negative")
        framework = self._framework
        if framework is None or framework.config != config:
            framework = SEOFramework(config)
            self._framework = framework
        return run_batch(framework, range(start, stop))


# ----------------------------------------------------------------------
# Process-pool backend
# ----------------------------------------------------------------------

#: Per-worker framework memo: (config, framework) of the last config seen.
_WORKER_STATE: tuple[SEOConfig, SEOFramework] | None = None


def _init_worker(cache_dir: Path | None) -> None:
    """Propagate the parent's lookup-cache directory into a pool worker.

    On spawn-start platforms (macOS/Windows) workers get a fresh module-level
    default cache; without this, a ``--lookup-cache`` directory configured in
    the parent would be ignored by every worker.  On fork platforms the
    inherited cache usually already matches and is left untouched (preserving
    any tables memoized before the fork).
    """
    if default_cache().cache_dir != cache_dir:
        set_default_cache(LookupTableCache(cache_dir=cache_dir))


def _run_episode_task(config: SEOConfig, episode: int) -> EpisodeReport:
    """Top-level (picklable) worker entry point for one episode."""
    global _WORKER_STATE
    if _WORKER_STATE is None or _WORKER_STATE[0] != config:
        _WORKER_STATE = (config, SEOFramework(config))
    return _WORKER_STATE[1].run_episode(episode)


class ParallelExecutor(EpisodeExecutor):
    """Run episodes on a process pool, preserving in-process results exactly.

    Args:
        jobs: Number of worker processes.  ``jobs <= 0`` selects
            ``os.cpu_count()``; ``jobs == 1`` degrades to the in-process
            :class:`SerialExecutor` (no pool spin-up).
    """

    def __init__(self, jobs: int = 0) -> None:
        self.jobs = resolve_jobs(jobs)

    def run(self, config: SEOConfig, episodes: int) -> list[EpisodeReport]:
        self._validate(episodes)
        workers = min(self.jobs, episodes)
        if workers <= 1:
            return SerialExecutor().run(config, episodes)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(default_cache().cache_dir,),
        ) as pool:
            futures = [
                pool.submit(_run_episode_task, config, episode)
                for episode in range(episodes)
            ]
            return [future.result() for future in futures]
