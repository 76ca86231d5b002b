"""Episode execution: the in-process executor and the one pool task.

Every figure/table of the paper is regenerated by running ``N`` independent
episodes of an :class:`repro.core.framework.SEOFramework`.  Episodes are
fully determined by ``(SEOConfig, episode index)`` — the world, the scheduler
and the detector noise generators are all re-seeded per episode — so they can
execute in any order, in any lockstep batch and on any process without
changing the results.

:class:`SerialExecutor` runs them in-process: a work unit's episode range,
or a group of compatible units' ranges, is one
:func:`~repro.runtime.batch.run_cells` call, stepping its episodes in numpy
lockstep.  :func:`run_ranges` is the task a process-pool worker runs: a
list of ``(config, start, stop)`` ranges of one lockstep key, run by the
worker's own :class:`SerialExecutor`, which keeps the last config's
framework for the next task.  So a pool worker steps its share of a group
in the same lockstep as the in-process path, and the reports are
bit-identical wherever the ranges run.

Turning a backend name into a pool, and a sweep into tasks, is the job of
:class:`repro.runtime.sweep.SweepRunner`.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from pathlib import Path

from repro.core.framework import EpisodeReport, SEOConfig, SEOFramework
from repro.runtime.batch import run_cells
from repro.runtime.cache import LookupTableCache, default_cache, set_default_cache

__all__ = [
    "SerialExecutor",
    "resolve_jobs",
    "run_ranges",
]


def resolve_jobs(jobs: int) -> int:
    """Resolve a ``--jobs`` value: ``jobs <= 0`` means "use all CPU cores"."""
    return jobs if jobs > 0 else (os.cpu_count() or 1)


class SerialExecutor:
    """Run episodes in the current process, in numpy lockstep.

    Args:
        framework: Optional pre-built framework to reuse.  When provided and
            its config matches a requested one, the (expensive) framework
            construction is skipped; the executor keeps the framework of
            the last config it ran for the next call.
    """

    def __init__(self, framework: SEOFramework | None = None) -> None:
        self._framework = framework

    def run(self, config: SEOConfig, episodes: int) -> list[EpisodeReport]:
        """Run episodes ``0 .. episodes-1`` and return reports in index order."""
        if episodes <= 0:
            raise ValueError("episodes must be positive")
        return self.run_range(config, 0, episodes)

    def run_range(
        self, config: SEOConfig, start: int, stop: int
    ) -> list[EpisodeReport]:
        """Run episodes ``start .. stop-1`` (a work unit's episode range)."""
        return self.run_ranges([(config, start, stop)])[0]

    def run_ranges(
        self, ranges: Sequence[tuple[SEOConfig, int, int]]
    ) -> list[list[EpisodeReport]]:
        """Run several ``(config, start, stop)`` episode ranges in one lockstep call.

        The configs must share one
        :meth:`~repro.core.framework.SEOConfig.lockstep_key`.  Returns each
        range's reports, bit-identical to running it alone.
        """
        for _, start, stop in ranges:
            if start < 0 or stop <= start:
                raise ValueError("episode range must be non-empty and non-negative")
        frameworks: dict[SEOConfig, SEOFramework] = {}
        if self._framework is not None:
            frameworks[self._framework.config] = self._framework
        for config, _, _ in ranges:
            if config not in frameworks:
                frameworks[config] = SEOFramework(config)
            self._framework = frameworks[config]
        return run_cells(
            [(frameworks[config], range(start, stop)) for config, start, stop in ranges]
        )


# ----------------------------------------------------------------------
# Pool workers
# ----------------------------------------------------------------------

#: The pool task's executor: a process-pool worker runs its tasks one at a
#: time on one thread, so one executor per process serves them all.
_WORKER = SerialExecutor()


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


def run_ranges(
    ranges: Sequence[tuple[SEOConfig, int, int]]
) -> list[list[EpisodeReport]]:
    """Pool task: run ``(config, start, stop)`` ranges of one lockstep key.

    Top level, so a process pool can pickle it.  Returns each range's
    reports, as :meth:`SerialExecutor.run_ranges` does.
    """
    return _WORKER.run_ranges(ranges)
