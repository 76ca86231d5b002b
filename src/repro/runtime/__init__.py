"""Runtime subsystem: sweep execution and lookup-table caching.

This package is the scaling layer between the SEO framework facade and the
experiment drivers:

* :mod:`repro.runtime.batch` — ``run_cells``, the one frame loop: the
  structure-of-arrays engine that steps the episodes of one or more
  compatible ``(framework, episodes)`` cells in numpy lockstep,
  early-terminated episodes masked out, each report identical to its
  episode run alone; :func:`run_batch` is its one-cell call.
* :mod:`repro.runtime.workunit` — :class:`WorkUnit`, the
  ``(config, episode-range)`` description of sweep work; its hashable
  ``key`` is what a sweep deduplicates and routes reports on.
* :mod:`repro.runtime.sweep` — :class:`SweepRunner`, the batched
  multi-config sweep engine and the one place a backend name
  (:data:`EXECUTOR_BACKENDS`: ``process``, ``batch``) becomes a local
  process pool: the units of a batch run as lockstep groups, each one
  ``run_cells`` call in-process or cut into one chunk per worker of a
  pool that lives for that one batch.
* :mod:`repro.runtime.ledger` — :func:`report_to_jsonable`, the JSON form
  of an episode report that the golden corpus digests.
* :mod:`repro.runtime.cache` — :class:`LookupTableCache`, memoizing
  :meth:`repro.core.lookup.DeadlineLookupTable.build` per process, so
  parameter sweeps sharing one grid build the table once per process.

See ``docs/runtime.md`` for the design notes and CLI usage
(``--jobs``/``--backend``).
"""

from repro.runtime.batch import run_batch
from repro.runtime.cache import (
    LookupTableCache,
    cache_key,
    default_cache,
    set_default_cache,
)
from repro.runtime.sweep import (
    EXECUTOR_BACKENDS,
    SweepJob,
    SweepRunner,
    resolve_jobs,
    sweep_jobs,
)
from repro.runtime.workunit import WorkUnit

__all__ = [
    "EXECUTOR_BACKENDS",
    "LookupTableCache",
    "SweepJob",
    "SweepRunner",
    "WorkUnit",
    "cache_key",
    "default_cache",
    "resolve_jobs",
    "run_batch",
    "set_default_cache",
    "sweep_jobs",
]
