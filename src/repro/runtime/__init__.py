"""Runtime subsystem: sweep execution, sharding and lookup-table caching.

This package is the scaling layer between the SEO framework facade and the
experiment drivers:

* :mod:`repro.runtime.batch` — ``run_cells``, the one frame loop: the
  structure-of-arrays engine that steps the episodes of one or more
  compatible ``(framework, episodes)`` cells in numpy lockstep,
  early-terminated episodes masked out, each report identical to its
  episode run alone; :func:`run_batch` is its one-cell call.
* :mod:`repro.runtime.workunit` — :class:`WorkUnit`, the serializable,
  content-addressed ``(config, episode-range)`` description of sweep work
  that the ledger and shards are keyed on.
* :mod:`repro.runtime.sweep` — :class:`SweepRunner`, the batched
  multi-config sweep engine and the one place a backend name
  (:data:`EXECUTOR_BACKENDS`: ``process``, ``batch``) becomes a local
  process pool: the units of a batch run as lockstep groups, each one
  ``run_cells`` call in-process or cut into one chunk per worker of one
  shared pool, and one runner (hence one pool at a time, rebuilt only to
  grow) can serve every batch of a CLI invocation.
  With a ledger/shard attached it resumes and partitions sweeps.
* :mod:`repro.runtime.ledger` — :class:`RunLedger`, the append-only on-disk
  record of completed units (JSONL index + ``.npz`` report blobs) behind
  ``--resume`` and ``repro.cli merge``.
* :mod:`repro.runtime.shard` — :class:`ShardSpec`/:class:`ShardManifest`,
  the deterministic hash partition behind ``--shard i/N`` and the merge
  validation: a sweep split across hosts is reassembled from their
  ledgers by ``repro.cli merge``.
* :mod:`repro.runtime.cache` — :class:`LookupTableCache`, memoizing
  :meth:`repro.core.lookup.DeadlineLookupTable.build` per process and
  optionally persisting tables to ``.npz`` files, so parameter sweeps
  sharing one grid build the table exactly once.

See ``docs/runtime.md`` for the design notes and CLI usage
(``--jobs``/``--backend``/``--shard``/``--resume``/``--ledger-dir``).
"""

from repro.runtime.batch import run_batch
from repro.runtime.cache import (
    LookupTableCache,
    cache_key,
    default_cache,
    set_default_cache,
)
from repro.runtime.ledger import LedgerSchemaError, RunLedger
from repro.runtime.shard import ShardManifest, ShardSpec
from repro.runtime.sweep import (
    EXECUTOR_BACKENDS,
    SweepIncomplete,
    SweepJob,
    SweepRunner,
    pool_constructions,
    reset_pool_constructions,
    resolve_jobs,
    sweep_jobs,
)
from repro.runtime.workunit import WorkUnit

__all__ = [
    "EXECUTOR_BACKENDS",
    "LedgerSchemaError",
    "LookupTableCache",
    "RunLedger",
    "ShardManifest",
    "ShardSpec",
    "SweepIncomplete",
    "SweepJob",
    "SweepRunner",
    "WorkUnit",
    "cache_key",
    "default_cache",
    "pool_constructions",
    "reset_pool_constructions",
    "resolve_jobs",
    "run_batch",
    "set_default_cache",
    "sweep_jobs",
]
