"""Runtime subsystem: distributed sweep execution and lookup-table caching.

This package is the scaling layer between the SEO framework facade and the
experiment drivers:

* :mod:`repro.runtime.executor` — :class:`EpisodeExecutor` strategies.
  :class:`SerialExecutor` preserves the original in-process loop;
  :class:`ParallelExecutor` fans episodes out over a process pool and
  returns bit-identical reports in episode order.
* :mod:`repro.runtime.batch` — :class:`BatchExecutor`, the structure-of-
  arrays engine: all episodes of a unit step in numpy lockstep in one
  process, early-terminated episodes masked out, reports bit-identical to
  the serial oracle.
* :mod:`repro.runtime.workunit` — :class:`WorkUnit`, the serializable,
  content-addressed ``(config, episode-range)`` description of sweep work
  that the distributed layer is keyed on.
* :mod:`repro.runtime.sweep` — :class:`SweepRunner`, the batched
  multi-config sweep engine and the one place a backend name
  (:data:`EXECUTOR_BACKENDS`: ``process``, ``socket``, ``batch``) becomes a
  pool: all episodes of all units of a batch share one worker pool, and one
  runner (hence at most one pool) can serve every batch of a CLI
  invocation.  With a ledger/shard attached it resumes and partitions
  sweeps.
* :mod:`repro.runtime.ledger` — :class:`RunLedger`, the append-only on-disk
  record of completed units (JSONL index + ``.npz`` report blobs) behind
  ``--resume`` and ``repro.cli merge``.
* :mod:`repro.runtime.shard` — :class:`ShardSpec`/:class:`ShardManifest`,
  the deterministic hash partition behind ``--shard i/N`` and the merge
  validation.
* :mod:`repro.runtime.remote` — the ``"socket"`` backend: an asyncio
  dispatcher feeding ``repro.cli worker --listen`` processes on other
  machines over a length-prefixed JSON protocol on TCP.
* :mod:`repro.runtime.cache` — :class:`LookupTableCache`, memoizing
  :meth:`repro.core.lookup.DeadlineLookupTable.build` per process and
  optionally persisting tables to ``.npz`` files, so parameter sweeps
  sharing one grid build the table exactly once.

See ``docs/runtime.md`` for the design notes and CLI usage
(``--jobs``/``--backend``/``--shard``/``--resume``/``--ledger-dir``).
"""

from repro.runtime.batch import BatchExecutor, run_batch
from repro.runtime.cache import (
    LookupTableCache,
    cache_key,
    default_cache,
    set_default_cache,
)
from repro.runtime.executor import (
    EpisodeExecutor,
    ParallelExecutor,
    SerialExecutor,
    resolve_jobs,
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
    sweep_jobs,
)
from repro.runtime.workunit import WorkUnit

#: Names served lazily from :mod:`repro.runtime.remote`.  Importing remote
#: here eagerly would put asyncio on the import path of every run, remote
#: or not, and raise the set-up cost of building a framework.
_REMOTE_EXPORTS = frozenset(
    {
        "RemoteWorkerError",
        "SocketWorkerPool",
        "WorkerServer",
        "parse_worker_address",
        "serve_worker",
    }
)


def __getattr__(name: str) -> object:
    if name in _REMOTE_EXPORTS:
        from repro.runtime import remote

        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXECUTOR_BACKENDS",
    "BatchExecutor",
    "EpisodeExecutor",
    "LedgerSchemaError",
    "LookupTableCache",
    "ParallelExecutor",
    "RemoteWorkerError",
    "RunLedger",
    "SerialExecutor",
    "ShardManifest",
    "ShardSpec",
    "SocketWorkerPool",
    "SweepIncomplete",
    "SweepJob",
    "SweepRunner",
    "WorkUnit",
    "WorkerServer",
    "cache_key",
    "default_cache",
    "parse_worker_address",
    "pool_constructions",
    "reset_pool_constructions",
    "resolve_jobs",
    "run_batch",
    "serve_worker",
    "set_default_cache",
    "sweep_jobs",
]
