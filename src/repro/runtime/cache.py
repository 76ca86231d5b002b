"""Memoization of deadline lookup-table construction.

Building :class:`repro.core.lookup.DeadlineLookupTable` is by far the most
expensive part of constructing an :class:`repro.core.framework.SEOFramework`:
every cell is a forward rollout of the bicycle model.  The experiment sweeps
(`table2`, `table3`, the ablations) instantiate many frameworks that differ
only in optimization method, control case or sensor spec — parameters the
table does not depend on — so without caching the same table is rebuilt over
and over.

:class:`LookupTableCache` memoizes ``DeadlineLookupTable.build`` in-process,
keyed by everything the table's contents actually depend on (the grid, the
estimator's horizon/step, the barrier and vehicle parameters, and the
obstacle radius), and can optionally persist tables to ``.npz`` files so the
cost is paid once per machine rather than once per process.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path

from repro.core.intervals import SafeIntervalEstimator
from repro.core.lookup import DeadlineLookupTable, LookupGrid

#: Bump when the meaning of a table changes for identical physical
#: parameters (e.g. a grid-semantics or rollout fix), so persisted ``.npz``
#: files from older code are not silently reused.
CACHE_SCHEMA_VERSION = 1

#: Cache key: schema version plus every scalar the table values depend on.
CacheKey = tuple[
    int, LookupGrid, float, float, float, float, float, float, float, float, float, float, float
]


def cache_key(
    estimator: SafeIntervalEstimator,
    grid: LookupGrid,
    obstacle_radius_m: float,
) -> CacheKey:
    """Build the memoization key: every value the table's contents depend on."""
    barrier = estimator.safety_function
    params = estimator.dynamics.params
    return (
        CACHE_SCHEMA_VERSION,
        grid,
        float(estimator.horizon_s),
        float(estimator.step_s),
        float(obstacle_radius_m),
        float(barrier.clearance_m),
        float(barrier.reaction_time_s),
        float(barrier.max_brake_mps2),
        float(params.wheelbase_m),
        float(params.max_steer_rad),
        float(params.max_accel_mps2),
        float(params.max_brake_mps2),
        float(params.max_speed_mps),
    )


class LookupTableCache:
    """In-process (and optionally on-disk) cache of deadline lookup tables.

    Attributes:
        cache_dir: Optional directory for ``.npz`` persistence.  When set,
            a memory miss first tries to load the table from disk before
            rebuilding, and every fresh build is written back.
        hits: Number of :meth:`get_or_build` calls served from memory.
        disk_hits: Number of calls served by loading a persisted ``.npz``.
        misses: Number of calls that had to build the table.
    """

    def __init__(self, cache_dir: Path | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self._tables: dict[CacheKey, DeadlineLookupTable] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_or_build(
        self,
        estimator: SafeIntervalEstimator,
        grid: LookupGrid | None = None,
        obstacle_radius_m: float = 1.0,
    ) -> DeadlineLookupTable:
        """Return the table for this configuration, building it at most once."""
        grid = grid if grid is not None else LookupGrid()
        key = cache_key(estimator, grid, obstacle_radius_m)
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self.hits += 1
                return table

            table = self._load_from_disk(key)
            if table is not None:
                self.disk_hits += 1
            else:
                self.misses += 1
                table = DeadlineLookupTable.build(
                    estimator, grid=grid, obstacle_radius_m=obstacle_radius_m
                )
                self._save_to_disk(key, table)
            self._tables[key] = table
            return table

    def clear(self) -> None:
        """Drop all memoized tables and reset the counters (disk files stay)."""
        with self._lock:
            self._tables.clear()
            self.hits = 0
            self.disk_hits = 0
            self.misses = 0

    @property
    def size(self) -> int:
        """Number of tables currently memoized in memory."""
        return len(self._tables)

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    def path_for(self, key: CacheKey) -> Path | None:
        """The ``.npz`` path a key persists to (``None`` without a cache_dir)."""
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]
        return self.cache_dir / f"deadline-table-{digest}.npz"

    def _load_from_disk(self, key: CacheKey) -> DeadlineLookupTable | None:
        path = self.path_for(key)
        if path is None or not path.exists():
            return None
        try:
            return DeadlineLookupTable.load(path)
        except Exception:
            # A corrupt or truncated .npz (interrupted write, disk fault,
            # foreign file) is a cache *miss*, never an error: np.load can
            # raise anything from zipfile.BadZipFile to pickle errors
            # depending on how the bytes are mangled, so catch broadly.  The
            # caller rebuilds the table and overwrites the bad file.
            return None

    def _save_to_disk(self, key: CacheKey, table: DeadlineLookupTable) -> None:
        path = self.path_for(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        table.save(path)


#: Process-wide cache shared by every SEOFramework built in this process.
_DEFAULT_CACHE = LookupTableCache()


def default_cache() -> LookupTableCache:
    """The process-wide lookup-table cache."""
    return _DEFAULT_CACHE


def set_default_cache(cache: LookupTableCache) -> LookupTableCache:
    """Replace the process-wide cache, returning the previous one.

    Useful for tests (isolated counters) and for enabling disk persistence::

        set_default_cache(LookupTableCache(cache_dir=Path(".cache/deadline")))
    """
    global _DEFAULT_CACHE
    previous = _DEFAULT_CACHE
    _DEFAULT_CACHE = cache
    return previous
