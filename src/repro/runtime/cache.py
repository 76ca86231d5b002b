"""In-process memoization of deadline lookup-table construction.

Building a :class:`repro.core.lookup.DeadlineLookupTable` at the default grid
takes about 15 ms on a 2-vCPU Xeon host (every cell is a forward rollout of
the bicycle model).  The experiment sweeps (`table2`, `table3`, the
ablations) instantiate many frameworks that differ only in optimization
method, control case or sensor spec — parameters the table does not depend
on — so without a memo the same table would be rebuilt for each of them.

:class:`LookupTableCache` memoizes ``DeadlineLookupTable.build`` in-process,
keyed by everything the table's contents actually depend on (the grid, the
estimator's horizon/step, the barrier and vehicle parameters, and the
obstacle radius).  Tables are not persisted: a rebuild is cheap enough that
each process (and each pool worker) builds its own.
"""

from __future__ import annotations

import threading

from repro.core.intervals import SafeIntervalEstimator
from repro.core.lookup import DeadlineLookupTable, LookupGrid

#: Cache key: every scalar the table values depend on.
CacheKey = tuple[
    LookupGrid, float, float, float, float, float, float, float, float, float, float, float
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
    """In-process cache of deadline lookup tables.

    Attributes:
        hits: Number of :meth:`get_or_build` calls served from memory.
        misses: Number of calls that had to build the table.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._tables: dict[CacheKey, DeadlineLookupTable] = {}
        self._lock = threading.Lock()

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
            self.misses += 1
            table = DeadlineLookupTable.build(
                estimator, grid=grid, obstacle_radius_m=obstacle_radius_m
            )
            self._tables[key] = table
            return table


#: Process-wide cache shared by every SEOFramework built in this process.
_DEFAULT_CACHE = LookupTableCache()


def default_cache() -> LookupTableCache:
    """The process-wide lookup-table cache."""
    return _DEFAULT_CACHE


def set_default_cache(cache: LookupTableCache) -> LookupTableCache:
    """Replace the process-wide cache, returning the previous one.

    Tests and benchmarks install a fresh cache to start from empty memo and
    counters::

        previous = set_default_cache(LookupTableCache())
    """
    global _DEFAULT_CACHE
    previous = _DEFAULT_CACHE
    _DEFAULT_CACHE = cache
    return previous
