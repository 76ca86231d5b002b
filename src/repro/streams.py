"""Buffered per-row draw streams over seeded numpy generators.

A :class:`DrawStream` serves many rows (e.g. one per episode) from seeded
``numpy.random.Generator`` instances, one draw kind per stream.  Each row
reads its own generator's values in order through a per-row cursor; the
values come from a buffer that is refilled by *sized* draws.  A sized
``standard_exponential``, ``standard_normal`` or ``random`` call yields
exactly the values of the same number of scalar calls, so a row sees the
bit-identical sequence a scalar-draw loop over its generator would, and the
batch engine can serve every row of a frame with one gather instead of one
Python call per row.

Rows that share a seed share one generator and one buffer but keep
independent cursors: every row replays that seed's sequence from the start,
as if each held a private ``default_rng(seed)``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["DrawStream", "STREAM_KINDS"]

STREAM_KINDS = ("standard_exponential", "standard_normal", "random")

# Draws per refill of an exhausted buffer (rounded up to whole chunks).
_CHUNK = 256

# Cursor of a retired row: never the lowest cursor of its seed group.
_RETIRED = np.iinfo(np.int64).max


class DrawStream:
    """Per-row cursors over buffered draws of one kind.

    Each seed group's buffer row holds its generator's draws ``base`` to
    ``end`` (absolute draw indices).  A refill drops the draws below the
    lowest cursor of the group's live rows, so a group holds the draws
    since its slowest live row: a live row that has not drawn yet keeps
    its seed's first draw, and so every later one, until it draws or is
    retired (:meth:`retire`).  The buffer widens geometrically and compacts only
    when full, so refills cost amortized constant time per draw.

    Args:
        seeds: One generator seed per row.
        kind: The ``Generator`` method drawn from, one of
            :data:`STREAM_KINDS`.
    """

    def __init__(self, seeds: Sequence[int], kind: str) -> None:
        if kind not in STREAM_KINDS:
            raise ValueError(f"unknown draw kind {kind!r}; expected one of {STREAM_KINDS}")
        group_of: dict[int, int] = {}
        self._group = np.array(
            [group_of.setdefault(int(seed), len(group_of)) for seed in seeds],
            dtype=np.int64,
        )
        self._draws = [getattr(np.random.default_rng(seed), kind) for seed in group_of]
        self._buffer = np.empty((len(group_of), 0), dtype=float)
        self._base = np.zeros(len(group_of), dtype=np.int64)
        self._end = np.zeros(len(group_of), dtype=np.int64)
        self._cursor = np.zeros(len(seeds), dtype=np.int64)

    def take(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Each row's next ``counts[r]`` draws, flattened row-major.

        ``rows`` must not repeat a row (its cursor advances once per call)
        nor name a retired row.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        groups = self._group[rows]
        start = self._cursor[rows]
        stop = start + counts
        short = stop > self._end[groups]
        if np.count_nonzero(short):
            self._refill(groups[short], stop[short])
        self._cursor[rows] = stop
        # Output slot k of row r reads flat buffer index
        # ``group * width + (start[r] - base[group]) + (k - offset[r])``.
        ends = np.add.accumulate(counts)
        first = groups * self._buffer.shape[1] + (start - self._base[groups]) - (ends - counts)
        total = int(ends[-1]) if ends.size else 0
        return self._buffer.reshape(-1)[first.repeat(counts) + np.arange(total)]

    def retire(self, rows: np.ndarray) -> None:
        """Mark ``rows`` as done: they no longer hold their group's draws."""
        self._cursor[np.asarray(rows, dtype=np.int64)] = _RETIRED

    def _refill(self, groups: np.ndarray, stops: np.ndarray) -> None:
        """Append whole chunks to each short group until ``stops`` fit.

        Runs before the cursors advance, so the lowest cursor of a group is
        the first draw any of its rows can still read.
        """
        need = np.zeros(self._end.size, dtype=np.int64)
        np.maximum.at(need, groups, stops)
        short = np.nonzero(need > self._end)[0]
        keep = np.full(self._end.size, _RETIRED, dtype=np.int64)
        np.minimum.at(keep, self._group, self._cursor)
        grow = -(-(need[short] - self._end[short]) // _CHUNK) * _CHUNK
        width = self._buffer.shape[1]
        fit = int((self._end[short] + grow - keep[short]).max())
        if fit > width:
            buffer = np.empty((self._end.size, max(fit, 2 * width)), dtype=float)
            buffer[:, :width] = self._buffer
            self._buffer = buffer
            width = buffer.shape[1]
        for g, size in zip(short.tolist(), grow.tolist()):
            row = self._buffer[g]
            if self._end[g] + size - self._base[g] > width:
                # Full: move the draws a live row can still read to the front.
                held = int(self._end[g] - keep[g])
                row[:held] = row[keep[g] - self._base[g] : self._end[g] - self._base[g]]
                self._base[g] = keep[g]
            at = int(self._end[g] - self._base[g])
            row[at : at + size] = self._draws[g](size)
            self._end[g] += size
