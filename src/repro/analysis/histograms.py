"""Histograms of the sampled discretized deadlines (paper Fig. 6)."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np


@dataclass(frozen=True)
class DeltaHistogram:
    """Occurrence frequencies of the sampled ``delta_max`` values.

    Attributes:
        counts: Absolute number of samples per ``delta_max`` value.
        frequencies: Relative frequencies (sum to 1 when any sample exists).
    """

    counts: dict[int, int]
    frequencies: dict[int, float]

    def frequency(self, delta: int) -> float:
        """Relative frequency of one ``delta_max`` value (0.0 if never seen)."""
        return self.frequencies.get(delta, 0.0)

    def mean(self) -> float:
        """Mean sampled ``delta_max``."""
        total = sum(self.counts.values())
        if total == 0:
            return 0.0
        return sum(delta * count for delta, count in self.counts.items()) / total


def delta_histogram(samples: Sequence[int], max_delta: int = 4) -> DeltaHistogram:
    """Build the Fig. 6 histogram from raw ``delta_max`` samples.

    Args:
        samples: Discretized deadline samples collected by the scheduler.
        max_delta: Largest bucket (larger samples are clamped into it).
    """
    if max_delta < 1:
        raise ValueError("max_delta must be at least 1")
    clamped = np.clip(np.asarray(samples, dtype=np.int64), 0, max_delta)
    counts = dict(enumerate(np.bincount(clamped, minlength=max_delta + 1).tolist()))
    total = sum(counts.values())
    frequencies = {
        delta: (count / total if total else 0.0) for delta, count in counts.items()
    }
    return DeltaHistogram(counts=counts, frequencies=frequencies)
