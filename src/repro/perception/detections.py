"""Detection containers shared by detectors and controllers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.contracts import kernel_contract


@kernel_contract(
    counts="(R,) int64",
    distances="(D,) float64",
    returns=("(R,) bool", "(F,) int64"),
)
def nearest_per_row(
    counts: np.ndarray, distances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence nearest detection per row of a flattened batch.

    The batched counterpart of :meth:`DetectionSet.nearest` for many
    detection rows at once: ``counts`` gives the number of detections per
    row and ``distances`` their distances flattened row-major (the layout
    :meth:`~repro.perception.detector.DetectorModel.detect_batch` emits).
    The per-row minimum is taken with ``np.minimum.reduceat`` and ties
    resolve to the earliest detection, matching ``min(key=...)``.

    Returns:
        ``(has, first)`` — ``has`` flags rows with at least one detection;
        ``first`` holds the flat index of each non-empty row's nearest
        detection, in row order (shape ``(has.sum(),)``).
    """
    counts = np.asarray(counts, dtype=np.int64)
    distances = np.asarray(distances, dtype=float)
    has = counts > 0
    filled = np.count_nonzero(has)
    if not filled:
        return has, np.zeros(0, dtype=np.int64)
    offsets = (np.add.accumulate(counts) - counts)[has]
    minima = np.minimum.reduceat(distances, offsets)
    row_of = np.arange(filled).repeat(counts[has])
    candidates = (distances == minima[row_of]).nonzero()[0]
    # First candidate per row: ``row_of[candidates]`` is sorted (flat
    # row-major order), so run starts mark the first occurrences.
    candidate_rows = row_of[candidates]
    first_mask = np.empty(candidates.size, dtype=bool)
    first_mask[0] = True
    np.not_equal(candidate_rows[1:], candidate_rows[:-1], out=first_mask[1:])
    return has, candidates[first_mask]


@dataclass(frozen=True)
class Detection:
    """A single obstacle detection in the vehicle frame.

    Attributes:
        distance_m: Distance from the vehicle to the detected obstacle
            surface.
        bearing_rad: Bearing of the obstacle relative to the vehicle heading
            (positive to the left).
        confidence: Detection confidence in [0, 1].
    """

    distance_m: float
    bearing_rad: float
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if self.distance_m < 0:
            raise ValueError("distance_m must be non-negative")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")


@dataclass
class DetectionSet:
    """Detections produced by one model invocation, with freshness metadata.

    Attributes:
        detections: The detections themselves (possibly empty).
        source: Name of the producing model.
        timestamp_s: Simulation time at which the detections were produced.
        stale: True when the set is a reused (gated) output rather than a
            fresh inference result.
    """

    detections: list[Detection] = field(default_factory=list)
    source: str = ""
    timestamp_s: float = 0.0
    stale: bool = False

    def nearest(self) -> Detection | None:
        """The detection with the smallest distance, or None if empty."""
        if not self.detections:
            return None
        return min(self.detections, key=lambda det: det.distance_m)

    def __len__(self) -> int:
        return len(self.detections)
