"""Functional object detector standing in for the paper's ResNet-152 models.

SEO treats a detector as two things at once:

1. a *workload* with a latency / energy footprint on the local platform
   (17 ms, 7 W for a ResNet-152 on the Drive PX2), used by the scheduler's
   energy accounting; and
2. a *function* that turns a sensor observation into obstacle detections,
   used by the downstream controller.

This class provides both: the footprint is carried as a
:class:`repro.platform.compute.ComputeProfile`, and the function is a
range-scan peak detector with optional range and bearing noise, which
preserves the property the evaluation relies on — the controller can
still complete the obstacle course from the detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.contracts import kernel_contract
from repro.perception.detections import Detection, DetectionSet
from repro.platform.compute import ComputeProfile
from repro.platform.presets import DRIVE_PX2_RESNET152
from repro.sim.observation import RangeScanner
from repro.sim.world import World
from repro.streams import DrawStream


@kernel_contract(
    rows="(R, B) float64",
    returns=("(G,) int64", "(G,) int64", "(G,) int64", "(G,) int64", "(G,) float64"),
)
def group_scan_rows(
    rows: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run-length grouping of hit beams over a ``(R, num_beams)`` scan matrix.

    Vectorized replacement for the serial ``for j in range(num_beams + 1)``
    grouping loop: a beam is a hit when its range is below ``threshold``,
    and maximal runs of consecutive hits form one group each.  Group
    boundaries come from the column differences of the zero-padded hit
    mask, and the per-group closest beam from ``np.minimum.reduceat`` (min
    over floats is order-independent, and the first-occurrence tie-break
    matches the serial ``np.argmin`` per group).

    Returns:
        ``(row, start, length, best_offset, best_distance)`` arrays with one
        entry per group, ordered row-major (row, then start beam) — the
        order the serial left-to-right grouping loop emits detections in.
    """
    rows = np.asarray(rows, dtype=float)
    num_rows, num_beams = rows.shape
    padded = np.zeros((num_rows, num_beams + 2), dtype=np.int8)
    padded[:, 1:-1] = rows < threshold
    edges = padded[:, 1:] - padded[:, :-1]
    group_row, start = (edges == 1).nonzero()
    _, stop = (edges == -1).nonzero()
    length = stop - start
    num_groups = group_row.size
    if num_groups == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i, empty_i, empty_i, np.zeros(0, dtype=float)
    offsets = np.concatenate(([0], np.add.accumulate(length)))
    group_of = np.arange(num_groups).repeat(length)
    within = np.arange(int(offsets[-1])) - offsets[:-1].repeat(length)
    values = rows[group_row[group_of], start[group_of] + within]
    group_min = np.minimum.reduceat(values, offsets[:-1])
    candidates = (values == group_min[group_of]).nonzero()[0]
    # First candidate per group: ``group_of[candidates]`` is sorted (flat
    # row-major order), so run starts mark the first occurrences.
    candidate_groups = group_of[candidates]
    first_mask = np.empty(candidates.size, dtype=bool)
    first_mask[0] = True
    np.not_equal(candidate_groups[1:], candidate_groups[:-1], out=first_mask[1:])
    first = candidates[first_mask]
    return group_row, start, length, within[first], values[first]


@dataclass
class DetectorModel:
    """An obstacle detector attached to one sensor of the pipeline.

    Attributes:
        name: Model name, unique within the pipeline (e.g. ``"detector-50hz"``).
        period_s: Processing period ``p_i``, synchronized to the sensor.
        scanner: Range scanner providing the observation geometry.
        compute: Local compute profile (latency / power) of the model.
        payload_bytes: Uplink payload when this model's input is offloaded.
        range_noise_std_m: Std-dev of additive noise on detected distances.
        bearing_noise_std_rad: Std-dev of additive noise on detected bearings.
        detection_threshold_m: Scan-range margin below the maximum range for
            a beam to count as a hit on an object.
        seed: Seed of the detector's noise generator (see
            :meth:`noise_source`).
    """

    name: str
    period_s: float = 0.02
    scanner: RangeScanner = field(default_factory=RangeScanner)
    compute: ComputeProfile = DRIVE_PX2_RESNET152
    payload_bytes: int = 28_000
    range_noise_std_m: float = 0.1
    bearing_noise_std_rad: float = 0.01
    detection_threshold_m: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.range_noise_std_m < 0 or self.bearing_noise_std_rad < 0:
            raise ValueError("noise standard deviations must be non-negative")

    # ------------------------------------------------------------------
    # Functional inference
    # ------------------------------------------------------------------
    def infer(
        self, world: World, noise: DrawStream, timestamp_s: float | None = None
    ) -> DetectionSet:
        """Run one inference against the current world state.

        The detector casts the scanner's beam fan and groups consecutive
        beams that return less than the maximum range into object detections,
        reporting the closest point of each group, with noise from row 0 of
        ``noise`` (see :meth:`detect`).
        """
        return DetectionSet(
            detections=self.detect(self.scanner.scan(world), noise),
            source=self.name,
            timestamp_s=world.time_s if timestamp_s is None else timestamp_s,
            stale=False,
        )

    def noise_source(self, rows: int) -> DrawStream:
        """A fresh noise source of ``rows`` rows, each replaying ``seed``.

        A standard-normal :class:`~repro.streams.DrawStream`: all rows
        share one buffer, with independent cursors.
        """
        return DrawStream([self.seed] * rows, "standard_normal")

    def detect(self, scan: np.ndarray, noise: DrawStream) -> list[Detection]:
        """Detections extracted from one scan row.

        1-row view of :meth:`detect_batch` (the kernel), drawing noise from
        row 0 of ``noise`` (e.g. ``noise_source(1)``).
        """
        counts, distances, bearings, spans = self.detect_batch(
            np.asarray(scan, dtype=float)[None, :], noise
        )
        return [
            Detection(
                distance_m=float(distances[g]),
                bearing_rad=float(bearings[g]),
                confidence=min(1.0, 0.5 + 0.1 * int(spans[g])),
            )
            for g in range(int(counts[0]))
        ]

    @kernel_contract(
        rows="(R, B) float64",
        returns=("(R,) int64", "(G,) float64", "(G,) float64", "(G,) int64"),
    )
    def detect_batch(
        self,
        rows: np.ndarray,
        noise: DrawStream,
        noise_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized detection extraction over ``(R, num_beams)`` scan rows.

        Grouping runs as one array pass (:func:`group_scan_rows`).  Scan row
        ``r`` draws its noise from row ``noise_rows[r]`` of the
        standard-normal stream ``noise`` (an identity map by default), in
        exactly the order the serial per-detection scalar draws would: the
        interleaved range/bearing pairs of all its groups, every row's in
        one ragged gather (``Generator.normal(0, std)`` is
        ``0.0 + std * standard_normal()``, so the values are bit-identical
        too).  Every detection is kept: no
        :class:`~repro.core.framework.SEOConfig` builds a detector that
        drops detections at random.

        Args:
            rows: ``(R, num_beams)`` scan range matrix.
            noise: Noise source from :meth:`noise_source` (one row per
                episode in the batch engine).
            noise_rows: Distinct noise-source row of each scan row.

        Returns:
            ``(counts, distances, bearings, spans)`` — ``counts`` holds the
            detections per row; the other arrays hold their fields
            flattened row-major.
        """
        rows = np.asarray(rows, dtype=float)
        if noise_rows is None:
            noise_rows = np.arange(rows.shape[0])
        angles = self.scanner.beam_angles()
        threshold = self.scanner.max_range_m - self.detection_threshold_m
        group_row, start, length, best_offset, distances = group_scan_rows(
            rows, threshold
        )
        bearings = angles[start + best_offset].astype(float, copy=True)
        counts = np.bincount(group_row, minlength=rows.shape[0])
        range_std = self.range_noise_std_m
        bearing_std = self.bearing_noise_std_rad
        per_group = int(range_std > 0.0) + int(bearing_std > 0.0)
        if per_group and group_row.size:
            draws = noise.take(noise_rows, per_group * counts).reshape(
                group_row.size, per_group
            )
            if range_std > 0.0:
                distances = np.maximum(0.0, distances + (0.0 + range_std * draws[:, 0]))
            if bearing_std > 0.0:
                bearings += 0.0 + bearing_std * draws[:, per_group - 1]
        return counts, distances, bearings, length
