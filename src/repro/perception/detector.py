"""Functional object detector standing in for the paper's ResNet-152 models.

SEO treats a detector as two things at once:

1. a *workload* with a latency / energy footprint on the local platform
   (17 ms, 7 W for a ResNet-152 on the Drive PX2), used by the scheduler's
   energy accounting; and
2. a *function* that turns a sensor observation into obstacle detections,
   used by the downstream controller.

This class provides both: the footprint is carried as a
:class:`repro.platform.compute.ComputeProfile`, and the function is a
range-scan peak detector with optional range noise and false-negative drops,
which preserves the property the evaluation relies on — the controller can
still complete the obstacle course from the detections.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    boundaries come from ``np.diff`` on the zero-padded hit mask, and the
    per-group closest beam from ``np.minimum.reduceat`` (min over floats is
    order-independent, and the first-occurrence tie-break matches the serial
    ``np.argmin`` per group).

    Returns:
        ``(row, start, length, best_offset, best_distance)`` arrays with one
        entry per group, ordered row-major (row, then start beam) — the
        order the serial left-to-right grouping loop emits detections in.
    """
    rows = np.asarray(rows, dtype=float)
    num_rows, num_beams = rows.shape
    padded = np.zeros((num_rows, num_beams + 2), dtype=np.int8)
    padded[:, 1:-1] = rows < threshold
    edges = np.diff(padded, axis=1)
    group_row, start = np.nonzero(edges == 1)
    _, stop = np.nonzero(edges == -1)
    length = stop - start
    num_groups = group_row.size
    if num_groups == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i, empty_i, empty_i, np.zeros(0, dtype=float)
    offsets = np.concatenate(([0], np.cumsum(length)))
    group_of = np.repeat(np.arange(num_groups), length)
    within = np.arange(int(offsets[-1])) - np.repeat(offsets[:-1], length)
    values = rows[group_row[group_of], start[group_of] + within]
    group_min = np.minimum.reduceat(values, offsets[:-1])
    candidates = np.nonzero(values == group_min[group_of])[0]
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
        miss_rate: Probability of dropping an individual detection.
        detection_threshold_m: Scan-range margin below the maximum range for
            a beam to count as a hit on an object.
        seed: Seed of the detector's private noise generator.
    """

    name: str
    period_s: float = 0.02
    scanner: RangeScanner = field(default_factory=RangeScanner)
    compute: ComputeProfile = DRIVE_PX2_RESNET152
    payload_bytes: int = 28_000
    range_noise_std_m: float = 0.1
    bearing_noise_std_rad: float = 0.01
    miss_rate: float = 0.0
    detection_threshold_m: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if not 0.0 <= self.miss_rate < 1.0:
            raise ValueError("miss_rate must be in [0, 1)")
        if self.range_noise_std_m < 0 or self.bearing_noise_std_rad < 0:
            raise ValueError("noise standard deviations must be non-negative")
        self._noise = self.noise_source(1)

    @property
    def rate_hz(self) -> float:
        """Native processing rate in Hz (e.g. 50 Hz for ``period_s=0.02``)."""
        return 1.0 / self.period_s

    def reset(self) -> None:
        """Rebuild the private noise source (e.g. between episodes)."""
        self._noise = self.noise_source(1)

    # ------------------------------------------------------------------
    # Functional inference
    # ------------------------------------------------------------------
    def infer(self, world: World, timestamp_s: float | None = None) -> DetectionSet:
        """Run one inference against the current world state.

        The detector casts the scanner's beam fan and groups consecutive
        beams that return less than the maximum range into object detections,
        reporting the closest point of each group.
        """
        return DetectionSet(
            detections=self.detect(self.scanner.scan(world)),
            source=self.name,
            timestamp_s=world.time_s if timestamp_s is None else timestamp_s,
            stale=False,
        )

    def noise_source(self, rows: int) -> DrawStream | list[np.random.Generator]:
        """A fresh noise source of ``rows`` rows, each replaying ``seed``.

        A standard-normal :class:`~repro.streams.DrawStream` (all rows share
        one buffer, with independent cursors) when ``miss_rate`` is 0;
        otherwise one private generator per row, because the miss filter
        interleaves normal and uniform draws on one generator, which a
        one-kind stream cannot serve.
        """
        if self.miss_rate > 0.0:
            return [np.random.default_rng(self.seed) for _ in range(rows)]
        return DrawStream([self.seed] * rows, "standard_normal")

    def detect(self, scan: np.ndarray) -> list[Detection]:
        """Detections extracted from one scan row.

        1-row view of :meth:`detect_batch` (the kernel), drawing noise from
        the detector's private noise source (rebuilt by :meth:`reset`).
        """
        counts, distances, bearings, spans = self.detect_batch(
            np.asarray(scan, dtype=float)[None, :], self._noise
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
        noise: DrawStream | Sequence[np.random.Generator],
        noise_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized detection extraction over ``(R, num_beams)`` scan rows.

        Grouping runs as one array pass (:func:`group_scan_rows`).  Scan row
        ``r`` draws its noise from row ``noise_rows[r]`` of ``noise`` (an
        identity map by default), in exactly the order the serial
        per-detection scalar draws would: the interleaved range/bearing
        pairs of all its groups (``Generator.normal(0, std)`` is
        ``0.0 + std * standard_normal()``, so the values are bit-identical
        too), then, when ``miss_rate > 0``, one uniform per group for the
        miss filter.

        When ``noise`` is a standard-normal :class:`~repro.streams.DrawStream`
        every row's normals come from one ragged gather.  A stream cannot
        serve ``miss_rate > 0``, where normals and uniforms interleave on
        one generator; that case takes a sequence of generators and keeps a
        per-row loop of sized draws.  No
        :class:`~repro.core.framework.SEOConfig` builds such a detector.

        Args:
            rows: ``(R, num_beams)`` scan range matrix.
            noise: Noise source from :meth:`noise_source` (one row per
                episode in the batch engine).
            noise_rows: Distinct noise-source row of each scan row.

        Returns:
            ``(counts, distances, bearings, spans)`` — ``counts`` holds the
            surviving detections per row; the other arrays hold their fields
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
        counts_raw = np.bincount(group_row, minlength=rows.shape[0])
        range_std = self.range_noise_std_m
        bearing_std = self.bearing_noise_std_rad
        if isinstance(noise, DrawStream):
            if self.miss_rate > 0.0:
                raise ValueError("miss_rate > 0 needs per-row generators (see noise_source)")
            per_group = int(range_std > 0.0) + int(bearing_std > 0.0)
            if per_group and group_row.size:
                draws = noise.take(noise_rows, per_group * counts_raw).reshape(
                    group_row.size, per_group
                )
                if range_std > 0.0:
                    distances = np.maximum(0.0, distances + (0.0 + range_std * draws[:, 0]))
                if bearing_std > 0.0:
                    bearings += 0.0 + bearing_std * draws[:, per_group - 1]
            return counts_raw, distances, bearings, length

        # Generator path: one sized call per draw kind per row.  Rows
        # without groups consume no draws; each row draws from its own
        # generator, so only the order *within* a row is the contract.
        keep = np.ones(group_row.size, dtype=bool)
        bounds = np.concatenate(([0], np.cumsum(counts_raw))).tolist()
        for r in np.nonzero(counts_raw)[0].tolist():
            lo, hi = bounds[r], bounds[r + 1]
            groups = hi - lo
            rng = noise[int(noise_rows[r])]
            if range_std > 0.0 and bearing_std > 0.0:
                draws = rng.standard_normal(2 * groups)
                distances[lo:hi] = np.maximum(
                    0.0, distances[lo:hi] + (0.0 + range_std * draws[0::2])
                )
                bearings[lo:hi] += 0.0 + bearing_std * draws[1::2]
            elif range_std > 0.0:
                draws = rng.standard_normal(groups)
                distances[lo:hi] = np.maximum(
                    0.0, distances[lo:hi] + (0.0 + range_std * draws)
                )
            elif bearing_std > 0.0:
                bearings[lo:hi] += 0.0 + bearing_std * rng.standard_normal(groups)
            if self.miss_rate > 0.0:
                keep[lo:hi] = rng.random(groups) >= self.miss_rate
        if not keep.all():
            counts = np.bincount(group_row[keep], minlength=rows.shape[0])
            return counts, distances[keep], bearings[keep], length[keep]
        return counts_raw, distances, bearings, length

    # ------------------------------------------------------------------
    # Workload description
    # ------------------------------------------------------------------
    def local_inference_energy_j(self) -> float:
        """Energy of one local inference, ``T_N * P_N``."""
        return self.compute.energy_per_inference_j

    def describe(self) -> str:
        """One-line human-readable description of the model."""
        return (
            f"{self.name}: {self.rate_hz:.0f} Hz, "
            f"{self.compute.latency_s * 1e3:.1f} ms @ {self.compute.power_w:.1f} W, "
            f"payload {self.payload_bytes / 1e3:.0f} kB"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DetectorModel({self.describe()})"
