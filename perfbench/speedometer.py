"""Host speed, sampled while the workload runs, to scale seconds by.

The cores this benchmark runs on are shared: back-to-back runs of identical
code differ by up to a third, and the host's speed drifts by up to 2x within
a minute.  :class:`Speedometer` interrupts the process every
:data:`PERIOD_S` (``SIGALRM``) and times :func:`reference_kernel`, a fixed
piece of small-array numpy arithmetic driven from Python -- the interpreter
plus numpy-dispatch mix this program spends its time in, so it slows down
when the program does.  For a timed span of work, :meth:`Speedometer.span`
gives

* the net seconds: wall (or CPU) seconds minus the probes' own time, and
* the host's speed during that span: :data:`REFERENCE_PROBE_S` over the mean
  probe time inside it,

and their product is the span's time at the reference speed, where the
kernel takes :data:`REFERENCE_PROBE_S`.  Interleaving probes with the work
this finely tracks both slow drift and second-scale slowdowns; the kernel is
the benchmark's own code, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Seconds between probes (about 2% of the process's time goes to probes).
PERIOD_S = 0.02
#: Probe time at the reference speed: about what the kernel takes on a quiet
#: 2-vCPU Xeon (Sapphire Rapids, KVM) host.
REFERENCE_PROBE_S = 400e-6
#: Spans with fewer probes than this use every probe taken so far.
MIN_PROBES = 5

_RNG = np.random.default_rng(20240101)
_NARROW = _RNG.random(64)
_WIDE = _RNG.random(200)


def reference_kernel() -> float:
    """Fixed small-array work: 64- and 200-wide ufuncs, masks and reductions."""
    narrow = _NARROW
    for _ in range(20):
        narrow = np.sqrt(narrow * narrow + 1.0) - 0.5
        np.where(narrow > 0.6, narrow, 0.0)
    x = _WIDE
    v = _WIDE
    for _ in range(10):
        k1 = np.cos(x) * v
        k2 = np.sin(x + 0.5 * k1)
        x = x + 0.01 * (k1 + 2.0 * k2)
        mask = x > 0.5
        v = np.minimum(v, x[mask].sum() if mask.any() else 1.0)
    return float(narrow[0] + v[0])


@dataclass(frozen=True)
class Span:
    """One timed span of work, with the probes that ran inside it."""

    wall_s: float
    cpu_s: float
    probe_s: float
    speed: float

    @property
    def net_wall_s(self) -> float:
        return self.wall_s - self.probe_s

    @property
    def scaled_wall_s(self) -> float:
        """Wall seconds of the work alone at the reference speed."""
        return self.net_wall_s * self.speed

    @property
    def scaled_cpu_s(self) -> float:
        """CPU seconds of the work alone at the reference speed."""
        return (self.cpu_s - self.probe_s) * self.speed


class Speedometer:
    """Samples :func:`reference_kernel` every :data:`PERIOD_S` while active."""

    def __init__(self) -> None:
        #: ``(start, duration)`` of every probe, in perf_counter seconds.
        self.probes: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        reference_kernel()
        self.probes.append((start, perf_counter() - start))

    def __enter__(self) -> Speedometer:
        for _ in range(3):  # warm numpy's ufunc dispatch before the first sample
            reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def span(self, wall0: float, wall1: float, cpu_s: float) -> Span:
        """The span ``[wall0, wall1)`` that used ``cpu_s`` of CPU time."""
        inside = [d for start, d in self.probes if wall0 <= start < wall1]
        basis = inside if len(inside) >= MIN_PROBES else [d for _, d in self.probes]
        if not basis:
            raise RuntimeError("no speed probes ran; is SIGALRM blocked?")
        return Span(
            wall_s=wall1 - wall0,
            cpu_s=cpu_s,
            probe_s=sum(inside),
            speed=REFERENCE_PROBE_S / statistics.fmean(basis),
        )
