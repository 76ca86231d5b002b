"""One benchmark process: set up a workload, run it, check it, print JSON.

``run.py`` starts this script in fresh interpreters, so set-up time and peak
RSS belong to the process that ran the workload.  Modes:

* ``setup`` -- time set-up only (first ``repro`` import to ready-to-run).
* ``run`` -- set up, then cycle through the workload's parts for
  ``--seconds`` seconds (every part at least once), recording wall and CPU
  seconds of every part run and the simulated steps of each part.
* ``trace`` -- install :mod:`tracer`, set up, run every part once, and
  report per-layer ``calls``/``elems``/``self_s``.

``setup`` and ``run`` time under a :class:`speedometer.Speedometer`: every
time they report is net of its probes and scaled to the reference host
speed.  ``run`` also reports the net, unscaled wall seconds.  Traced runs
take no probes.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

from speedometer import Speedometer
from workloads import WORKLOADS, Checks, RunResult, Workload


def _timed_setup(workload: Workload, meter: Speedometer) -> float:
    """Set-up seconds at the reference speed."""
    wall0, cpu0 = perf_counter(), process_time()
    workload.setup()
    cpu_s = process_time() - cpu0
    return meter.span(wall0, perf_counter(), cpu_s).scaled_wall_s


def run_mode(workload: Workload, seconds: float, parity: bool) -> dict:
    """Cycle through the workload's parts for ``seconds``; time every part."""
    count = len(workload.parts)
    walls: list[list[float]] = [[] for _ in range(count)]
    cpus: list[list[float]] = [[] for _ in range(count)]
    net_walls: list[list[float]] = [[] for _ in range(count)]
    steps: list[int] = [0] * count
    digests: list[set[str]] = [set() for _ in range(count)]
    results = []
    with Speedometer() as meter:
        setup_s = _timed_setup(workload, meter)
        begin = perf_counter()
        for turn in itertools.count():
            index = turn % count
            if turn >= count and (
                perf_counter() - begin + statistics.median(net_walls[index]) > seconds
            ):
                break
            wall0, cpu0 = perf_counter(), process_time()
            result = workload.run_part(index)
            cpu_s = process_time() - cpu0
            span = meter.span(wall0, perf_counter(), cpu_s)
            walls[index].append(span.scaled_wall_s)
            cpus[index].append(span.scaled_cpu_s)
            net_walls[index].append(span.net_wall_s)
            steps[index] = result.steps
            digests[index].add(result.digest())
            if turn < count:
                results.append(result)
        speed = meter.span(begin, perf_counter(), 0.0).speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    checks.expect("tracer" not in sys.modules, "an untraced run loaded the tracer")
    for part, seen in zip(workload.parts, digests, strict=True):
        checks.expect(len(seen) == 1, f"{part}: reports differ between repeats")
    workload.check(results, checks, parity=parity)
    return {
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "net_walls": net_walls,
        "speed": speed,
        "steps": steps,
        "peak_rss_mb": peak_rss_mb,
        "digest": _digest(results),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
    }


def _digest(results: list[RunResult]) -> str:
    return hashlib.sha256("".join(r.digest() for r in results).encode()).hexdigest()


def trace_mode(workload: Workload, spans_path: Path) -> dict:
    """Trace set-up plus one run of every part."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    workload.setup()
    tracer.run = 1
    start = perf_counter()
    results = [workload.run_part(index) for index in range(len(workload.parts))]
    wall = perf_counter() - start
    tracer.write(spans_path)

    checks = Checks()
    workload.check(results, checks, parity=False)
    reports = [report for result in results for _, batch in result.jobs for report in batch]
    in_run = tracer.aggregate(run=1)
    return {
        "stats": tracer.aggregate(),
        "traced_wall_s": wall,
        "covered_s": sum(entry["self_s"] for entry in in_run.values()),
        "spans": len(tracer.spans),
        "cache_hits": sum(cache.hits for cache in workload.caches),
        "cache_misses": sum(cache.misses for cache in workload.caches),
        "offloads_issued": sum(report.offloads_issued for report in reports),
        "offload_misses": sum(report.offload_deadline_misses for report in reports),
        "digest": _digest(results),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--no-parity", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = Workload(args.workload, args.seed)
    if args.mode == "setup":
        with Speedometer() as meter:
            payload = {"setup_s": _timed_setup(workload, meter)}
    elif args.mode == "run":
        payload = run_mode(workload, args.seconds, parity=not args.no_parity)
    else:
        if args.spans is None:
            parser.error("trace mode needs --spans")
        payload = trace_mode(workload, args.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
