"""seo-bench/3: how fast this repository regenerates SEO episodes.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 1 \\
        --out results/new.jsonl

Workloads (``perfbench/workloads.py``): ``fleet``, ``single-vehicle`` and
``sweep``.  Every measurement runs in a fresh interpreter
(``perfbench/worker.py``), single-threaded.

``--trace 0`` reports the end-to-end metrics.  A workload is made of parts
(the sweep's CLI calls, the single vehicle's episodes, the fleet's one
lockstep call); three workers, one after another, each cycle through them
for a third of ``--seconds``, and each part gets its median over all their
samples.  ``wall_s`` (host seconds per run of the workload)
and ``cpu_s`` (process CPU seconds per run) are the sums of those medians,
and ``steps_per_s`` is the simulated base periods of one run over
``wall_s``.  ``setup_s`` is the median over several fresh interpreters of
the time from the first ``repro`` import to ready-to-run, each from an
empty lookup-table cache, and ``peak_rss_mb`` is the median high-water RSS
of the processes that ran the workload.  Every time is taken at the reference host
speed: ``perfbench/speedometer.py`` samples the host's speed while the work
runs and scales the measured seconds by it, because on shared cores the
raw seconds of identical runs differ by a third.

``--trace 1`` reports the per-layer metrics: one untraced process gives the
reference run time, then two traced processes (``perfbench/tracer.py``) run
the workload once each.  Their ``calls``/``elems`` must agree exactly and
their reports must equal the untraced ones.  Spans are written to
``.perfbench/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (output checks) and ``metrics``.  Lines before it
give the environment block and a digest of the reports, which changes
whenever simulated behaviour does.  ``--out FILE`` also appends the whole
record, for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters, one after another, that share a run's ``--seconds``:
#: a process's memory layout moves its times by a few percent, so pooling
#: samples from several processes averages that out.
RUN_PROCESSES = 3
#: Fresh interpreters timed for ``setup_s`` besides the ones that run.
SETUP_PROBES = 5
#: Everything, children included, ends this long after start.
TIME_LIMIT_S = 170.0
SPAN_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(mode: str, workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON payload."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD's commit from ``.git`` if the checkout has one, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _git_commit(),
        "seed": seed,
    }


def _run_seconds(per_part: list[list[float]]) -> float:
    """Seconds for one run of the workload: the sum of its parts' medians."""
    return sum(map(statistics.median, per_part))


def _pooled(runs: list[dict], key: str) -> list[list[float]]:
    """Per-part samples of every run process, pooled part by part."""
    return [sum(parts, []) for parts in zip(*(run[key] for run in runs), strict=True)]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics from untraced fresh interpreters."""
    runs = [
        _worker("run", workload, seed, deadline, "--seconds", str(seconds / RUN_PROCESSES),
                *(() if k == 0 else ("--no-parity",)))
        for k in range(RUN_PROCESSES)
    ]
    setups = [run["setup_s"] for run in runs] + [
        _worker("setup", workload, seed, deadline)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    walls, cpus = _pooled(runs, "walls"), _pooled(runs, "cpus")
    wall_s = _run_seconds(walls)
    first = runs[0]
    metrics = {
        "wall_s": wall_s,
        "steps_per_s": sum(first["steps"]) / wall_s,
        "cpu_s": _run_seconds(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    attempted = sum(run["attempted"] for run in runs) + 1
    failed = sum(run["failed"] for run in runs)
    messages = [message for run in runs for message in run["messages"]]
    if len({run["digest"] for run in runs}) != 1:
        failed += 1
        messages.append("run processes produced different reports")
    return {
        "metrics": {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "digest": first["digest"],
        "samples": {
            "walls": walls, "cpus": cpus, "net_walls": _pooled(runs, "net_walls"),
            "speeds": [run["speed"] for run in runs],
            "steps": first["steps"], "setups": setups,
        },
    }


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Per-layer metrics from two traced processes plus an untraced reference."""
    from tracer import KERNELS, layer_names

    reference = _worker(
        "run", workload, seed, deadline, "--seconds", str(seconds / 2), "--no-parity"
    )
    traced = [
        _worker("trace", workload, seed, deadline,
                "--spans", str(SPAN_DIR / f"spans-{workload}-{k}.jsonl"))
        for k in (1, 2)
    ]
    first, second = traced
    attempted = reference["attempted"] + first["attempted"] + second["attempted"] + 2
    failed = reference["failed"] + first["failed"] + second["failed"]
    messages = reference["messages"] + first["messages"] + second["messages"]

    counts = [
        {name: (entry["calls"], entry["elems"]) for name, entry in run["stats"].items()}
        for run in traced
    ]
    if counts[0] != counts[1]:
        failed += 1
        differing = sorted(name for name in counts[0] if counts[0][name] != counts[1][name])
        messages.append(f"calls/elems differ between traced runs: {differing}")
    if not first["digest"] == second["digest"] == reference["digest"]:
        failed += 1
        messages.append("traced reports differ from untraced ones")

    metrics: dict[str, tuple[float, str]] = {}
    for name in layer_names():
        metrics[f"{name}.calls"] = (first["stats"][name]["calls"], "count")
        if name in KERNELS:
            metrics[f"{name}.elems"] = (first["stats"][name]["elems"], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(run["stats"][name]["self_s"] for run in traced), "s"
        )
    lookups = first["cache_hits"] + first["cache_misses"]
    frames = first["stats"]["dynamics.bicycle.rk4_plant_batch"]["calls"]
    width = first["stats"]["dynamics.bicycle.rk4_plant_batch"]["elems"]
    traced_wall = statistics.median(run["traced_wall_s"] for run in traced)
    metrics.update({
        "runtime.cache.hits": (first["cache_hits"], "count"),
        "runtime.cache.misses": (first["cache_misses"], "count"),
        "runtime.cache.hit_ratio": (first["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "runtime.batch.frames": (frames, "count"),
        "runtime.batch.mean_width": (width / frames if frames else 0.0, "elems/call"),
        "comm.offload.miss_ratio": (
            first["offload_misses"] / first["offloads_issued"]
            if first["offloads_issued"] else 0.0,
            "ratio",
        ),
        "trace.spans": (first["spans"], "count"),
        "trace.covered_ratio": (
            statistics.median(run["covered_s"] / run["traced_wall_s"] for run in traced),
            "ratio",
        ),
        "trace.overhead_ratio": (
            traced_wall / _run_seconds(reference["net_walls"]) - 1.0, "ratio"
        ),
    })
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "digest": reference["digest"],
        "samples": {"net_walls": reference["net_walls"], "traced_walls": [
            run["traced_wall_s"] for run in traced
        ]},
    }


def _declared_metrics(trace: bool) -> list[str] | None:
    """Metric names ``BENCHMARK.json`` declares for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="seo-bench/3 benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full record (JSON line) to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    measure_fn = measure_traced if args.trace else measure
    try:
        record = measure_fn(args.workload, args.seed, args.seconds, deadline)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    declared = _declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(record["metrics"]):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1

    env = environment(args.seed)
    for message in record["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {args.workload} {record['digest']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in record["metrics"].items()
        },
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "env": env,
                "digest": record["digest"], "samples": record["samples"], **result,
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
