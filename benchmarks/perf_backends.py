"""Perf harness: episodes/sec per executor backend, machine-readable output.

Times the serial oracle and the structure-of-arrays batch engine on the
paper's standard experiment configuration plus a curved-road workload and
writes a ``BENCH_*.json`` snapshot (schema below) so every PR extends a
recorded perf trajectory instead of leaving throughput numbers in terminal
scrollback.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf_backends.py            # 64 episodes
    SEO_BENCH_EPISODES=2 PYTHONPATH=src python benchmarks/perf_backends.py

Warm-up methodology
-------------------

Every timed measurement — headline, scaling entry, curved workload, serial
and batch alike — is preceded by **one untimed warm-up run of the identical
workload**, and only the second run is timed.  The warm-up populates every
one-off cache the first run would otherwise pay for inside the timing
window (the safe-interval lookup table, numpy ufunc loop setup, allocator
pools), so all recorded numbers measure steady-state throughput on equal
footing.  ``BENCH_pr7.json`` predates this rule and shows the cost of not
having it: its 64-episode scaling entry (2.11 s) disagrees with the
headline batch measurement of the same workload (1.42 s) purely because
the two were warmed differently.

The harness is its own smoke test: it asserts the batch backend's reports
are bit-identical to the serial ones on both timed workloads, validates the
emitted payload against the schema, and exits non-zero if the batch backend
is slower than serial on either workload.

Schema (``seo-bench/2``)::

    {
      "schema": "seo-bench/2",
      "pr": <int>,
      "workload": {"experiment": str, "episodes": int, "max_steps": int,
                   "tau_s": float, "seed": int},
      "backends": {<name>: {"episodes": int, "wall_s": float,
                            "episodes_per_s": float,
                            "phases"?: {<phase>: float}}},
      "scaling"?: {<name>: [{"episodes": int, "wall_s": float,
                             "episodes_per_s": float}, ...]},
      "speedup_batch_vs_serial": <float>,
      "curved"?: {"workload": {...}, "backends": {...},
                  "speedup_batch_vs_serial": <float>}
    }

``backends.batch.phases`` breaks the engine wall time into the lockstep
phases reported by :func:`repro.runtime.batch.run_batch`: ``decision``,
``scheduler``, ``scan``, ``dynamics``, with the scan phase further split
into ``scan_raycast`` (ray casting), ``scan_group`` (detection grouping +
noise) and ``scan_view`` (nearest-obstacle view kernel), which sum to
``scan``.  ``scaling`` records the batch engine's throughput across batch
sizes (amortization curve); ``curved`` repeats the serial/batch comparison
on the ``curved-road`` scenario family, exercising the multi-segment
Frenet projection kernels.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "seo-bench/2"
PR = 10
DEFAULT_OUTPUT = REPO_ROOT / f"BENCH_pr{PR}.json"

#: Baseline batch size for the committed trajectory: large enough that the
#: lockstep engine's fixed per-frame numpy overhead is amortized, matching
#: how sweeps actually use it.
DEFAULT_EPISODES = 64

#: Batch sizes of the scaling axis (only run at the full default workload;
#: CI smoke runs stick to their single reduced size).
SCALING_EPISODES = (16, 64, 256)

#: Phase keys reported by the batch engine's per-phase timing breakdown.
#: The three ``scan_*`` sub-phases sum to ``scan``.
BATCH_PHASES = (
    "decision",
    "scheduler",
    "scan",
    "scan_raycast",
    "scan_group",
    "scan_view",
    "dynamics",
)


def bench_episodes() -> int:
    """Episode count, adjustable via ``SEO_BENCH_EPISODES`` (CI smoke uses 2)."""
    raw = os.environ.get("SEO_BENCH_EPISODES", str(DEFAULT_EPISODES))
    try:
        episodes = int(raw)
    except ValueError:
        raise SystemExit(
            f"SEO_BENCH_EPISODES must be an integer number of episodes, got {raw!r}"
        ) from None
    if episodes < 1:
        raise SystemExit(f"SEO_BENCH_EPISODES must be at least 1, got {episodes}")
    return episodes


def _validate_rate_entry(name: str, entry: object) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"{name} must be an object")
    if not isinstance(entry.get("episodes"), int) or entry["episodes"] < 1:
        raise ValueError(f"{name}.episodes must be a positive integer")
    for key in ("wall_s", "episodes_per_s"):
        value = entry.get(key)
        if not isinstance(value, float) or value <= 0.0:
            raise ValueError(f"{name}.{key} must be a positive float")


def _validate_workload(name: str, workload: object) -> None:
    if not isinstance(workload, dict):
        raise ValueError(f"{name} must be an object")
    for key, kind in (
        ("experiment", str),
        ("episodes", int),
        ("max_steps", int),
        ("tau_s", float),
        ("seed", int),
    ):
        if not isinstance(workload.get(key), kind):
            raise ValueError(f"{name}.{key} must be {kind.__name__}")


def _validate_backends(name: str, backends: object) -> None:
    if not isinstance(backends, dict) or not backends:
        raise ValueError(f"{name} must be a non-empty object")
    if "serial" not in backends or "batch" not in backends:
        raise ValueError(f"{name} must include 'serial' and 'batch'")
    for backend, entry in backends.items():
        _validate_rate_entry(f"{name}.{backend}", entry)
        phases = entry.get("phases")
        if phases is not None:
            if not isinstance(phases, dict):
                raise ValueError(f"{name}.{backend}.phases must be an object")
            for phase in BATCH_PHASES:
                value = phases.get(phase)
                if not isinstance(value, float) or value < 0.0:
                    raise ValueError(
                        f"{name}.{backend}.phases.{phase} must be a "
                        "non-negative float"
                    )


def validate_payload(payload: dict) -> None:
    """Validate a ``seo-bench/2`` payload; raises ValueError on mismatch."""
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    if not isinstance(payload.get("pr"), int):
        raise ValueError("pr must be an integer")
    _validate_workload("workload", payload.get("workload"))
    _validate_backends("backends", payload.get("backends"))
    scaling = payload.get("scaling")
    if scaling is not None:
        if not isinstance(scaling, dict) or not scaling:
            raise ValueError("scaling must be a non-empty object")
        for name, entries in scaling.items():
            if not isinstance(entries, list) or not entries:
                raise ValueError(f"scaling.{name} must be a non-empty array")
            for index, entry in enumerate(entries):
                _validate_rate_entry(f"scaling.{name}[{index}]", entry)
    speedup = payload.get("speedup_batch_vs_serial")
    if not isinstance(speedup, float) or speedup <= 0.0:
        raise ValueError("speedup_batch_vs_serial must be a positive float")
    curved = payload.get("curved")
    if curved is not None:
        if not isinstance(curved, dict):
            raise ValueError("curved must be an object")
        _validate_workload("curved.workload", curved.get("workload"))
        _validate_backends("curved.backends", curved.get("backends"))
        curved_speedup = curved.get("speedup_batch_vs_serial")
        if not isinstance(curved_speedup, float) or curved_speedup <= 0.0:
            raise ValueError("curved.speedup_batch_vs_serial must be a positive float")


def _timed(run):
    """Warm up with one untimed identical run, then time the second run.

    Returns ``(result_of_timed_run, wall_seconds)``.  See the module
    docstring for why every measurement is warmed the same way.
    """
    run()
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def _measure_backends(framework, config, episodes, label):
    """Timed serial + batch runs of one workload, with parity assert.

    Returns ``(timings, batch_phase_seconds)`` or raises SystemExit on a
    serial/batch report mismatch.
    """
    from repro.runtime.batch import run_batch
    from repro.runtime.executor import SerialExecutor

    timings = {}
    serial_reports, wall = _timed(lambda: SerialExecutor().run(config, episodes))
    timings["serial"] = {
        "episodes": episodes,
        "wall_s": round(wall, 6),
        "episodes_per_s": round(episodes / wall, 4),
    }

    phase_seconds: dict = {}

    def batch_run():
        phase_seconds.clear()
        return run_batch(framework, range(episodes), timings=phase_seconds)

    batch_reports, wall = _timed(batch_run)
    timings["batch"] = {
        "episodes": episodes,
        "wall_s": round(wall, 6),
        "episodes_per_s": round(episodes / wall, 4),
        "phases": {
            phase: round(phase_seconds.get(phase, 0.0), 6)
            for phase in BATCH_PHASES
        },
    }

    for name in ("serial", "batch"):
        print(
            f"{label} {name:7s} {episodes:4d} episodes in "
            f"{timings[name]['wall_s']:8.3f}s  "
            f"({timings[name]['episodes_per_s']:.2f} eps/s)"
        )
    phases = timings["batch"]["phases"]
    print(
        f"{label} batch phases: "
        + "  ".join(f"{phase}={phases[phase]:.3f}s" for phase in BATCH_PHASES)
    )

    if batch_reports != serial_reports:
        raise SystemExit(
            f"FAIL: batch reports differ from the serial oracle on the "
            f"{label} workload"
        )
    return timings


def main(argv) -> int:
    output = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUTPUT
    episodes = bench_episodes()

    from dataclasses import replace

    from repro.core.framework import SEOFramework
    from repro.experiments.common import ExperimentSettings, standard_config
    from repro.runtime.batch import run_batch
    from repro.sim.scenario import DEFAULT_SUITE

    settings = ExperimentSettings(episodes=episodes, max_steps=1200, seed=0)
    experiment = "standard-offload-filtered"
    config = standard_config(settings, optimization="offload", filtered=True)
    framework = SEOFramework(config)

    timings = _measure_backends(framework, config, episodes, "standard")

    # Batch-size scaling axis: how throughput amortizes with the batch size.
    # Only measured on the full default workload; reduced smoke runs skip it
    # to stay fast.  Each size is warmed exactly like the headline run.
    scaling = None
    if episodes == DEFAULT_EPISODES:
        scaling = {"batch": []}
        for size in SCALING_EPISODES:
            _, size_wall = _timed(lambda size=size: run_batch(framework, range(size)))
            entry = {
                "episodes": size,
                "wall_s": round(size_wall, 6),
                "episodes_per_s": round(size / size_wall, 4),
            }
            scaling["batch"].append(entry)
            print(
                f"scaling {size:4d} episodes in {size_wall:8.3f}s  "
                f"({entry['episodes_per_s']:.2f} eps/s)"
            )

    # Curved-road workload: the same optimization mode on the curved-road
    # scenario family, exercising the multi-segment Frenet projection and
    # heading/curvature kernels that the straight paper road never touches.
    curved_scenario = DEFAULT_SUITE.build("curved-road", seed=0)
    curved_config = replace(
        config,
        scenario=curved_scenario,
        target_speed_mps=curved_scenario.target_speed_mps,
    )
    curved_framework = SEOFramework(curved_config)
    curved_timings = _measure_backends(
        curved_framework, curved_config, episodes, "curved"
    )

    speedup = timings["batch"]["episodes_per_s"] / timings["serial"]["episodes_per_s"]
    curved_speedup = (
        curved_timings["batch"]["episodes_per_s"]
        / curved_timings["serial"]["episodes_per_s"]
    )
    payload = {
        "schema": SCHEMA,
        "pr": PR,
        "workload": {
            "experiment": experiment,
            "episodes": episodes,
            "max_steps": config.max_steps,
            "tau_s": config.tau_s,
            "seed": config.seed,
        },
        "backends": timings,
        "speedup_batch_vs_serial": round(speedup, 4),
        "curved": {
            "workload": {
                "experiment": "curved-road-offload-filtered",
                "episodes": episodes,
                "max_steps": curved_config.max_steps,
                "tau_s": curved_config.tau_s,
                "seed": curved_config.seed,
            },
            "backends": curved_timings,
            "speedup_batch_vs_serial": round(curved_speedup, 4),
        },
    }
    if scaling is not None:
        payload["scaling"] = scaling
    validate_payload(payload)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"speedup batch vs serial: standard {speedup:.2f}x  "
          f"curved {curved_speedup:.2f}x  -> {output}")

    failed = False
    if speedup < 1.0:
        print("FAIL: batch backend is slower than serial", file=sys.stderr)
        failed = True
    if curved_speedup < 1.0:
        print(
            "FAIL: batch backend is slower than serial on the curved workload",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
