"""Lockstep gate: one lockstep call must match, and not lose to, episodes run one at a time.

On two workloads of 2 episodes each, the paper's standard configuration
(offload, filtered) and the same configuration on the ``curved-road``
family, whose multi-segment centreline drives the Frenet projection kernels
the straight road never touches, the episodes run one at a time
(``SEOFramework.run_episode``) and in one ``run_batch`` call.  Each side
runs once untimed, so one-off costs (lookup tables, numpy loop setup) stay
out of the timing, then once timed.  Exits 1 if the lockstep reports differ
from the one-at-a-time reports, or if lockstep is slower on either workload.

This is a CI regression gate on single runs; performance claims are
``perfbench/compare.py`` verdicts over repeated runs.  Run from the
repository root::

    PYTHONPATH=src python benchmarks/lockstep_gate.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from repro.core.framework import SEOConfig, SEOFramework
from repro.experiments.common import ExperimentSettings, standard_config
from repro.runtime.batch import run_batch
from repro.sim.scenario import DEFAULT_SUITE

EPISODES = 2


def workloads() -> list[tuple[str, SEOConfig]]:
    settings = ExperimentSettings(episodes=EPISODES, max_steps=1200, seed=0)
    config = standard_config(settings, optimization="offload", filtered=True)
    curved = DEFAULT_SUITE.build("curved-road", seed=0)
    return [
        ("standard", config),
        ("curved", replace(config, scenario=curved, target_speed_mps=curved.target_speed_mps)),
    ]


def timed(run):
    """Run once untimed, then return ``(result, seconds)`` of a second identical run."""
    run()
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def gate(name: str, config: SEOConfig) -> bool:
    """Time one workload both ways and print its line; True if it passes."""
    framework = SEOFramework(config)
    alone, alone_s = timed(lambda: [framework.run_episode(e) for e in range(EPISODES)])
    lockstep, lockstep_s = timed(lambda: run_batch(framework, range(EPISODES)))
    speedup = alone_s / lockstep_s
    equal = lockstep == alone
    print(
        f"{name}: one at a time {alone_s:.3f} s, lockstep {lockstep_s:.3f} s, "
        f"speedup {speedup:.2f}x, reports {'equal' if equal else 'DIFFER'}"
    )
    return equal and speedup >= 1.0


def main() -> int:
    results = [gate(name, config) for name, config in workloads()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
