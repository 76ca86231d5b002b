"""Lockstep gate: one lockstep call must match, and not lose to, episodes run one at a time.

On two workloads of 2 episodes each, the paper's standard configuration
(offload, filtered) and the same configuration on the ``curved-road``
family, whose multi-segment centreline drives the Frenet projection kernels
the straight road never touches, the episodes run one at a time
(``SEOFramework.run_episode``) and in one ``run_batch`` call.  Each side
runs once untimed, so one-off costs (lookup tables, numpy loop setup) stay
out of the timing, then 5 times timed, alternating which side runs first;
the speedup is the ratio of the two medians, so one run slowed by a noisy
neighbour does not decide it.  Exits 1 if any lockstep or one-at-a-time
run's reports differ from the first one-at-a-time run's, or if lockstep is
slower (by the medians) on either workload.

This is a CI regression gate; performance claims are
``perfbench/compare.py`` verdicts over repeated runs.  Run from the
repository root::

    PYTHONPATH=src python benchmarks/lockstep_gate.py
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import replace

from repro.core.framework import SEOConfig, SEOFramework
from repro.experiments.common import ExperimentSettings, standard_config
from repro.runtime.batch import run_batch
from repro.sim.scenario import DEFAULT_SUITE

EPISODES = 2
ROUNDS = 5


def workloads() -> list[tuple[str, SEOConfig]]:
    settings = ExperimentSettings(episodes=EPISODES, max_steps=1200, seed=0)
    config = standard_config(settings, optimization="offload", filtered=True)
    curved = DEFAULT_SUITE.build("curved-road", seed=0)
    return [
        ("standard", config),
        ("curved", replace(config, scenario=curved, target_speed_mps=curved.target_speed_mps)),
    ]


def gate(name: str, config: SEOConfig) -> bool:
    """Time one workload both ways and print its line; True if it passes."""
    framework = SEOFramework(config)
    sides = {
        "alone": lambda: [framework.run_episode(e) for e in range(EPISODES)],
        "lockstep": lambda: run_batch(framework, range(EPISODES)),
    }
    # One untimed run per side, then ROUNDS timed rounds in alternating order.
    results = {side: [run()] for side, run in sides.items()}
    seconds: dict[str, list[float]] = {side: [] for side in sides}
    order = list(sides)
    for _ in range(ROUNDS):
        for side in order:
            start = time.perf_counter()
            results[side].append(sides[side]())
            seconds[side].append(time.perf_counter() - start)
        order.reverse()
    alone_s = statistics.median(seconds["alone"])
    lockstep_s = statistics.median(seconds["lockstep"])
    speedup = alone_s / lockstep_s
    reference = results["alone"][0]
    equal = all(reports == reference for runs in results.values() for reports in runs)
    print(
        f"{name}: one at a time {alone_s:.3f} s, lockstep {lockstep_s:.3f} s "
        f"(medians of {ROUNDS}), speedup {speedup:.2f}x, "
        f"reports {'equal' if equal else 'DIFFER'}"
    )
    return equal and speedup >= 1.0


def main() -> int:
    results = [gate(name, config) for name, config in workloads()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
