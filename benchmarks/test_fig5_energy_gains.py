"""Benchmark E2 — Fig. 5: energy gains vs. local execution at tau = 20 ms.

Paper reference values (percent gains): offloading 65.9 / 24.1 (p=tau,
filtered / unfiltered) and 20.3 / ~8 (p=2tau); model gating 37.2 / 22.7 and
~9.5 / ~8.  The reproduction checks the figure's qualitative shape: offloading
beats model gating, the faster detector benefits more, and the filtered case
is at least as good as the unfiltered one.
"""

import dataclasses

import pytest
from conftest import save_result

from repro.cli import run_artifacts
from repro.experiments.fig5 import fig5_cells, fig5_result


def test_fig5_energy_gains(artifacts, results_dir):
    result = artifacts["fig5"]
    table = result.to_table()
    save_result(results_dir, "fig5_energy_gains", table)
    print("\n" + table)

    for method in ("offload", "model_gating"):
        for filtered in (False, True):
            fast = result.gain(method, filtered, "detector-p1tau")
            slow = result.gain(method, filtered, "detector-p2tau")
            assert 0.0 < fast < 1.0
            assert 0.0 <= slow < 1.0
            # Higher sampling frequency -> more optimization opportunities.
            assert fast >= slow - 0.02

    # Offloading (compute-only accounting) outgains model gating (eq. 7 vs 8).
    for filtered in (False, True):
        assert result.gain("offload", filtered, "detector-p1tau") >= result.gain(
            "model_gating", filtered, "detector-p1tau"
        ) - 0.02

    # The safety filter keeps larger obstacle distances, so the filtered case
    # samples larger deadlines and gains at least as much energy.
    assert result.gain("offload", True, "detector-p1tau") >= result.gain(
        "offload", False, "detector-p1tau"
    ) - 0.03


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: the shield lowers offload's filtered gain below "
    "the unfiltered one at other seeds (at 25 episodes, seed 3: 0.512 vs 0.544, "
    "outside the 0.03 slack; seed 6: 0.518 vs 0.546; at 5 episodes, seed 3: "
    "0.516 vs 0.554, seed 6: 0.503 vs 0.541), so the ordering above does not hold "
    "at every seed",
)
def test_fig5_filtered_ordering_at_other_seeds(settings):
    # Fig. 5 at each seed, as one sweep of its own.
    seeds = {
        seed: (lambda s, seed=seed: fig5_cells(dataclasses.replace(s, seed=seed)), fig5_result)
        for seed in (3, 6)
    }
    gains = {
        seed: (
            result.gain("offload", True, "detector-p1tau"),
            result.gain("offload", False, "detector-p1tau"),
        )
        for seed, result in run_artifacts(seeds, settings).items()
    }
    assert all(filtered >= unfiltered - 0.03 for filtered, unfiltered in gains.values()), gains
