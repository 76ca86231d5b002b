"""Benchmark E7 (ablation) — safety-aware vs. safety-oblivious scheduling.

Not a paper artifact: quantifies what SEO gives up (energy) and what it buys
(smaller unsafe exposure) compared to applying the same optimization at the
maximum deadline regardless of the perceived risk.
"""

from conftest import save_result

from repro.analysis.tables import format_table


def test_ablation_safety_awareness(artifacts, results_dir):
    result = artifacts["ablation-safety"]
    table = format_table(
        ["variant", "avg gain [%]", "mean delta_max", "unsafe steps / episode"],
        [
            [
                "safety-aware (SEO)",
                100.0 * result.aware.average_model_gain,
                result.aware.mean_delta_max,
                result.aware_unsafe_steps,
            ],
            [
                "safety-oblivious",
                100.0 * result.oblivious.average_model_gain,
                result.oblivious.mean_delta_max,
                result.oblivious_unsafe_steps,
            ],
        ],
        title="Ablation — safety-aware vs. safety-oblivious gating (4 obstacles)",
    )
    save_result(results_dir, "ablation_safety_awareness", table)
    print("\n" + table)

    # Ignoring safety can only help the energy objective...
    assert result.oblivious.average_model_gain >= result.aware.average_model_gain - 0.02
    # ...and the oblivious variant always schedules at the maximum deadline.
    assert result.oblivious.mean_delta_max >= result.aware.mean_delta_max - 1e-6
