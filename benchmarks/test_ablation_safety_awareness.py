"""Benchmark E7 (ablation) — safety-aware vs. safety-oblivious scheduling.

Not a paper artifact: quantifies what SEO gives up (energy) and what it buys
(smaller unsafe exposure) compared to applying the same optimization at the
maximum deadline regardless of the perceived risk.
"""

from conftest import save_result


def test_ablation_safety_awareness(artifacts, results_dir):
    result = artifacts["ablation-safety"]
    table = result.to_table()
    save_result(results_dir, "ablation_safety_awareness", table)
    print("\n" + table)

    # Ignoring safety can only help the energy objective...
    assert result.oblivious.average_model_gain >= result.aware.average_model_gain - 0.02
    # ...and the oblivious variant always schedules at the maximum deadline.
    assert result.oblivious.mean_delta_max >= result.aware.mean_delta_max - 1e-6
