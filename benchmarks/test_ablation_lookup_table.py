"""Benchmark E8 (ablation) — lookup-table deadlines vs. exact phi evaluations.

Not a paper artifact: checks that the low-cost proxy table T(x, u) the paper
relies on at runtime (Section IV-C) is a conservative approximation of the
exact safe-interval function, and measures how much energy gain the
quantization costs.
"""

from conftest import save_result


def test_ablation_lookup_table(artifacts, results_dir):
    result = artifacts["ablation-lookup"]
    table = result.to_table()
    save_result(results_dir, "ablation_lookup_table", table)
    print("\n" + table)

    # The quantized table is conservative: it should not report materially
    # larger deadlines (and hence gains) than the exact evaluation.
    assert result.lookup.mean_delta_max <= result.exact.mean_delta_max + 0.3
    assert result.lookup.average_model_gain <= result.exact.average_model_gain + 0.05
