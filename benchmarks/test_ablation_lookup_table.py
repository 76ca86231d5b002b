"""Benchmark E8 (ablation) — lookup-table deadlines vs. exact phi evaluations.

Not a paper artifact: checks that the low-cost proxy table T(x, u) the paper
relies on at runtime (Section IV-C) is a conservative approximation of the
exact safe-interval function, and measures how much energy gain the
quantization costs.
"""

from conftest import save_result

from repro.analysis.tables import format_table


def test_ablation_lookup_table(artifacts, results_dir):
    result = artifacts["ablation-lookup"]
    table = format_table(
        ["deadline provider", "avg gain [%]", "mean delta_max"],
        [
            [
                "lookup table T(x, u)",
                100.0 * result.lookup.average_model_gain,
                result.lookup.mean_delta_max,
            ],
            [
                "exact phi evaluation",
                100.0 * result.exact.average_model_gain,
                result.exact.mean_delta_max,
            ],
        ],
        title="Ablation — deadline lookup table vs. exact evaluation (3 obstacles)",
    )
    save_result(results_dir, "ablation_lookup_table", table)
    print("\n" + table)

    # The quantized table is conservative: it should not report materially
    # larger deadlines (and hence gains) than the exact evaluation.
    assert result.lookup.mean_delta_max <= result.exact.mean_delta_max + 0.3
    assert result.lookup.average_model_gain <= result.exact.average_model_gain + 0.05
