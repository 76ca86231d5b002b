"""Benchmark E4 — Fig. 6: delta_max histograms under varying risk (unfiltered).

Paper reference: the frequency of delta_max = 4 drops from 33.3 % to 6.5 % to
2.3 % (model gating) as the obstacle count grows 0 -> 2 -> 4, and the average
efficiency drops accordingly (42.9 % -> 17.5 % -> 11.9 % for gating, 88.6 %
-> 24.6 % -> 16.8 % for offloading).
"""

from conftest import save_result


def test_fig6_deadline_histogram(artifacts, results_dir):
    result = artifacts["fig6"]
    table = result.to_table()
    save_result(results_dir, "fig6_deadline_histogram", table)
    print("\n" + table)

    for method in ("offload", "model_gating"):
        open_road = result.histogram(method, 0)
        moderate = result.histogram(method, 2)
        risky = result.histogram(method, 4)

        # Larger deadlines are sampled less frequently as risk increases.
        assert open_road.frequency(4) >= moderate.frequency(4) >= risky.frequency(4) - 0.02
        assert open_road.mean() >= moderate.mean() >= risky.mean() - 0.1

        # Average efficiency drops with risk.
        gains = [result.average_gains[(method, count)] for count in (0, 2, 4)]
        assert gains[0] >= gains[1] - 0.02
        assert gains[1] >= gains[2] - 0.02
