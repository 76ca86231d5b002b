"""Benchmark E1 — Fig. 1: normalized gating energy vs. number of obstacles."""

from conftest import save_result


def test_fig1_motivational(artifacts, results_dir):
    result = artifacts["fig1"]
    table = result.to_table()
    save_result(results_dir, "fig1_motivational", table)
    print("\n" + table)

    fast = dict(result.series("detector-p1tau"))
    slow = dict(result.series("detector-p2tau"))
    # Normalized energy is a fraction of the local baseline.
    for value in list(fast.values()) + list(slow.values()):
        assert 0.0 < value <= 1.0
    # The paper's motivational trend: higher risk -> less gating -> more energy.
    assert fast[4] >= fast[0] - 0.05
    assert slow[4] >= slow[0] - 0.05
