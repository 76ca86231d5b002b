"""Benchmark E3 — Table I: gains over local execution at tau = 25 ms.

Paper reference (average gains): offloading 11.8 % unfiltered / 21.1 %
filtered; gating 6.6 % unfiltered / 14.5 % filtered.  The shape checks mirror
those of Fig. 5 at the larger base period.
"""

from conftest import save_result


def test_table1_tau25(artifacts, results_dir):
    result = artifacts["table1"]
    table = result.to_table()
    save_result(results_dir, "table1_tau25", table)
    print("\n" + table)

    assert len(result.rows) == 4
    for row in result.rows:
        assert 0.0 <= row.gain_p2 <= row.gain_p1 + 0.02
        assert 0.0 <= row.average_gain < 1.0

    # Offloading average gains exceed gating average gains in both control cases.
    for filtered in (False, True):
        assert result.row("offload", filtered).average_gain >= result.row(
            "model_gating", filtered
        ).average_gain - 0.02

    # Filtered control is at least as energy efficient as unfiltered.
    for method in ("offload", "model_gating"):
        assert result.row(method, True).average_gain >= result.row(
            method, False
        ).average_gain - 0.03
