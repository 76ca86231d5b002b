"""Smoke test of the kernel micro-bench (`benchmarks/kernel_bench.py`) at N = 1."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "kernel_bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("kernel_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_times_every_kernel_at_n_1():
    bench = _load_bench()
    kernels = {name for name, _, _ in bench.iter_kernels()}
    assert "repro.dynamics.bicycle.rk4_plant_batch" in kernels
    assert "repro.core.optimizations.period_kernel" in kernels

    result = bench.run(sizes=(1,), repeat=1, min_time_s=0.0)
    table = bench.render(result)
    timed = {row["kernel"] for row in result["rows"]}
    skipped = {name.rsplit(" [", 1)[0] for name in result["skipped"]}
    # Every kernel is either timed or listed as skipped with a reason.
    assert timed | skipped == kernels
    assert not timed & skipped
    assert all(result["skipped"].values())
    for row in result["rows"]:
        assert row["n"] == 1
        assert row["us_per_call"] > 0.0
        assert row["ns_per_elem"] == pytest.approx(row["us_per_call"] * 1e3)
        assert row["kernel"] in table
    # The engine's frame kernels all build from their specs.
    assert {
        "repro.dynamics.bicycle.rk4_plant_batch",
        "repro.core.optimizations.period_kernel",
        "repro.core.scheduler.charge_period_kernel",
        "repro.sim.road.Centerline.project_batch",
        "repro.sim.world.World.status_batch",
    } <= timed


def test_main_passes_its_options_to_run(monkeypatch, capsys):
    bench = _load_bench()
    calls = []

    def fake_run(sizes, repeat, min_time_s):
        calls.append((sizes, repeat, min_time_s))
        return {"rows": [], "skipped": {"k [N=1]": "TypeError: x"}}

    monkeypatch.setattr(bench, "run", fake_run)
    assert bench.main(["--sizes", "1", "64", "--repeat", "2", "--min-time", "0"]) == 0
    assert calls == [((1, 64), 2, 0.0)]
    assert "k [N=1]: TypeError: x" in capsys.readouterr().out
