"""Tests for the BENCH trajectory harness (`benchmarks/perf_backends.py`)."""

import importlib.util
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_backends.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("perf_backends", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_output_matches_the_stamped_pr():
    """The default snapshot file carries the PR number stamped in its payload."""
    harness = _load_harness()
    assert harness.DEFAULT_OUTPUT.name == f"BENCH_pr{harness.PR}.json"
    assert harness.DEFAULT_OUTPUT.parent == HARNESS.parent.parent
