"""Shared configuration for the benchmark harness.

Every benchmark checks one table or figure of the paper's evaluation
section.  The eight artifacts run once per session, as one
:func:`repro.cli.run_artifacts` sweep (the ``artifacts`` fixture), and each
benchmark reads its own result, writes the reproduced rows/series to
``benchmarks/results/`` and checks the paper's trends on them.  The
quantity of interest is that output, not a timing.

``SEO_BENCH_EPISODES`` (environment variable) sets the episodes per
configuration; the default, 25, is the paper's count.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

import pytest

from repro.cli import EXPERIMENTS, run_artifacts
from repro.experiments.common import ExperimentSettings

RESULTS_DIR = Path(__file__).parent / "results"


def bench_settings() -> ExperimentSettings:
    """Experiment settings used by every benchmark (env-var adjustable)."""
    raw = os.environ.get("SEO_BENCH_EPISODES", "25")
    try:
        episodes = int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"SEO_BENCH_EPISODES must be an integer number of episodes, got {raw!r}"
        ) from None
    if episodes < 1:
        raise pytest.UsageError(
            f"SEO_BENCH_EPISODES must be at least 1, got {episodes}"
        )
    return ExperimentSettings(episodes=episodes, max_steps=1200, seed=0)


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Session-wide experiment settings."""
    return bench_settings()


@pytest.fixture(scope="session")
def artifacts(settings: ExperimentSettings) -> dict[str, Any]:
    """Every paper artifact's result, from one sweep shared by the session."""
    return run_artifacts(EXPERIMENTS, settings)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmarks persist their reproduced tables."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: Path, name: str, text: str) -> None:
    """Write one reproduced artifact to the results directory."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
