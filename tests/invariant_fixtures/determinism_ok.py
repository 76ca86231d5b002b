"""Determinism fixture: only sanctioned entropy."""

from __future__ import annotations

import numpy as np


def seeded_draw(seed: int) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.0, 1.0))


def generator_methods(rng: np.random.Generator) -> float:
    # Methods on an explicit generator are fine, including one literally
    # named ``random``.
    return float(rng.random())
