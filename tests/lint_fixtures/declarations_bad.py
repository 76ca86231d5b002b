"""Violating fixture for the kernel-declarations checker.

Exercised with relpath ``core/declarations_bad.py``; each marked line
trips one code, so the tests can pin (line, code) pairs.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import kernel_contract

PACKED = np.uint8  # REPRO502: outside any kernel body too


@kernel_contract(xs="(N,) float64", returns="(N,) float64")
def narrow_batch(xs: np.ndarray) -> np.ndarray:
    return np.asarray(xs, dtype="float32")  # REPRO502: dtype string


def unsigned_kernel(xs: np.ndarray) -> np.ndarray:  # REPRO503: no contract
    return np.asarray(xs, dtype=float)


class Doubler:
    @staticmethod
    def double_batch(values: np.ndarray) -> np.ndarray:  # REPRO503
        return np.asarray(values, dtype=float) * 2.0
