"""Clean fixture for the kernel-declarations checker (REPRO502–503).

Exercised with relpath ``core/declarations_ok.py`` so the scope predicate
matches: every public kernel declares its contract, and only the kernel
dtypes appear.
"""

from __future__ import annotations

import numpy as np

from repro import contracts
from repro.contracts import kernel_contract


@kernel_contract(xs="(N,) float64", returns="(N,) int64")
def count_batch(xs: np.ndarray) -> np.ndarray:
    return np.asarray(xs, dtype="float64").astype(np.int64)


class Scaler:
    @contracts.kernel_contract(values="(N,) float64", returns="(N,) float64")
    def scale_batch(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * 2.0

    def _helper_batch(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=bool)
