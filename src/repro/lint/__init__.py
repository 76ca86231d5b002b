"""repro.lint — AST-based invariant linter for this repository.

Pins the load-bearing structural invariants that ordinary linters cannot
see, as a CI gate (``python -m repro.lint src``; with no path it lints the
installed ``repro`` package, from any working directory):

* **kernel-parity** (REPRO101): in the decision and perception layers
  (``core/``, ``control/``, ``perception/``, ``sim/road.py``,
  ``sim/world.py``, ``sim/observation.py``), public scalar methods must
  be views of their ``*_batch`` kernels;
* **determinism** (REPRO201–204): no stdlib ``random``, unseeded or
  legacy numpy RNGs, or wall-clock reads in deterministic layers
  (``core/``, ``runtime/``, ``sim/``, ``control/``, ``comm/``,
  ``perception/``, ``streams.py``);
* **kernel-declarations** (REPRO502–503): in the kernel layer (the
  kernel-parity scope plus ``dynamics/`` and ``runtime/batch.py``), no
  narrowing dtype appears anywhere, and every public ``*_batch`` /
  ``*_kernel`` function declares its array shapes/dtypes via
  ``@kernel_contract`` (enforced at runtime by :mod:`repro.contracts`).

See ``docs/static-analysis.md`` for the invariants and the
``# repro-lint: ignore[CODE]`` suppression pragma.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.lint import declarations, determinism, parity
from repro.lint.framework import Checker, SourceFile, Violation
from repro.lint.framework import main as _main

__all__ = ["CHECKERS", "Checker", "SourceFile", "Violation", "main"]

CHECKERS: tuple[Checker, ...] = (
    Checker(
        name="kernel-parity",
        codes=parity.CODES,
        file_check=parity.check_parity,
        scope=parity.in_scope,
    ),
    Checker(
        name="determinism",
        codes=determinism.CODES,
        file_check=determinism.check_determinism,
        scope=determinism.in_scope,
    ),
    Checker(
        name="kernel-declarations",
        codes=declarations.CODES,
        file_check=declarations.check_declarations,
        scope=declarations.in_scope,
    ),
)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter with the full repo checker set; returns exit code."""
    return _main(argv, CHECKERS)
