"""REPRO201–204 — determinism: no hidden entropy in the decision layers.

Episodes are bit-deterministic functions of ``(SEOConfig, episode
index)``; the sweep's dedupe of equal work units, the identical reports
of the in-process and process-pool paths, and the golden report corpus
all depend on it.  The only sanctioned randomness is an explicitly
seeded ``np.random.default_rng(seed)`` threaded down from the episode
index, and the only sanctioned clock is simulation time.

Inside ``core/``, ``runtime/``, ``sim/``, ``control/``, ``comm/``,
``perception/`` and ``streams.py`` (every module that builds or draws from
a generator on the episode path) this checker forbids:

* ``REPRO201`` — the stdlib :mod:`random` module (process-global state,
  not seedable per episode);
* ``REPRO202`` — ``np.random.default_rng()`` *without* a seed (entropy
  from the OS);
* ``REPRO203`` — the legacy ``np.random.*`` global-state API
  (``np.random.uniform`` and friends share one hidden global stream);
* ``REPRO204`` — wall-clock reads (``time.time``, ``datetime.now``,
  ...): results must not depend on when they were computed.  Monotonic
  timers for *reporting* (not decisions) can be suppressed with
  ``# repro-lint: ignore[REPRO204]``.
"""

from __future__ import annotations

import ast

from repro.lint.framework import SourceFile, Violation

__all__ = ["CODES", "check_determinism", "in_scope"]

CODES = ("REPRO201", "REPRO202", "REPRO203", "REPRO204")

_SCOPE_PREFIXES = ("core/", "runtime/", "sim/", "control/", "comm/", "perception/")
_SCOPE_FILES = frozenset({"streams.py"})

#: np.random attributes that are fine to *call*: generator/bit-generator
#: constructors taking an explicit seed.  Everything else on np.random is
#: the legacy global-state API.
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "SFC64"}
)

_WALL_CLOCK_TIME_ATTRS = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today", "fromtimestamp"})


def in_scope(relpath: str) -> bool:
    return relpath.startswith(_SCOPE_PREFIXES) or relpath in _SCOPE_FILES


def _attr_chain(node: ast.expr) -> list[str]:
    """``np.random.default_rng`` → ``["np", "random", "default_rng"]``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def check_determinism(source_file: SourceFile) -> list[Violation]:
    violations: list[Violation] = []

    def report(node: ast.AST, code: str, message: str) -> None:
        violations.append(
            Violation(
                path=str(source_file.path),
                line=getattr(node, "lineno", 1),
                code=code,
                message=message,
            )
        )

    for node in ast.walk(source_file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    report(
                        node,
                        "REPRO201",
                        "stdlib random is process-global and unseedable per "
                        "episode; use np.random.default_rng(seed)",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                report(
                    node,
                    "REPRO201",
                    "stdlib random is process-global and unseedable per "
                    "episode; use np.random.default_rng(seed)",
                )
            elif node.module == "time":
                clock_names = [
                    alias.name
                    for alias in node.names
                    if alias.name in _WALL_CLOCK_TIME_ATTRS
                ]
                if clock_names:
                    report(
                        node,
                        "REPRO204",
                        f"wall-clock import ({', '.join(clock_names)}): results "
                        "must not depend on when they were computed",
                    )
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if not chain:
                continue
            if chain[0] == "random" and len(chain) >= 2:
                report(
                    node,
                    "REPRO201",
                    f"random.{'.'.join(chain[1:])} draws from the hidden "
                    "process-global stream; use np.random.default_rng(seed)",
                )
            elif len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
                attr = chain[2]
                if attr == "default_rng":
                    if not node.args and not node.keywords:
                        report(
                            node,
                            "REPRO202",
                            "np.random.default_rng() without a seed pulls OS "
                            "entropy; thread the episode seed through",
                        )
                elif attr not in _NP_RANDOM_CONSTRUCTORS:
                    report(
                        node,
                        "REPRO203",
                        f"legacy np.random.{attr} uses the hidden global "
                        "stream; use an explicit np.random.default_rng(seed)",
                    )
            elif chain[0] == "time" and chain[-1] in _WALL_CLOCK_TIME_ATTRS and len(chain) == 2:
                report(
                    node,
                    "REPRO204",
                    f"time.{chain[-1]}() reads the wall clock; results must "
                    "not depend on when they were computed",
                )
            elif (
                chain[-1] in _WALL_CLOCK_DATETIME_ATTRS
                and len(chain) >= 2
                and ("datetime" in chain[:-1] or "date" in chain[:-1])
            ):
                report(
                    node,
                    "REPRO204",
                    f"{'.'.join(chain)}() reads the wall clock; results must "
                    "not depend on when they were computed",
                )
    return violations
