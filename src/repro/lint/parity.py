"""REPRO101 — kernel parity: scalar facades must share their batch kernel.

The decision and perception layers (``core/``, ``control/``,
``perception/``, the world queries in ``sim/world.py``, the road
geometry in ``sim/road.py`` and the range scanner in
``sim/observation.py``) are written batch-first: the numerical kernel
is the ``*_batch`` method, and the public scalar method is a 1-element view
of it.  Two independent implementations of the same computation *will*
drift — the batch engine's bit-exactness oracle only holds because there
is exactly one quantization/minimum/projection per decision.

The rule: for every ``<base>_batch`` method on a class, every public
same-class method named ``<base>`` or ``<base>_*`` (not itself ending in
``_batch``) must share an implementation with it.  "Share" is checked
structurally: the transitive same-class call/reference closures of the
two methods must intersect.  That accepts both directions — a scalar
that delegates to the batch kernel (``query`` → ``query_batch``) and a
batch method whose irregular fallback loops over the scalar
(``project_batch`` → ``project``) — as well as sharing through a common
private helper (``estimate`` and ``estimate_batch`` both reaching
``_estimate_batch_scalar``).
"""

from __future__ import annotations

import ast

from repro.lint.framework import SourceFile, Violation

__all__ = ["CODES", "check_parity", "in_scope"]

CODES = ("REPRO101",)

_SCOPE_PREFIXES = ("core/", "control/", "perception/")
_SCOPE_FILES = frozenset({"sim/road.py", "sim/world.py", "sim/observation.py"})
_BATCH_SUFFIX = "_batch"


def in_scope(relpath: str) -> bool:
    return relpath.startswith(_SCOPE_PREFIXES) or relpath in _SCOPE_FILES


def _method_references(
    method: ast.FunctionDef | ast.AsyncFunctionDef, method_names: frozenset[str]
) -> set[str]:
    """Names of same-class methods referenced via ``self.X`` / ``cls.X``."""
    referenced: set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and node.attr in method_names
        ):
            referenced.add(node.attr)
    return referenced


def _closure(start: str, graph: dict[str, set[str]]) -> set[str]:
    """Transitive same-class reference closure, including ``start`` itself."""
    seen = {start}
    frontier = [start]
    while frontier:
        for neighbour in graph.get(frontier.pop(), ()):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


def check_parity(source_file: SourceFile) -> list[Violation]:
    violations: list[Violation] = []
    for node in ast.walk(source_file.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        method_names = frozenset(methods)
        graph = {
            name: _method_references(method, method_names)
            for name, method in methods.items()
        }
        batch_names = [
            name
            for name in methods
            if name.endswith(_BATCH_SUFFIX) and not name.startswith("_")
        ]
        for batch_name in batch_names:
            base = batch_name[: -len(_BATCH_SUFFIX)]
            batch_closure = _closure(batch_name, graph)
            for name, method in methods.items():
                if name.startswith("_") or name.endswith(_BATCH_SUFFIX):
                    continue
                if name != base and not name.startswith(base + "_"):
                    continue
                if _closure(name, graph) & batch_closure:
                    continue
                violations.append(
                    Violation(
                        path=str(source_file.path),
                        line=method.lineno,
                        code="REPRO101",
                        message=(
                            f"{node.name}.{name} does not share an "
                            f"implementation with {node.name}.{batch_name}; "
                            "scalar facades must be views of the batch kernel"
                        ),
                    )
                )
    return violations
