"""REPRO502–503 — kernel declarations in the batch-kernel layer.

Two syntactic gates over every file of the kernel layer (the
kernel-parity scope plus ``dynamics/`` and ``runtime/batch.py``), with
no dataflow: what the kernels compute is held by the serial/batch parity
tests and by the runtime twin of :func:`repro.contracts.kernel_contract`.

* **REPRO502** — a narrowing or widening dtype (``np.float32``,
  ``"int32"``, …) anywhere in the file.  Kernels stay in the
  float64/int64 (plus ``bool`` / packed ``int8`` mask) dtype universe;
  a drift that hits serial and batch alike passes every parity test.
* **REPRO503** — a public ``*_batch`` / ``*_kernel`` function without a
  ``@kernel_contract`` decorator, whose interface the runtime twin then
  never checks.
"""

from __future__ import annotations

import ast

from repro.lint.framework import SourceFile, Violation, statement_span

__all__ = ["CODES", "check_declarations", "in_scope"]

CODES = ("REPRO502", "REPRO503")

_SCOPE_PREFIXES = ("control/", "core/", "perception/", "dynamics/")
_SCOPE_FILES = frozenset(
    {"sim/road.py", "sim/world.py", "sim/observation.py", "runtime/batch.py"}
)

_KERNEL_SUFFIXES = ("_batch", "_kernel")

#: Narrowing / widening dtypes that break serial-batch bit-exactness.
_DENIED_DTYPES = frozenset(
    {
        "float32", "float16", "half", "single", "longdouble", "longfloat",
        "int32", "int16", "intc", "short", "uint8", "uint16", "uint32",
        "uint64", "complex64", "complex128", "csingle", "cdouble",
    }
)


def in_scope(relpath: str) -> bool:
    return relpath.startswith(_SCOPE_PREFIXES) or relpath in _SCOPE_FILES


def _denied_dtype(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        and node.attr in _DENIED_DTYPES
    ):
        return f"np.{node.attr}"
    if isinstance(node, ast.Constant) and node.value in _DENIED_DTYPES:
        return repr(node.value)
    return None


def _is_contract(decorator: ast.expr) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(func, ast.Attribute):
        return func.attr == "kernel_contract"
    return isinstance(func, ast.Name) and func.id == "kernel_contract"


def check_declarations(source: SourceFile) -> list[Violation]:
    path = str(source.path)
    violations: list[Violation] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.expr):
            denied = _denied_dtype(node)
            if denied is not None:
                message = (
                    f"dtype drift: {denied} in the kernel layer (kernels stay "
                    "in float64/int64/bool)"
                )
                violations.append(Violation(path, node.lineno, "REPRO502", message))
        elif (
            isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
            and not node.name.startswith("_")
            and node.name.endswith(_KERNEL_SUFFIXES)
            and not any(_is_contract(dec) for dec in node.decorator_list)
        ):
            first, last = statement_span(node)
            message = (
                f"public batch kernel {node.name!r} lacks a @kernel_contract "
                "declaration"
            )
            violations.append(Violation(path, first, "REPRO503", message, last))
    return violations
