"""REPRO501–505: shape/dtype contracts for the batch-kernel layer.

The batch engine's correctness story rests on every ``*_batch`` kernel
being a total function over ``(N,)``-aligned float64/int64 arrays whose
scalar facade is a 1-element view.  This checker pins that story
statically:

* **REPRO501** — a dataflow pass (:mod:`repro.lint.arrays`) propagates
  the *declared* symbolic shapes through each kernel body and reports
  operations that force two incompatible axes together (``(N,)`` against
  ``(N, K)`` without a broadcast axis, one contract symbol bound to two
  different sizes across a cross-kernel call, …).
* **REPRO502** — kernel bodies must stay in the float64/int64 (plus
  ``bool`` / packed ``int8`` mask) dtype universe; any mention of a
  narrowing dtype (``np.float32``, ``np.int32``, …) is drift that breaks
  the serial/batch bit-exactness oracle.
* **REPRO503** — every *public* ``*_batch`` / ``*_kernel`` function must
  carry a :func:`repro.contracts.kernel_contract` declaration, and an
  inferred return shape/dtype must not contradict the declared one.
* **REPRO504** — a scalar facade of a contracted kernel must be a
  1-element view: every declared array argument wrapped as
  ``np.array([value])`` (or ``arr[None, :]``) and the result read back
  through ``[0]``.
* **REPRO505** — RNG draws inside loops in kernel bodies must be *sized*
  (``rng.random(n)``); an unsized per-element draw is the serial scalar
  pattern the batch layer exists to eliminate, and it desynchronizes the
  generator stream from the serial oracle.

The contract grammar is owned by :mod:`repro.contracts`; this module
parses the same decorator keywords off the AST through the same
:func:`repro.contracts.parse_spec`, so the static pass and the runtime
``--runtime-contracts`` twin can never diverge on what a declaration
means.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from dataclasses import dataclass

from repro.contracts import ArraySpec, parse_spec
from repro.lint.arrays import (
    ArrayValue,
    ClassTable,
    ShapeEngine,
    StaticContract,
    TupleValue,
    Value,
    dim_from_spec,
    format_shape,
)
from repro.lint.framework import SourceFile, Violation, statement_span

__all__ = ["CODES", "check_shapes", "in_scope"]

CODES = ("REPRO501", "REPRO502", "REPRO503", "REPRO504", "REPRO505")

_SCOPE_PREFIXES = ("control/", "core/", "perception/", "dynamics/")
_SCOPE_FILES = ("sim/road.py", "sim/world.py", "sim/observation.py", "runtime/batch.py")

_KERNEL_SUFFIXES = ("_batch", "_kernel")

#: Narrowing / widening dtypes that break serial-batch bit-exactness.
_DENIED_DTYPES = frozenset(
    {
        "float32", "float16", "half", "single", "longdouble", "longfloat",
        "int32", "int16", "intc", "short", "uint8", "uint16", "uint32",
        "uint64", "complex64", "complex128", "csingle", "cdouble",
    }
)

#: RNG methods and the positional index their ``size`` argument occupies.
_RNG_SIZE_POSITION = {
    "standard_normal": 0,
    "random": 0,
    "standard_exponential": 0,
    "normal": 2,
    "uniform": 2,
    "exponential": 1,
    "integers": 2,
    "poisson": 1,
}


def in_scope(relpath: str) -> bool:
    return relpath.startswith(_SCOPE_PREFIXES) or relpath in _SCOPE_FILES


def _is_kernel_name(name: str) -> bool:
    return not name.startswith("_") and name.endswith(_KERNEL_SUFFIXES)


def _module_name(relpath: str) -> str:
    return "repro." + relpath.removesuffix(".py").replace("/", ".")


# ----------------------------------------------------------------------
# Contract extraction (AST side of the single spec grammar)
# ----------------------------------------------------------------------
def _contract_decorator(fn: ast.FunctionDef) -> ast.Call | None:
    for decorator in fn.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        if isinstance(func, ast.Name) and func.id == "kernel_contract":
            return decorator
        if isinstance(func, ast.Attribute) and func.attr == "kernel_contract":
            return decorator
    return None


def _is_staticmethod(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
        for decorator in fn.decorator_list
    )


def _parse_literal_spec(node: ast.expr) -> ArraySpec | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return parse_spec(node.value)
        except ValueError:
            return None
    return None


def _extract_contract(
    fn: ast.FunctionDef, class_name: str | None
) -> StaticContract | None:
    decorator = _contract_decorator(fn)
    if decorator is None:
        return None
    declared: dict[str, ArraySpec] = {}
    returns: tuple[ArraySpec, ...] | None = None
    for keyword in decorator.keywords:
        if keyword.arg is None:
            continue
        if keyword.arg == "returns":
            node = keyword.value
            if isinstance(node, ast.Constant) and node.value is None:
                returns = None
            elif isinstance(node, (ast.Tuple, ast.List)):
                specs = [_parse_literal_spec(elt) for elt in node.elts]
                if all(spec is not None for spec in specs):
                    returns = tuple(spec for spec in specs if spec is not None)
            else:
                spec = _parse_literal_spec(node)
                if spec is not None:
                    returns = (spec,)
        else:
            spec = _parse_literal_spec(keyword.value)
            if spec is not None:
                declared[keyword.arg] = spec
    drops_self = class_name is not None and not _is_staticmethod(fn)
    args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
        fn.args.kwonlyargs
    )
    if drops_self and args and args[0].arg in ("self", "cls"):
        args = args[1:]
    params = tuple((arg.arg, declared.get(arg.arg)) for arg in args)
    return StaticContract(
        name=fn.name,
        class_name=class_name,
        drops_self=drops_self,
        params=params,
        returns=returns,
        line=fn.lineno,
    )


# ----------------------------------------------------------------------
# Project index: contracts, class tables, module constants
# ----------------------------------------------------------------------
@dataclass
class _KernelSite:
    source: SourceFile
    fn: ast.FunctionDef
    class_name: str | None
    contract: StaticContract | None


@dataclass
class _ProjectIndex:
    by_name: dict[str, StaticContract]
    by_class: dict[tuple[str, str], StaticContract]
    class_tables: dict[str, ClassTable]
    module_envs: dict[str, dict[str, Value]]
    kernels: list[_KernelSite]
    classes: list[tuple[SourceFile, ast.ClassDef]]


def _iter_functions(
    tree: ast.Module,
) -> list[tuple[ast.FunctionDef, str | None, ast.ClassDef | None]]:
    out: list[tuple[ast.FunctionDef, str | None, ast.ClassDef | None]] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            out.append((stmt, None, None))
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    out.append((sub, stmt.name, stmt))
    return out


def _module_constants(tree: ast.Module) -> dict[str, Value]:
    """Module-level ``NAME = <numeric literal>`` bindings."""
    env: dict[str, Value] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        node: ast.expr = stmt.value
        negate = False
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
            negate = True
        if not isinstance(node, ast.Constant):
            continue
        value = node.value
        if isinstance(value, bool):
            env[target.id] = ArrayValue(shape=(), dtype="bool")
        elif isinstance(value, int):
            env[target.id] = ArrayValue(
                shape=(), dtype="int64",
                dim_value=-value if negate else value,
            )
        elif isinstance(value, float):
            env[target.id] = ArrayValue(shape=(), dtype="float64")
    return env


def _build_index(files: Sequence[SourceFile]) -> _ProjectIndex:
    by_name: dict[str, StaticContract] = {}
    by_class: dict[tuple[str, str], StaticContract] = {}
    kernels: list[_KernelSite] = []
    classes: list[tuple[SourceFile, ast.ClassDef]] = []
    constants: dict[str, dict[str, Value]] = {}

    for source in files:
        constants[_module_name(source.relpath)] = _module_constants(source.tree)
        for stmt in source.tree.body:
            if isinstance(stmt, ast.ClassDef):
                classes.append((source, stmt))
        for fn, class_name, _ in _iter_functions(source.tree):
            contract = _extract_contract(fn, class_name)
            if contract is not None:
                if class_name is None:
                    by_name.setdefault(fn.name, contract)
                else:
                    by_class[(class_name, fn.name)] = contract
            if contract is not None or _is_kernel_name(fn.name):
                kernels.append(_KernelSite(source, fn, class_name, contract))

    # Per-module environment: own constants plus imported ones.
    module_envs: dict[str, dict[str, Value]] = {}
    for source in files:
        module = _module_name(source.relpath)
        env = dict(constants.get(module, {}))
        for stmt in source.tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module is not None:
                imported = constants.get(stmt.module)
                if imported is None:
                    continue
                for alias in stmt.names:
                    if alias.name in imported:
                        env[alias.asname or alias.name] = imported[alias.name]
        module_envs[module] = env

    # Class tables: field annotations first, then __init__/__post_init__.
    class_tables: dict[str, ClassTable] = {
        classdef.name: {} for _, classdef in classes
    }
    annotation_engine = ShapeEngine(by_name, by_class, class_tables, quiet=True)
    for _, classdef in classes:
        table = class_tables[classdef.name]
        for stmt in classdef.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                table[stmt.target.id] = annotation_engine.value_from_annotation(
                    stmt.annotation
                )
            elif isinstance(stmt, ast.FunctionDef) and any(
                isinstance(decorator, ast.Name) and decorator.id == "property"
                for decorator in stmt.decorator_list
            ):
                table[stmt.name] = annotation_engine.value_from_annotation(
                    stmt.returns
                )
    for source, classdef in classes:
        table = class_tables[classdef.name]
        module_env = module_envs[_module_name(source.relpath)]
        for method_name in ("__init__", "__post_init__"):
            for stmt in classdef.body:
                if (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name == method_name
                ):
                    engine = ShapeEngine(
                        by_name, by_class, class_tables, quiet=True
                    )
                    engine.analyze_init(stmt, classdef.name, table, module_env)

    return _ProjectIndex(
        by_name=by_name,
        by_class=by_class,
        class_tables=class_tables,
        module_envs=module_envs,
        kernels=kernels,
        classes=classes,
    )


# ----------------------------------------------------------------------
# REPRO501 + REPRO503 (dataflow over contracted kernel bodies)
# ----------------------------------------------------------------------
def _check_kernel_dataflow(
    site: _KernelSite, index: _ProjectIndex
) -> list[Violation]:
    contract = site.contract
    if contract is None:
        return []
    engine = ShapeEngine(index.by_name, index.by_class, index.class_tables)
    env = dict(index.module_envs.get(_module_name(site.source.relpath), {}))
    env.update(
        engine.seed_params(
            site.fn, contract, site.class_name, site.class_name is not None
        )
    )
    engine.run(site.fn.body, env)
    path = str(site.source.path)
    violations = [
        Violation(
            path=path,
            line=problem.line,
            code=problem.code,
            message=f"{problem.message} (in kernel {site.fn.name!r})",
            end_line=problem.end_line,
        )
        for problem in engine.problems
    ]
    violations.extend(_check_returns(site, contract, engine, path))
    return violations


def _check_returns(
    site: _KernelSite,
    contract: StaticContract,
    engine: ShapeEngine,
    path: str,
) -> list[Violation]:
    declared = contract.returns
    violations: list[Violation] = []
    for node, value in engine.returns:
        span = statement_span(node)
        if declared is None:
            continue
        items: tuple[Value, ...]
        if len(declared) == 1:
            items = (value,)
        elif isinstance(value, TupleValue):
            if len(value.items) != len(declared):
                violations.append(
                    Violation(
                        path=path,
                        line=span[0],
                        code="REPRO503",
                        message=(
                            f"kernel {site.fn.name!r} returns "
                            f"{len(value.items)} values, contract declares "
                            f"{len(declared)}"
                        ),
                        end_line=span[1],
                    )
                )
                continue
            items = value.items
        elif isinstance(value, ArrayValue):
            violations.append(
                Violation(
                    path=path,
                    line=span[0],
                    code="REPRO503",
                    message=(
                        f"kernel {site.fn.name!r} returns a single array, "
                        f"contract declares {len(declared)} values"
                    ),
                    end_line=span[1],
                )
            )
            continue
        else:
            continue
        for position, (spec, item) in enumerate(zip(declared, items)):
            if not isinstance(item, ArrayValue):
                continue
            if item.shape is not None:
                if len(item.shape) != len(spec.dims):
                    violations.append(
                        Violation(
                            path=path,
                            line=span[0],
                            code="REPRO503",
                            message=(
                                f"return value {position} of "
                                f"{site.fn.name!r}: inferred shape "
                                f"{format_shape(item.shape)} contradicts "
                                f"declared {spec.render()}"
                            ),
                            end_line=span[1],
                        )
                    )
                    continue
                for declared_dim, inferred_dim in zip(
                    _declared_dims(spec), item.shape
                ):
                    if engine.unify_dim(declared_dim, inferred_dim) is None:
                        violations.append(
                            Violation(
                                path=path,
                                line=span[0],
                                code="REPRO503",
                                message=(
                                    f"return value {position} of "
                                    f"{site.fn.name!r}: inferred shape "
                                    f"{format_shape(item.shape)} contradicts "
                                    f"declared {spec.render()}"
                                ),
                                end_line=span[1],
                            )
                        )
                        break
            if item.dtype is not None and item.dtype != spec.dtype:
                violations.append(
                    Violation(
                        path=path,
                        line=span[0],
                        code="REPRO503",
                        message=(
                            f"return value {position} of {site.fn.name!r}: "
                            f"inferred dtype {item.dtype} contradicts "
                            f"declared {spec.render()}"
                        ),
                        end_line=span[1],
                    )
                )
    return violations


def _declared_dims(spec: ArraySpec) -> tuple[int | str, ...]:
    return tuple(dim_from_spec(dim) for dim in spec.dims)


# ----------------------------------------------------------------------
# REPRO503 (undeclared kernels)
# ----------------------------------------------------------------------
def _check_undeclared(site: _KernelSite, path: str) -> list[Violation]:
    if site.contract is not None or not _is_kernel_name(site.fn.name):
        return []
    span = statement_span(site.fn)
    return [
        Violation(
            path=path,
            line=span[0],
            code="REPRO503",
            message=(
                f"public batch kernel {site.fn.name!r} lacks a "
                "@kernel_contract declaration"
            ),
            end_line=span[1],
        )
    ]


# ----------------------------------------------------------------------
# REPRO502 (dtype drift) and REPRO505 (unsized loop draws)
# ----------------------------------------------------------------------
def _own_nodes(stmt: ast.stmt) -> list[ast.AST]:
    """Every AST node of ``stmt`` excluding those inside nested statements."""
    out: list[ast.AST] = []
    todo: list[ast.AST] = [stmt]
    while todo:
        node = todo.pop()
        out.append(node)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                todo.append(child)
    return out


def _statements(body: Sequence[ast.stmt], loop_depth: int = 0) -> list[
    tuple[ast.stmt, int]
]:
    """Each statement exactly once, with its enclosing-loop depth."""
    out: list[tuple[ast.stmt, int]] = []
    for stmt in body:
        out.append((stmt, loop_depth))
        inner = loop_depth + (1 if isinstance(stmt, (ast.For, ast.While)) else 0)
        for attr in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, attr, None)
            if isinstance(sub, list):
                out.extend(_statements(sub, inner))
    return out


def _check_dtype_drift(site: _KernelSite, path: str) -> list[Violation]:
    violations: list[Violation] = []
    for stmt, _ in _statements(site.fn.body):
        end = getattr(stmt, "end_lineno", None) or stmt.lineno
        for node in _own_nodes(stmt):
            denied: str | None = None
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and node.attr in _DENIED_DTYPES
            ):
                denied = f"np.{node.attr}"
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in _DENIED_DTYPES
            ):
                denied = repr(node.value)
            if denied is not None:
                violations.append(
                    Violation(
                        path=path,
                        line=node.lineno,
                        code="REPRO502",
                        message=(
                            f"dtype drift: {denied} in batch kernel "
                            f"{site.fn.name!r} (kernels stay in "
                            "float64/int64/bool)"
                        ),
                        end_line=end,
                    )
                )
    return violations


def _check_unsized_draws(site: _KernelSite, path: str) -> list[Violation]:
    violations: list[Violation] = []
    for stmt, loop_depth in _statements(site.fn.body):
        if loop_depth == 0:
            continue
        end = getattr(stmt, "end_lineno", None) or stmt.lineno
        for node in _own_nodes(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            position = _RNG_SIZE_POSITION.get(func.attr)
            if position is None:
                continue
            if isinstance(func.value, ast.Name) and func.value.id in (
                "np",
                "numpy",
                "math",
            ):
                continue
            sized = len(node.args) > position or any(
                keyword.arg == "size" for keyword in node.keywords
            )
            if sized:
                continue
            violations.append(
                Violation(
                    path=path,
                    line=node.lineno,
                    code="REPRO505",
                    message=(
                        f"unsized RNG draw .{func.attr}() inside a loop in "
                        f"batch kernel {site.fn.name!r} (draw a sized batch "
                        "outside the per-element path)"
                    ),
                    end_line=end,
                )
            )
    return violations


# ----------------------------------------------------------------------
# REPRO504 (scalar facades must be 1-element views)
# ----------------------------------------------------------------------
def _is_one_element_view(arg: ast.expr) -> bool:
    """``np.array([value])`` (optionally nested / dtyped) or ``arr[None, :]``."""
    if isinstance(arg, ast.Call):
        func = arg.func
        wrapper = (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and func.attr in ("array", "asarray")
        )
        if wrapper and arg.args:
            inner = arg.args[0]
            return isinstance(inner, (ast.List, ast.Tuple)) and len(
                inner.elts
            ) == 1
        return False
    if isinstance(arg, ast.Subscript):
        index = arg.slice
        if isinstance(index, ast.Constant) and index.value is None:
            return True
        if isinstance(index, ast.Tuple) and index.elts:
            head = index.elts[0]
            return isinstance(head, ast.Constant) and head.value is None
    return False


def _facade_kernel_calls(
    fn: ast.FunctionDef, kernel_name: str
) -> list[ast.Call]:
    calls: list[ast.Call] = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == kernel_name
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("self", "cls")
        ):
            calls.append(node)
    return calls


def _has_element_read(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
        for node in ast.walk(fn)
    )


def _nonconforming_args(
    call: ast.Call, contract: StaticContract
) -> list[str]:
    """Declared array params of ``call`` that are not 1-element views."""
    bound: dict[str, ast.expr] = {}
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return ["*args"]
        if position < len(contract.params):
            bound[contract.params[position][0]] = arg
    for keyword in call.keywords:
        if keyword.arg is not None:
            bound[keyword.arg] = keyword.value
    bad: list[str] = []
    for name, spec in contract.params:
        if spec is None:
            continue
        arg = bound.get(name)
        if arg is None or not _is_one_element_view(arg):
            bad.append(name)
    return bad


def _check_facades(
    source: SourceFile, classdef: ast.ClassDef, index: _ProjectIndex
) -> list[Violation]:
    kernels = {
        name: contract
        for (cls, name), contract in index.by_class.items()
        if cls == classdef.name and name.endswith("_batch")
    }
    if not kernels:
        return []
    path = str(source.path)
    violations: list[Violation] = []
    for fn in classdef.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        if fn.name in kernels:
            continue
        for kernel_name, contract in kernels.items():
            base = kernel_name.removesuffix("_batch")
            if fn.name != base and not fn.name.startswith(base + "_"):
                continue
            calls = _facade_kernel_calls(fn, kernel_name)
            if not calls:
                continue
            problems = [_nonconforming_args(call, contract) for call in calls]
            span = statement_span(fn)
            if all(problems):
                worst = min(problems, key=len)
                violations.append(
                    Violation(
                        path=path,
                        line=span[0],
                        code="REPRO504",
                        message=(
                            f"facade {fn.name!r} is not a 1-element view of "
                            f"kernel {kernel_name!r}: argument(s) "
                            f"{', '.join(repr(name) for name in worst)} not "
                            "passed as np.array([value]) / arr[None, :]"
                        ),
                        end_line=span[1],
                    )
                )
            elif not _has_element_read(fn):
                violations.append(
                    Violation(
                        path=path,
                        line=span[0],
                        code="REPRO504",
                        message=(
                            f"facade {fn.name!r} calls kernel "
                            f"{kernel_name!r} but never reads element [0] "
                            "of the result"
                        ),
                        end_line=span[1],
                    )
                )
    return violations


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def check_shapes(files: Sequence[SourceFile]) -> list[Violation]:
    index = _build_index(files)
    violations: list[Violation] = []
    for site in index.kernels:
        path = str(site.source.path)
        violations.extend(_check_undeclared(site, path))
        violations.extend(_check_dtype_drift(site, path))
        violations.extend(_check_unsized_draws(site, path))
        violations.extend(_check_kernel_dataflow(site, index))
    for source, classdef in index.classes:
        violations.extend(_check_facades(source, classdef, index))
    return violations
