"""Declared array contracts for the batch-kernel layer.

Every public ``*_batch`` / ``*_kernel`` function in the decision and
perception layers declares the symbolic shape and dtype of its array
parameters and return values with the :func:`kernel_contract` decorator:

.. code-block:: python

    @kernel_contract(
        distances_m="(N,) float64",
        bearings_rad="(N,) float64",
        returns="(N,) float64",
    )
    def query_batch(self, distances_m, bearings_rad): ...

The declaration is enforced at call time when enabled: the decorator
binds the declared symbols against the live arrays and raises
:class:`ContractViolationError` on the first mismatch.  The one switch is
the ``REPRO_RUNTIME_CONTRACTS`` environment variable, read when this module
is imported: any value but unset, ``""`` or ``"0"`` turns enforcement on.
Pool workers inherit it either way, a forked worker through the parent's
state and a spawned one by importing this module under the same
environment.  Tests scope it with :func:`enforced_contracts` or
:func:`set_contracts_enabled`.  The
``kernel-declarations`` check of :mod:`repro.lint` (REPRO502–503) makes
sure every public kernel carries a declaration, so none escapes the
runtime check.

Spec grammar
------------
A spec is ``"(dim, dim, ...) dtype"``.  Each ``dim`` is a symbolic size
(``N``, ``K``).  The dtype suffix defaults to ``float64``; the vocabulary
is the canonical kernel dtypes (``float64``/``int64``/``bool``).
``"()"`` declares a 0-d scalar.  Symbols are scoped to
one kernel signature: every occurrence of ``N`` across the parameters
and returns of a single call must agree.

Runtime leniency, by design:

* 0-d inputs are always accepted for a dimensioned parameter — kernels
  broadcast scalars (``filter_batch`` takes a scalar road half-width);
* non-ndarray sequence inputs (lists/tuples) are shape-checked but not
  dtype-checked — kernels normalize them via ``np.asarray``; returned
  arrays are always checked strictly.
"""

from __future__ import annotations

import inspect
import os
import re
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, TypeVar, cast

import numpy as np

__all__ = [
    "ArraySpec",
    "ContractViolationError",
    "KernelContract",
    "contracts_enabled",
    "enforced_contracts",
    "kernel_contract",
    "parse_spec",
    "set_contracts_enabled",
]

#: Dtypes a contract may declare: the kernel-layer discipline.
ALLOWED_DTYPES = ("float64", "int64", "bool")

_SPEC_PATTERN = re.compile(r"^\(([^()]*)\)(?:\s+(\w+))?$")
_SYMBOL_PATTERN = re.compile(r"^[A-Z][A-Za-z0-9]*$")


class ContractViolationError(TypeError):
    """An array failed its kernel's declared shape/dtype contract."""


@dataclass(frozen=True)
class ArraySpec:
    """Parsed form of one ``"(dims) dtype"`` spec string."""

    dims: tuple[str, ...]
    dtype: str

    def render(self) -> str:
        inner = ", ".join(self.dims)
        if len(self.dims) == 1:
            inner += ","
        return f"({inner}) {self.dtype}"


@dataclass(frozen=True)
class KernelContract:
    """The declared array interface of one kernel function."""

    name: str
    params: tuple[tuple[str, ArraySpec], ...]
    returns: tuple[ArraySpec, ...] | None

    @property
    def param_specs(self) -> Mapping[str, ArraySpec]:
        return dict(self.params)


def parse_spec(text: str) -> ArraySpec:
    """Parse one spec string; raises ``ValueError`` on bad grammar."""
    match = _SPEC_PATTERN.match(text.strip())
    if match is None:
        raise ValueError(f"bad array spec {text!r}: expected '(dims) dtype'")
    body, dtype = match.group(1), match.group(2) or "float64"
    if dtype not in ALLOWED_DTYPES:
        raise ValueError(
            f"bad array spec {text!r}: dtype must be one of {ALLOWED_DTYPES}"
        )
    dims = tuple(token.strip() for token in body.split(",") if token.strip())
    for dim in dims:
        if not _SYMBOL_PATTERN.match(dim):
            raise ValueError(f"bad array spec {text!r}: dim {dim!r} is not a symbol")
    return ArraySpec(dims=dims, dtype=dtype)


# ----------------------------------------------------------------------
# Enforcement state
# ----------------------------------------------------------------------
@dataclass
class _EnforcementState:
    enabled: bool = field(
        default_factory=lambda: os.environ.get("REPRO_RUNTIME_CONTRACTS", "")
        not in ("", "0")
    )


_STATE = _EnforcementState()


def contracts_enabled() -> bool:
    """True when runtime contract enforcement is on."""
    return _STATE.enabled


def set_contracts_enabled(enabled: bool) -> bool:
    """Turn runtime enforcement on/off; returns the previous setting."""
    previous = _STATE.enabled
    _STATE.enabled = enabled
    return previous


@contextmanager
def enforced_contracts(enabled: bool = True) -> Iterator[None]:
    """Scope within which runtime contract enforcement is forced on (or off)."""
    previous = set_contracts_enabled(enabled)
    try:
        yield
    finally:
        set_contracts_enabled(previous)


# ----------------------------------------------------------------------
# Runtime checking
# ----------------------------------------------------------------------
def _bind_dim(
    contract: KernelContract, where: str, dim: str, actual: int, env: dict[str, int]
) -> None:
    expected = env.setdefault(dim, actual)
    if actual != expected:
        raise ContractViolationError(
            f"{contract.name}: {where} has size {actual} where the declared "
            f"dim {dim} binds to {expected}"
        )


def _check_array(
    contract: KernelContract,
    where: str,
    value: Any,
    spec: ArraySpec,
    env: dict[str, int],
    strict_dtype: bool,
) -> None:
    if np.ndim(value) == 0:
        # Scalars broadcast into any dimensioned parameter slot; a "()"
        # spec accepts exactly these, so 0-d always passes the shape check.
        return
    arr = np.asarray(value)
    if arr.ndim != len(spec.dims):
        raise ContractViolationError(
            f"{contract.name}: {where} has shape {arr.shape}, declared "
            f"{spec.render()}"
        )
    for axis, dim in enumerate(spec.dims):
        _bind_dim(contract, f"{where} axis {axis}", dim, int(arr.shape[axis]), env)
    if strict_dtype and arr.dtype != np.dtype(spec.dtype):
        raise ContractViolationError(
            f"{contract.name}: {where} has dtype {arr.dtype}, declared "
            f"{spec.dtype}"
        )


def _check_call(
    contract: KernelContract,
    bound: inspect.BoundArguments,
    env: dict[str, int],
) -> None:
    for name, spec in contract.params:
        if name not in bound.arguments:
            continue
        value = bound.arguments[name]
        _check_array(
            contract,
            f"parameter {name!r}",
            value,
            spec,
            env,
            strict_dtype=isinstance(value, np.ndarray),
        )


def _check_returns(contract: KernelContract, result: Any, env: dict[str, int]) -> None:
    specs = contract.returns
    if specs is None:
        return
    values: tuple[Any, ...]
    if len(specs) == 1:
        values = (result,)
    else:
        if not isinstance(result, tuple) or len(result) != len(specs):
            raise ContractViolationError(
                f"{contract.name}: returned "
                f"{len(result) if isinstance(result, tuple) else 1} value(s), "
                f"declared {len(specs)}"
            )
        values = result
    for index, (value, spec) in enumerate(zip(values, specs)):
        _check_array(
            contract, f"return[{index}]", value, spec, env, strict_dtype=True
        )


_F = TypeVar("_F", bound=Callable[..., Any])


def kernel_contract(
    returns: str | tuple[str, ...] | None = None, **param_specs: str
) -> Callable[[_F], _F]:
    """Declare a kernel's array contract; enforce it when contracts are on.

    Keyword arguments name the kernel's array parameters and give their
    specs; ``returns`` gives the return spec(s) — a single string for one
    array, a tuple for a tuple of arrays, ``None`` for kernels that return
    no array (in-place updates).  Parameters not named are not part of the
    array contract (RNG sequences, config objects, plain scalars).

    The parsed contract is attached as ``__kernel_contract__`` and the
    wrapper short-circuits to the kernel when enforcement is off, so the
    decorator costs one attribute load per call in normal runs.
    """
    parsed_returns: tuple[ArraySpec, ...] | None
    if returns is None:
        parsed_returns = None
    elif isinstance(returns, str):
        parsed_returns = (parse_spec(returns),)
    else:
        parsed_returns = tuple(parse_spec(spec) for spec in returns)
    parsed_params = tuple(
        (name, parse_spec(spec)) for name, spec in param_specs.items()
    )

    def decorate(fn: _F) -> _F:
        signature = inspect.signature(fn)
        unknown = [
            name for name, _ in parsed_params if name not in signature.parameters
        ]
        if unknown:
            raise ValueError(
                f"kernel_contract on {fn.__qualname__}: no such parameter(s) "
                f"{', '.join(unknown)}"
            )
        contract = KernelContract(
            name=fn.__qualname__, params=parsed_params, returns=parsed_returns
        )

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _STATE.enabled:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            env: dict[str, int] = {}
            _check_call(contract, bound, env)
            result = fn(*args, **kwargs)
            _check_returns(contract, result, env)
            return result

        wrapper.__kernel_contract__ = contract  # type: ignore[attr-defined]
        return cast(_F, wrapper)

    return decorate
