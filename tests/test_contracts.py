"""Tests for the runtime kernel-contract twin (:mod:`repro.contracts`).

The spec grammar and decorator semantics get direct unit coverage.  The
end-to-end guarantee — every registered scenario family, and on one
family every optimization mode, both controllers, the exact-estimator
and the safety-unaware deadline, runs in lockstep *and* one episode per
call under enforcement without a single violation, each row still
bit-exact — checks the declarations on the kernel paths those runs
execute, at N = 1 and N > 1.
The mutation tests replay, on the real kernels, the shape bugs a static
dataflow pass used to look for, and show that they fail at run time.
"""

from __future__ import annotations

import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.contracts import (
    ArraySpec,
    ContractViolationError,
    contracts_enabled,
    enforced_contracts,
    kernel_contract,
    parse_spec,
    set_contracts_enabled,
)
from repro.core.framework import SEOConfig, SEOFramework
from repro.core.safety import SafetyInputs
from repro.dynamics.state import ControlAction
from repro.runtime.batch import run_batch
from repro.sim.scenario import DEFAULT_SUITE
from repro.sim.world import World


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------

def test_parse_spec_defaults_to_float64():
    spec = parse_spec("(N,)")
    assert spec == ArraySpec(dims=("N",), dtype="float64")


def test_parse_spec_explicit_dtype_and_literal_dims():
    assert parse_spec("(N, M) int64") == ArraySpec(dims=("N", "M"), dtype="int64")
    assert parse_spec("(N, K) bool") == ArraySpec(dims=("N", "K"), dtype="bool")
    # Every dim is a symbol: a literal size is refused.
    with pytest.raises(ValueError, match="dim '3' is not a symbol"):
        parse_spec("(N, 3) int64")


def test_parse_spec_scaled_symbol():
    # A multiple of a symbol is no dim either.
    with pytest.raises(ValueError, match="dim '2\\*G' is not a symbol"):
        parse_spec("(2*G,) float64")


def test_parse_spec_zero_dim_scalar():
    assert parse_spec("()") == ArraySpec(dims=(), dtype="float64")


def test_parse_spec_render_round_trips():
    for text in ["(N,) float64", "(N, K) bool", "(G,) int64", "()"]:
        assert parse_spec(parse_spec(text).render()) == parse_spec(text)


@pytest.mark.parametrize(
    "bad",
    [
        "N float64",  # missing parens
        "(N,) float32",  # dtype outside the kernel vocabulary
        "(N,) int8",  # no narrow integer dtype
        "(0,)",  # dims are symbols, not literals
        "(n,)",  # symbols are capitalized
        "(N*2,)",  # no scaled symbols
        "(N,) float64 extra",
    ],
)
def test_parse_spec_rejects_bad_grammar(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


# ----------------------------------------------------------------------
# Decorator semantics
# ----------------------------------------------------------------------

def test_contract_rejects_unknown_parameter_at_decoration_time():
    with pytest.raises(ValueError, match="no such parameter"):
        @kernel_contract(nope="(N,) float64")
        def f_batch(xs):
            return xs


def test_contract_is_free_when_disabled():
    @kernel_contract(xs="(N,) float64", returns="(N,) float64")
    def bad_batch(xs):
        return np.asarray(xs, dtype=np.float32)  # violates when enforced

    with enforced_contracts(False):
        out = bad_batch([1.0, 2.0])
    assert out.dtype == np.float32


def test_contract_attaches_parsed_declaration():
    @kernel_contract(xs="(N,) float64", returns="(N,) bool")
    def flag_batch(xs):
        return np.asarray(xs, dtype=float) > 0

    contract = flag_batch.__kernel_contract__
    assert dict(contract.params)["xs"].dims == ("N",)
    assert contract.returns[0].dtype == "bool"


def test_enforced_contracts_restores_previous_state():
    baseline = contracts_enabled()
    with enforced_contracts():
        assert contracts_enabled()
        with enforced_contracts(False):
            assert not contracts_enabled()
        assert contracts_enabled()
    assert contracts_enabled() == baseline


def test_set_contracts_enabled_returns_previous():
    baseline = contracts_enabled()
    previous = set_contracts_enabled(True)
    try:
        assert previous is baseline
        assert contracts_enabled()
    finally:
        set_contracts_enabled(previous)
    assert contracts_enabled() == baseline


# ----------------------------------------------------------------------
# Runtime enforcement
# ----------------------------------------------------------------------

@kernel_contract(xs="(N,) float64", ys="(N,) float64", returns="(N,) float64")
def add_batch(xs, ys):
    return np.asarray(xs, dtype=float) + np.asarray(ys, dtype=float)


def test_enforced_pass_through_on_conforming_call():
    with enforced_contracts():
        out = add_batch(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert out.tolist() == [4.0, 6.0]


def test_enforced_rejects_rank_mismatch():
    with enforced_contracts(), pytest.raises(ContractViolationError, match="shape"):
        add_batch(np.zeros((2, 2)), np.zeros(2))


def test_enforced_rejects_symbol_conflict_across_parameters():
    with enforced_contracts(), pytest.raises(ContractViolationError, match="binds"):
        add_batch(np.zeros(2), np.zeros(3))


def test_enforced_rejects_ndarray_dtype_drift():
    with enforced_contracts(), pytest.raises(ContractViolationError, match="dtype"):
        add_batch(np.zeros(2, dtype=np.float32), np.zeros(2))


def test_scalar_inputs_are_lenient_by_design():
    """0-d values broadcast into dimensioned slots (documented leniency)."""
    with enforced_contracts():
        out = add_batch(np.array([1.0, 2.0]), 1.0)
    assert out.tolist() == [2.0, 3.0]


def test_list_inputs_are_shape_checked_but_not_dtype_checked():
    with enforced_contracts():
        out = add_batch([1, 2], np.array([1.0, 1.0]))
        assert out.tolist() == [2.0, 3.0]
        with pytest.raises(ContractViolationError, match="shape"):
            add_batch([[1.0], [2.0]], np.array([1.0, 1.0]))


def test_returned_arrays_are_always_strict():
    @kernel_contract(xs="(N,) float64", returns="(N,) float64")
    def narrow_batch(xs):
        return np.asarray(xs, dtype=np.float32)

    with enforced_contracts(), pytest.raises(ContractViolationError, match="dtype"):
        narrow_batch(np.zeros(3))


def test_return_count_mismatch_is_a_violation():
    @kernel_contract(xs="(N,) float64", returns=("(N,) float64", "(N,) bool"))
    def lonely_batch(xs):
        return np.asarray(xs, dtype=float)

    with enforced_contracts(), pytest.raises(ContractViolationError, match="value"):
        lonely_batch(np.zeros(3))


def test_return_shape_binds_against_parameter_symbols():
    @kernel_contract(xs="(N,) float64", returns="(N,) float64")
    def grow_batch(xs):
        return np.concatenate([np.asarray(xs, dtype=float), [0.0]])

    with enforced_contracts(), pytest.raises(ContractViolationError, match="binds"):
        grow_batch(np.zeros(3))


# ----------------------------------------------------------------------
# The one switch: REPRO_RUNTIME_CONTRACTS, read at import
# ----------------------------------------------------------------------

_SWITCH_PROBE = """
import json
from concurrent.futures import ProcessPoolExecutor
import multiprocessing

import numpy as np

from repro.contracts import ContractViolationError, contracts_enabled
from repro.core.safety import BrakingDistanceBarrier

misfed = np.full(3, 10.0, dtype=np.float32)
try:
    BrakingDistanceBarrier().evaluate_batch(misfed, np.zeros(3), np.full(3, 8.0))
    violation = False
except ContractViolationError:
    violation = True
workers = {}
for method in ("fork", "spawn"):
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        workers[method] = pool.submit(contracts_enabled).result()
print(json.dumps({"enabled": contracts_enabled(), "violation": violation, **workers}))
"""


@pytest.mark.parametrize("value", ["1", None, "", "0"])
def test_environment_variable_switches_contracts_in_process_and_workers(value):
    """A fresh interpreter reads ``REPRO_RUNTIME_CONTRACTS`` on import: "1"
    enforces contracts in the process and in forked and spawned pool
    workers; unset, "" and "0" leave enforcement off everywhere."""
    import json
    import os
    import subprocess

    import repro

    env = dict(os.environ)
    env.pop("REPRO_RUNTIME_CONTRACTS", None)
    if value is not None:
        env["REPRO_RUNTIME_CONTRACTS"] = value
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (src_dir, env.get("PYTHONPATH")) if entry
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SWITCH_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    enabled = value == "1"
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "enabled": enabled,
        "violation": enabled,
        "fork": enabled,
        "spawn": enabled,
    }


# ----------------------------------------------------------------------
# The real kernel layer under enforcement: every registered family runs
# in lockstep and one episode per call with contracts on, still bit-exact,
# zero violations.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family_name", DEFAULT_SUITE.names())
def test_suite_families_run_clean_under_runtime_contracts(family_name):
    family = DEFAULT_SUITE.get(family_name)
    config = SEOConfig(scenario=family.base, max_steps=150)
    with enforced_contracts():
        framework = SEOFramework(config)
        batch = run_batch(framework, range(2))
        alone = [run_batch(framework, [episode])[0] for episode in range(2)]
    assert batch == alone


@pytest.mark.parametrize(
    "overrides",
    [
        {"optimization": "none"},
        {"optimization": "model_gating"},
        {"optimization": "sensor_gating"},
        {"controller": "pure_pursuit"},
        {"use_lookup_table": False},
        {"safety_aware": False},
    ],
    ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
)
def test_config_variants_run_clean_under_runtime_contracts(overrides):
    """The kernels only the non-default modes reach are checked too."""
    family = DEFAULT_SUITE.get("obstacle-course")
    config = SEOConfig(scenario=family.base, max_steps=100, **overrides)
    with enforced_contracts():
        framework = SEOFramework(config)
        batch = run_batch(framework, range(2))
        alone = [run_batch(framework, [episode])[0] for episode in range(2)]
    assert batch == alone


# ----------------------------------------------------------------------
# Real-tree mutations: each breaks one kernel's array interface in a
# fresh copy of its module and must fail when the kernel runs.
# ----------------------------------------------------------------------

def mutant(monkeypatch, name: str, old: str, new: str) -> types.ModuleType:
    """A fresh copy of module ``name`` with one textual mutation applied."""
    spec = importlib.util.find_spec(name)
    assert spec is not None and spec.origin is not None
    source = Path(spec.origin).read_text()
    mutated = source.replace(old, new, 1)
    assert mutated != source, f"mutation pattern not found in {name}"
    module = types.ModuleType(f"{name}_mutant")
    # dataclasses resolve string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(mutated, spec.origin, "exec"), module.__dict__)
    return module


def test_mutation_real_world_broadcast_breaks_the_batch_kernel(monkeypatch):
    """Dropping ``[:, None]`` keeps N = 1 right and breaks N > 1."""
    world = mutant(
        monkeypatch, "repro.sim.world", "dx = obs_x - xs[:, None]", "dx = obs_x - xs"
    )
    rng = np.random.default_rng(0)
    xs, ys, hs = rng.normal(size=(3, 3))
    obs = rng.normal(size=(3, 3, 3)) + np.array([20.0, 0.0, 1.0])[:, None, None]
    valid = np.ones((3, 3), dtype=bool)
    real = World.nearest_obstacle_view_batch(xs, ys, hs, *obs, valid)
    broken = world.World.nearest_obstacle_view_batch(xs, ys, hs, *obs, valid)
    assert not all(np.array_equal(a, b) for a, b in zip(real, broken, strict=True))
    single = world.World.nearest_obstacle_view_batch(
        xs[:1], ys[:1], hs[:1], *obs[:, :1], valid[:1]
    )
    assert all(np.array_equal(a[:1], b) for a, b in zip(real, single, strict=True))
    with pytest.raises(ValueError, match="broadcast"):
        world.World.nearest_obstacle_view_batch(
            xs[:2], ys[:2], hs[:2], *obs[:, :2], valid[:2]
        )


def test_mutation_real_safety_return_shape_fails_under_runtime_contracts(monkeypatch):
    safety = mutant(
        monkeypatch,
        "repro.core.safety",
        "return np.where(present, distances - required, distances)",
        "return np.where(present, distances - required, distances)[:, None]",
    )
    barrier = safety.BrakingDistanceBarrier()
    args = (np.full(3, 10.0), np.zeros(3), np.full(3, 8.0))
    assert barrier.evaluate_batch(*args).shape == (3, 1)
    with enforced_contracts(), pytest.raises(ContractViolationError, match="shape"):
        barrier.evaluate_batch(*args)


def test_mutation_real_lookup_facade_fails_under_runtime_contracts(monkeypatch):
    lookup = mutant(
        monkeypatch,
        "repro.core.lookup",
        "np.array([inputs.distance_m]",
        "np.array([inputs.distance_m, 0.0]",
    )
    grid = lookup.LookupGrid()
    shape = (
        grid.distance_values().size,
        grid.num_bearings,
        grid.speed_values().size,
        grid.steering_values().size,
        grid.throttle_values().size,
    )
    table = lookup.DeadlineLookupTable(grid, np.ones(shape), horizon_s=1.0)
    inputs = SafetyInputs(distance_m=10.0, bearing_rad=0.0, speed_mps=5.0)
    with enforced_contracts(), pytest.raises(ContractViolationError, match="binds"):
        table.query(inputs, ControlAction(steering=0.0, throttle=0.0))
