"""The structural invariants of ``src/repro``, as tier-1 tests.

Each episode is a deterministic function of ``(SEOConfig, episode)``,
computed once per decision by a declared batch kernel.  Three AST rules
pin what no behaviour test sees until the reports drift:

* :func:`parity` (REPRO101): a public scalar method is a view of its
  ``*_batch`` kernel, never a second implementation;
* :func:`determinism` (REPRO201-204): no hidden entropy and no wall clock
  on the episode path;
* :func:`declarations` (REPRO502-503): the kernel layer stays in the
  float64/int64/bool dtypes and every public kernel declares its
  ``@kernel_contract``.

A rule maps a parsed module to findings ``(line, code, name, message)``.
Its tree test walks the files of ``src/repro`` in the rule's scope and
fails with one ``path:line: CODE message`` line per finding that
:data:`ALLOWED` does not sanction.  The fixtures under
``tests/invariant_fixtures`` and in-memory mutants of the real tree show
that each rule fires, so none of these tests passes vacuously.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "invariant_fixtures"

Finding = tuple[int, str, str, str]
Rule = Callable[[ast.Module], list[Finding]]

#: Package-relative scopes: a directory prefix (``core/``) or one file.
PARITY_SCOPE = (
    "core/", "control/", "perception/", "sim/road.py", "sim/world.py", "sim/observation.py",
)
DETERMINISM_SCOPE = (
    "core/", "runtime/", "sim/", "control/", "comm/", "perception/", "streams.py",
)
DECLARATIONS_SCOPE = (
    "control/", "core/", "perception/", "dynamics/",
    "sim/road.py", "sim/world.py", "sim/observation.py", "runtime/batch.py",
)

#: Sanctioned findings per rule, ``(path, code, name)``: keyed by name, not
#: line, so edits elsewhere in the file keep them.  An entry that matches
#: no finding fails its rule's test, so no exception outlives its site.
ALLOWED: dict[str, set[tuple[str, str, str]]] = {
    # run_batch returns episode reports, not arrays: no contract to declare.
    "declarations": {("runtime/batch.py", "REPRO503", "run_batch")},
}


# ----------------------------------------------------------------------
# REPRO101: kernel parity
# ----------------------------------------------------------------------

def _closure(start: str, graph: dict[str, set[str]]) -> set[str]:
    """Transitive same-class reference closure, including ``start`` itself."""
    seen = {start}
    frontier = [start]
    while frontier:
        for neighbour in graph[frontier.pop()] - seen:
            seen.add(neighbour)
            frontier.append(neighbour)
    return seen


def parity(tree: ast.Module) -> list[Finding]:
    """Every public ``<base>`` / ``<base>_*`` method shares code with ``<base>_batch``.

    "Shares" means the transitive closures of same-class ``self.X`` /
    ``cls.X`` references of the two methods intersect: a scalar that
    delegates to the kernel, a batch fallback that loops over the scalar
    and a common private helper all pass.
    """
    findings: list[Finding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef)
        }
        graph = {
            name: {
                node.attr
                for node in ast.walk(method)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and node.attr in methods
            }
            for name, method in methods.items()
        }
        for batch_name in methods:
            if batch_name.startswith("_") or not batch_name.endswith("_batch"):
                continue
            base = batch_name.removesuffix("_batch")
            batch_closure = _closure(batch_name, graph)
            for name, method in methods.items():
                if name.startswith("_") or name.endswith("_batch"):
                    continue
                if name != base and not name.startswith(base + "_"):
                    continue
                if _closure(name, graph) & batch_closure:
                    continue
                findings.append((
                    method.lineno,
                    "REPRO101",
                    f"{cls.name}.{name}",
                    f"{cls.name}.{name} does not share an implementation with "
                    f"{cls.name}.{batch_name}; scalar facades must be views of "
                    "the batch kernel",
                ))
    return findings


# ----------------------------------------------------------------------
# REPRO201-204: determinism
# ----------------------------------------------------------------------

#: np.random callables that take an explicit seed; the rest of np.random
#: is the legacy global-state API.
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "SFC64"}
)
_WALL_CLOCK_TIME_ATTRS = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today", "fromtimestamp"})
_STDLIB_RANDOM = (
    "stdlib random is process-global and unseedable per episode; "
    "use np.random.default_rng(seed)"
)
_WALL_CLOCK = "results must not depend on when they were computed"


def _attr_chain(node: ast.expr) -> list[str]:
    """``np.random.default_rng`` -> ``["np", "random", "default_rng"]``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def determinism(tree: ast.Module) -> list[Finding]:
    """No stdlib ``random``, unseeded or legacy numpy RNG, or wall-clock read.

    The only sanctioned entropy is ``np.random.default_rng(seed)`` threaded
    down from the episode index; the only sanctioned clock is simulation
    time.  Methods on an explicit generator (``rng.random()``) are fine.
    """
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    findings.append((node.lineno, "REPRO201", alias.name, _STDLIB_RANDOM))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                findings.append((node.lineno, "REPRO201", "random", _STDLIB_RANDOM))
            elif node.module == "time":
                clocks = [a.name for a in node.names if a.name in _WALL_CLOCK_TIME_ATTRS]
                if clocks:
                    findings.append((
                        node.lineno,
                        "REPRO204",
                        ", ".join(clocks),
                        f"wall-clock import ({', '.join(clocks)}): {_WALL_CLOCK}",
                    ))
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            name = ".".join(chain)
            if not chain:
                continue
            if chain[0] == "random" and len(chain) >= 2:
                findings.append((
                    node.lineno,
                    "REPRO201",
                    name,
                    f"{name} draws from the hidden process-global stream; "
                    "use np.random.default_rng(seed)",
                ))
            elif len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
                attr = chain[2]
                if attr == "default_rng":
                    if not node.args and not node.keywords:
                        findings.append((
                            node.lineno,
                            "REPRO202",
                            name,
                            "np.random.default_rng() without a seed pulls OS "
                            "entropy; thread the episode seed through",
                        ))
                elif attr not in _NP_RANDOM_CONSTRUCTORS:
                    findings.append((
                        node.lineno,
                        "REPRO203",
                        name,
                        f"legacy np.random.{attr} uses the hidden global "
                        "stream; use an explicit np.random.default_rng(seed)",
                    ))
            elif chain[0] == "time" and len(chain) == 2 and chain[1] in _WALL_CLOCK_TIME_ATTRS:
                findings.append((
                    node.lineno, "REPRO204", name, f"{name}() reads the wall clock; {_WALL_CLOCK}"
                ))
            elif (
                chain[-1] in _WALL_CLOCK_DATETIME_ATTRS
                and len(chain) >= 2
                and ("datetime" in chain[:-1] or "date" in chain[:-1])
            ):
                findings.append((
                    node.lineno, "REPRO204", name, f"{name}() reads the wall clock; {_WALL_CLOCK}"
                ))
    return findings


# ----------------------------------------------------------------------
# REPRO502-503: kernel declarations
# ----------------------------------------------------------------------

#: Narrowing / widening dtypes that break serial-batch bit-exactness.
_DENIED_DTYPES = frozenset(
    {
        "float32", "float16", "half", "single", "longdouble", "longfloat",
        "int32", "int16", "intc", "short", "uint8", "uint16", "uint32",
        "uint64", "complex64", "complex128", "csingle", "cdouble",
    }
)


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


def declarations(tree: ast.Module) -> list[Finding]:
    """No narrowing dtype anywhere; a ``@kernel_contract`` on every public kernel.

    REPRO502: a dtype outside float64/int64/bool narrows serial and batch
    alike, so every parity test passes while the reports drift.  REPRO503:
    a public ``*_batch`` / ``*_kernel`` function without a contract is one
    the runtime twin (:mod:`repro.contracts`) never checks; it is reported
    at its first decorator line.
    """
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.expr):
            denied = _denied_dtype(node)
            if denied is not None:
                findings.append((
                    node.lineno,
                    "REPRO502",
                    denied,
                    f"dtype drift: {denied} in the kernel layer (kernels stay "
                    "in float64/int64/bool)",
                ))
        elif (
            isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
            and not node.name.startswith("_")
            and node.name.endswith(("_batch", "_kernel"))
            and not any(_is_contract(dec) for dec in node.decorator_list)
        ):
            findings.append((
                min([node.lineno, *(dec.lineno for dec in node.decorator_list)]),
                "REPRO503",
                node.name,
                f"public batch kernel {node.name!r} lacks a @kernel_contract declaration",
            ))
    return findings


# ----------------------------------------------------------------------
# Walking the tree
# ----------------------------------------------------------------------

def in_scope(relpath: str, scope: tuple[str, ...]) -> bool:
    return relpath.startswith(scope)


def scan(rule: Rule, scope: tuple[str, ...], root: Path = SRC) -> Iterator[tuple[str, Finding]]:
    """``(path, finding)`` per finding of ``rule`` in the files of ``scope`` under ``root``."""
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        if in_scope(relpath, scope):
            for finding in sorted(rule(ast.parse(path.read_text(), str(path)))):
                yield relpath, finding


def violations(rule: Rule, scope: tuple[str, ...], root: Path = SRC) -> list[str]:
    """``path:line: CODE message`` per finding that :data:`ALLOWED` does not sanction.

    Paths are relative to ``root``.  An allow-list entry of the rule that
    matched no finding is reported too.
    """
    allowed = ALLOWED.get(rule.__name__, set())
    unused = set(allowed)
    lines = []
    for relpath, (line, code, name, message) in scan(rule, scope, root):
        if (relpath, code, name) in allowed:
            unused.discard((relpath, code, name))
        else:
            lines.append(f"{relpath}:{line}: {code} {message}")
    lines += [
        f"{relpath}: {code} allow-list entry {name!r} matches no finding"
        for relpath, code, name in sorted(unused)
    ]
    return lines


def assert_holds(rule: Rule, scope: tuple[str, ...]) -> None:
    found = violations(rule, scope)
    assert not found, "\n" + "\n".join(found)


def test_parity_holds_on_the_tree():
    assert_holds(parity, PARITY_SCOPE)


def test_determinism_holds_on_the_tree():
    assert_holds(determinism, DETERMINISM_SCOPE)


def test_declarations_hold_on_the_tree():
    assert_holds(declarations, DECLARATIONS_SCOPE)


def test_every_scope_entry_names_a_file_or_directory_of_the_package():
    for entry in {*PARITY_SCOPE, *DETERMINISM_SCOPE, *DECLARATIONS_SCOPE}:
        target = SRC / entry
        assert target.is_dir() if entry.endswith("/") else target.is_file(), entry


def test_parity_scope_covers_decision_and_perception_layers_only():
    for relpath in (
        "core/lookup.py", "control/heuristic.py", "sim/road.py", "sim/world.py",
        "perception/detector.py", "perception/detections.py", "sim/observation.py",
    ):
        assert in_scope(relpath, PARITY_SCOPE), relpath
    for relpath in ("sim/obstacles.py", "runtime/sweep.py"):
        assert not in_scope(relpath, PARITY_SCOPE), relpath


def test_determinism_scope():
    for relpath in (
        "core/shield.py", "runtime/sweep.py", "sim/world.py", "control/heuristic.py",
        "comm/offload.py", "perception/detector.py", "streams.py",
    ):
        assert in_scope(relpath, DETERMINISM_SCOPE), relpath
    for relpath in ("experiments/fig6.py", "analysis/tables.py", "contracts.py", "cli.py"):
        assert not in_scope(relpath, DETERMINISM_SCOPE), relpath


def test_declarations_scope_is_the_kernel_layer():
    for relpath in (
        "core/lookup.py", "control/pure_pursuit.py", "perception/detector.py",
        "dynamics/bicycle.py", "sim/road.py", "sim/world.py", "sim/observation.py",
        "runtime/batch.py",
    ):
        assert in_scope(relpath, DECLARATIONS_SCOPE), relpath
    for relpath in ("runtime/engine.py", "sim/scenario.py", "cli.py"):
        assert not in_scope(relpath, DECLARATIONS_SCOPE), relpath


def test_the_one_sanctioned_finding_is_run_batch():
    """Without the allow-list, the tree's only finding is ``run_batch``'s REPRO503."""
    found = [
        (relpath, code, name, message)
        for rule, scope in (
            (parity, PARITY_SCOPE),
            (determinism, DETERMINISM_SCOPE),
            (declarations, DECLARATIONS_SCOPE),
        )
        for relpath, (_, code, name, message) in scan(rule, scope)
    ]
    assert found == [(
        "runtime/batch.py",
        "REPRO503",
        "run_batch",
        "public batch kernel 'run_batch' lacks a @kernel_contract declaration",
    )]


def test_an_unused_allow_list_entry_fails_its_rules_test(monkeypatch):
    stale = ("core/safety.py", "REPRO503", "evaluate_batch")
    monkeypatch.setitem(ALLOWED, "declarations", ALLOWED["declarations"] | {stale})
    assert violations(declarations, DECLARATIONS_SCOPE) == [
        "core/safety.py: REPRO503 allow-list entry 'evaluate_batch' matches no finding"
    ]
    # An entry filed under the wrong rule matches nothing there either.
    monkeypatch.setitem(ALLOWED, "determinism", {stale})
    assert violations(determinism, DETERMINISM_SCOPE) == [
        "core/safety.py: REPRO503 allow-list entry 'evaluate_batch' matches no finding"
    ]


def write_tree(root: Path, relpath: str, fixture: str) -> None:
    (root / relpath).parent.mkdir(parents=True, exist_ok=True)
    (root / relpath).write_text((FIXTURES / fixture).read_text())


def test_violations_render_path_line_code_message(tmp_path, monkeypatch):
    monkeypatch.setitem(ALLOWED, "declarations", set())
    write_tree(tmp_path, "core/declarations_bad.py", "declarations_bad.py")
    assert violations(declarations, DECLARATIONS_SCOPE, tmp_path) == [
        "core/declarations_bad.py:13: REPRO502 dtype drift: np.uint8 in the kernel "
        "layer (kernels stay in float64/int64/bool)",
        "core/declarations_bad.py:18: REPRO502 dtype drift: 'float32' in the kernel "
        "layer (kernels stay in float64/int64/bool)",
        "core/declarations_bad.py:21: REPRO503 public batch kernel 'unsigned_kernel' "
        "lacks a @kernel_contract declaration",
        "core/declarations_bad.py:26: REPRO503 public batch kernel 'double_batch' "
        "lacks a @kernel_contract declaration",
    ]


def test_violations_skip_files_out_of_scope(tmp_path, monkeypatch):
    monkeypatch.setitem(ALLOWED, "declarations", set())
    write_tree(tmp_path, "analysis/declarations_bad.py", "declarations_bad.py")
    write_tree(tmp_path, "sim/obstacles.py", "parity_bad.py")
    assert violations(declarations, DECLARATIONS_SCOPE, tmp_path) == []
    assert violations(parity, PARITY_SCOPE, tmp_path) == []
    write_tree(tmp_path, "sim/road.py", "parity_bad.py")
    assert [line.split(" ")[0] for line in violations(parity, PARITY_SCOPE, tmp_path)] == [
        "sim/road.py:9:"
    ]


# ----------------------------------------------------------------------
# Each rule fires: fixtures
# ----------------------------------------------------------------------

def on_fixture(rule: Rule, name: str) -> list[Finding]:
    return sorted(rule(ast.parse((FIXTURES / name).read_text())))


def lines_and_codes(findings: list[Finding]) -> list[tuple[int, str]]:
    return [(line, code) for line, code, _, _ in findings]


@pytest.mark.parametrize(
    ("rule", "fixture"),
    [
        (parity, "parity_ok.py"),
        (parity, "parity_perception_ok.py"),
        (determinism, "determinism_ok.py"),
        (declarations, "declarations_ok.py"),
    ],
    ids=["parity", "parity_perception", "determinism", "declarations"],
)
def test_clean_fixture_passes(rule, fixture):
    assert on_fixture(rule, fixture) == []


def test_parity_flags_reimplemented_scalar_facade():
    [(line, code, name, message)] = on_fixture(parity, "parity_bad.py")
    assert (line, code, name) == (9, "REPRO101", "DriftingFacade.query")
    assert "DriftingFacade.query" in message
    assert "query_batch" in message


def test_parity_flags_reimplemented_perception_facade():
    [(line, code, name, message)] = on_fixture(parity, "parity_perception_bad.py")
    assert (line, code, name) == (9, "REPRO101", "DriftingDetector.detect")
    assert "detect_batch" in message


def test_determinism_flags_each_entropy_and_clock_source():
    findings = on_fixture(determinism, "determinism_bad.py")
    assert lines_and_codes(findings) == [
        (5, "REPRO201"),
        (11, "REPRO202"),
        (12, "REPRO203"),
        (13, "REPRO201"),
        (20, "REPRO204"),
        (21, "REPRO204"),
    ]
    by_code = {code: message for _, code, _, message in findings}
    assert "default_rng" in by_code["REPRO202"]
    assert "np.random.uniform" in by_code["REPRO203"]
    assert "wall clock" in by_code["REPRO204"]


def test_declarations_bad_fixture_fires_each_code():
    findings = on_fixture(declarations, "declarations_bad.py")
    # The decorated def is reported at its decorator line (26), not at 27.
    assert lines_and_codes(findings) == [
        (13, "REPRO502"),
        (18, "REPRO502"),
        (21, "REPRO503"),
        (26, "REPRO503"),
    ]
    messages = [message for _, _, _, message in findings]
    assert "np.uint8" in messages[0]
    assert "'float32'" in messages[1]
    assert "'unsigned_kernel' lacks a @kernel_contract" in messages[2]
    assert "'double_batch' lacks a @kernel_contract" in messages[3]


# ----------------------------------------------------------------------
# Each rule fires: mutants of the real tree, in memory
# ----------------------------------------------------------------------

def mutate(rule: Rule, relpath: str, old: str, new: str) -> list[Finding]:
    """What ``rule`` finds in ``relpath`` once the first ``old`` becomes ``new``."""
    source = (SRC / relpath).read_text()
    assert rule(ast.parse(source)) == []
    mutated = source.replace(old, new, 1)
    assert mutated != source, f"mutation pattern not found in {relpath}"
    return rule(ast.parse(mutated))


@pytest.mark.parametrize(
    ("relpath", "old", "new", "facade"),
    [
        ("sim/world.py", "self.status_batch(", "_other_status_kernel(", "World.status"),
        (
            "perception/detector.py",
            "self.detect_batch(",
            "_other_detect_kernel(",
            "DetectorModel.detect",
        ),
        ("core/lookup.py", "self.query_batch(", "self.recompute(", "DeadlineLookupTable.query"),
    ],
    ids=["world_status", "detector_detect", "lookup_query"],
)
def test_parity_fires_on_a_facade_severed_from_its_kernel(relpath, old, new, facade):
    [(_, code, name, _)] = mutate(parity, relpath, old, new)
    assert (code, name) == ("REPRO101", facade)


@pytest.mark.parametrize(
    ("relpath", "old", "new", "code"),
    [
        ("sim/obstacles.py", "rng.uniform(", "np.random.uniform(", "REPRO203"),
        (
            "comm/channel.py",
            "return float(self.scale_mbps * np.sqrt(np.pi / 2.0) * 1e6)",
            "return float(np.random.default_rng().rayleigh(self.scale_mbps) * 1e6)",
            "REPRO202",
        ),
        ("streams.py", "import numpy as np\n", "import random\n\nimport numpy as np\n", "REPRO201"),
        (
            "perception/detections.py",
            "key=lambda det: det.distance_m)",
            "key=lambda det: det.distance_m + 0.0 * time.time())",
            "REPRO204",
        ),
    ],
    ids=["obstacles_legacy_uniform", "channel_unseeded_rng", "streams_stdlib_random",
         "detections_wall_clock"],
)
def test_determinism_fires_on_hidden_entropy_in_the_tree(relpath, old, new, code):
    assert [found for _, found, _, _ in mutate(determinism, relpath, old, new)] == [code]


def test_declarations_fire_on_a_narrowed_real_kernel():
    [(_, code, name, _)] = mutate(
        declarations, "control/heuristic.py", "dtype=float)", "dtype=np.float32)"
    )
    assert (code, name) == ("REPRO502", "np.float32")


def test_declarations_fire_on_a_real_kernel_stripped_of_its_contract():
    decorator = (
        "    @kernel_contract(\n"
        '        distances_m="(N,) float64",\n'
        '        bearings_rad="(N,) float64",\n'
        '        speeds_mps="(N,) float64",\n'
        '        returns="(N,) float64",\n'
        "    )\n"
        "    def evaluate_batch(\n"
    )
    [(_, code, name, _)] = mutate(
        declarations, "core/safety.py", decorator, "    def evaluate_batch(\n"
    )
    assert (code, name) == ("REPRO503", "evaluate_batch")
