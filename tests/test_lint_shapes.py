"""Tests for the array-contracts checker (REPRO501–505).

Fixture tests pin (line, code) pairs on purpose-built sources; mutation
tests break the *real* tree in memory and prove each code is live; the
span-suppression tests cover the pragma-anywhere-in-statement rule the
checker leans on for its two sanctioned exceptions in ``runtime/batch.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import cli
from repro.lint import CHECKERS, shapes
from repro.lint.arrays import dim_from_spec, format_shape, is_fresh, promote
from repro.lint.framework import (
    SourceFile,
    Violation,
    is_suppressed,
    load_source_file,
    package_relative,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def load_fixture(name: str, relpath: str) -> SourceFile:
    return load_source_file(FIXTURES / name, relpath=relpath)


def codes_by_line(violations) -> list[tuple[int, str]]:
    return sorted((v.line, v.code) for v in violations)


def mutate(path: Path, relpath: str, old: str, new: str) -> list[Violation]:
    """Apply a one-shot textual mutation and run the checker on the result."""
    source = path.read_text()
    clean = load_source_file(path, relpath=relpath)
    assert shapes.check_shapes([clean]) == [], "real file must start clean"
    mutated = source.replace(old, new, 1)
    assert mutated != source, f"mutation pattern not found in {relpath}"
    return shapes.check_shapes(
        [SourceFile(path, relpath, mutated, ast.parse(mutated))]
    )


def in_scope_sources() -> list[SourceFile]:
    files = []
    for path in sorted(SRC.rglob("*.py")):
        rel = package_relative(path)
        if shapes.in_scope(rel):
            files.append(load_source_file(path, relpath=rel))
    return files


# ----------------------------------------------------------------------
# Engine primitives
# ----------------------------------------------------------------------

def test_dim_spec_and_formatting_helpers():
    assert dim_from_spec(4) == 4
    assert dim_from_spec("N") == "N"
    assert dim_from_spec((2, "G")) == "2*G"
    assert format_shape(("N", 1)) == "(N, 1)"
    assert format_shape(("N",)) == "(N,)"
    assert format_shape(None) == "(?)"


def test_fresh_dims_are_anonymous_and_lenient():
    assert is_fresh("?1")
    assert not is_fresh("N")
    assert not is_fresh(3)


def test_dtype_promotion_lattice():
    assert promote("bool", "float64") == "float64"
    assert promote("int64", "bool") == "int64"
    assert promote("float64", None) is None
    assert promote(None, None) is None


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

def test_shapes_clean_fixture_passes():
    assert shapes.check_shapes([load_fixture("shapes_ok.py", "core/shapes_ok.py")]) == []


def test_shapes_bad_fixture_fires_every_code():
    violations = shapes.check_shapes(
        [load_fixture("shapes_bad.py", "core/shapes_bad.py")]
    )
    assert codes_by_line(violations) == [
        (18, "REPRO501"),
        (24, "REPRO502"),
        (27, "REPRO503"),
        (33, "REPRO503"),
        (40, "REPRO505"),
        (51, "REPRO504"),
    ]
    by_code = {v.code: v.message for v in violations}
    assert "(N, K) with (N,)" in by_code["REPRO501"]
    assert "np.float32" in by_code["REPRO502"]
    assert "inferred shape (N, 1)" in by_code["REPRO503"]
    assert "1-element view" in by_code["REPRO504"]
    assert "unsized RNG draw" in by_code["REPRO505"]


def test_shapes_scope_is_the_kernel_layer():
    assert shapes.in_scope("core/lookup.py")
    assert shapes.in_scope("control/pure_pursuit.py")
    assert shapes.in_scope("perception/detector.py")
    assert shapes.in_scope("dynamics/bicycle.py")
    assert shapes.in_scope("sim/road.py")
    assert shapes.in_scope("sim/world.py")
    assert shapes.in_scope("sim/observation.py")
    assert shapes.in_scope("runtime/batch.py")
    assert not shapes.in_scope("runtime/engine.py")
    assert not shapes.in_scope("sim/scenarios.py")
    assert not shapes.in_scope("cli.py")


def test_out_of_scope_fixture_is_ignored_by_run_lint(tmp_path):
    target = tmp_path / "repro" / "analysis"
    target.mkdir(parents=True)
    bad = (FIXTURES / "shapes_bad.py").read_text()
    (target / "shapes_bad.py").write_text(bad)
    violations = run_lint([tmp_path], CHECKERS, select=["array-contracts"])
    assert violations == []


# ----------------------------------------------------------------------
# Real-tree mutations: every code must be live against the actual kernels
# ----------------------------------------------------------------------

def test_mutation_real_world_broadcast_fires_501():
    """Dropping the ``[:, None]`` expansion must surface the (N, K)/(N,) clash."""
    violations = mutate(
        SRC / "sim" / "world.py",
        "sim/world.py",
        "dx = obs_x - xs[:, None]",
        "dx = obs_x - xs",
    )
    assert [v.code for v in violations] == ["REPRO501"]
    assert "(N, K) with (N,)" in violations[0].message
    assert "nearest_obstacle_view_batch" in violations[0].message


def test_mutation_real_heuristic_dtype_fires_502():
    violations = mutate(
        SRC / "control" / "heuristic.py",
        "control/heuristic.py",
        "dtype=float)",
        "dtype=np.float32)",
    )
    assert [v.code for v in violations] == ["REPRO502"]
    assert "np.float32" in violations[0].message


def test_mutation_real_safety_return_shape_fires_503():
    violations = mutate(
        SRC / "core" / "safety.py",
        "core/safety.py",
        "return np.where(present, distances - required, distances)",
        "return np.where(present, distances - required, distances)[:, None]",
    )
    assert [v.code for v in violations] == ["REPRO503"]
    assert "inferred shape (N, 1) contradicts declared (N,)" in violations[0].message


def test_mutation_real_safety_stripped_contract_fires_503():
    decorator = (
        "    @kernel_contract(\n"
        '        distances_m="(N,) float64",\n'
        '        bearings_rad="(N,) float64",\n'
        '        speeds_mps="(N,) float64",\n'
        '        returns="(N,) float64",\n'
        "    )\n"
        "    def evaluate_batch(\n"
    )
    violations = mutate(
        SRC / "core" / "safety.py",
        "core/safety.py",
        decorator,
        "    def evaluate_batch(\n",
    )
    assert [v.code for v in violations] == ["REPRO503"]
    assert "lacks a @kernel_contract declaration" in violations[0].message


def test_mutation_real_lookup_facade_fires_504():
    violations = mutate(
        SRC / "core" / "lookup.py",
        "core/lookup.py",
        "np.array([inputs.distance_m]",
        "np.array([inputs.distance_m, 0.0]",
    )
    assert [v.code for v in violations] == ["REPRO504"]
    assert "facade 'query'" in violations[0].message


def test_mutation_real_detector_rng_fires_505():
    violations = mutate(
        SRC / "perception" / "detector.py",
        "perception/detector.py",
        "keep[lo:hi] = rng.random(groups) >= self.miss_rate",
        "keep[lo:hi] = rng.random() >= self.miss_rate",
    )
    assert [v.code for v in violations] == ["REPRO505"]
    assert ".random()" in violations[0].message


# ----------------------------------------------------------------------
# Real tree + pragma-span suppression (the run_batch exception)
# ----------------------------------------------------------------------

def test_real_tree_presuppression_finding_is_exactly_the_pragmad_site():
    """Pre-suppression the checker flags only the sanctioned run_batch site."""
    violations = shapes.check_shapes(in_scope_sources())
    flagged = sorted((Path(v.path).name, v.code) for v in violations)
    assert flagged == [("batch.py", "REPRO503")]
    for violation in violations:
        assert violation.path.endswith("runtime/batch.py")


def test_real_tree_is_clean_after_span_suppression():
    assert run_lint([SRC], CHECKERS, select=["array-contracts"]) == []


def test_span_suppression_scans_every_line_of_the_statement():
    lines = [
        "@kernel_contract(",
        '    xs="(N,) float64",  # repro-lint: ignore[REPRO503]',
        ")",
        "def f():",
        "    pass",
    ]
    spanning = Violation(
        path="x.py", line=1, end_line=3, code="REPRO503", message="m"
    )
    assert is_suppressed(spanning, lines)
    wrong_code = Violation(
        path="x.py", line=1, end_line=3, code="REPRO501", message="m"
    )
    assert not is_suppressed(wrong_code, lines)


def test_span_suppression_does_not_leak_past_the_statement():
    """A pragma inside the def *body* must not silence a def-level finding."""
    lines = [
        "def f():",
        "    return 1  # repro-lint: ignore[REPRO503]",
    ]
    def_level = Violation(
        path="x.py", line=1, end_line=1, code="REPRO503", message="m"
    )
    assert not is_suppressed(def_level, lines)


# ----------------------------------------------------------------------
# CLI path arguments
# ----------------------------------------------------------------------

def test_cli_lint_accepts_explicit_file_and_directory_args():
    assert cli.run(["lint", str(SRC / "core" / "lookup.py")]) == ""
    assert cli.run(["lint", str(SRC / "core"), str(SRC / "sim")]) == ""


def test_cli_lint_reports_violations_in_explicit_path(tmp_path, capsys):
    scoped = tmp_path / "repro" / "core"
    scoped.mkdir(parents=True)
    (scoped / "shapes_bad.py").write_text((FIXTURES / "shapes_bad.py").read_text())
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["lint", str(tmp_path), "--select", "array-contracts"])
    assert excinfo.value.code == 1
    out = capsys.readouterr().out
    assert "REPRO501" in out
    assert "REPRO505" in out
