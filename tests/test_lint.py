"""Tests for the repro.lint invariant linter.

Each checker gets a passing and a violating fixture (``tests/lint_fixtures``)
asserting codes, lines, and messages — plus a *mutation* test that breaks the
real tree in memory and proves the corresponding check is live, not
vacuously passing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro import lint
from repro.lint import (
    CHECKERS,
    declarations,
    determinism,
    parity,
)
from repro.lint.framework import (
    Checker,
    Violation,
    is_suppressed,
    load_source_file,
    main as framework_main,
    package_relative,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def load_fixture(name: str, relpath: str):
    return load_source_file(FIXTURES / name, relpath=relpath)


def codes_by_line(violations) -> list[tuple[int, str]]:
    return sorted((v.line, v.code) for v in violations)


# ----------------------------------------------------------------------
# Framework
# ----------------------------------------------------------------------

def test_violation_renders_contract_format():
    violation = Violation(path="core/x.py", line=12, code="REPRO101", message="boom")
    assert violation.render() == "core/x.py:12: REPRO101 boom"


def test_package_relative_strips_to_innermost_repro_package():
    assert package_relative(Path("src/repro/core/lookup.py")) == "core/lookup.py"
    assert package_relative(Path("/a/b/repro/runtime/sweep.py")) == "runtime/sweep.py"
    assert package_relative(Path("tests/lint_fixtures/parity_bad.py")) == "parity_bad.py"


def test_checker_definition_is_validated():
    with pytest.raises(TypeError, match="file_check"):
        Checker(name="x", codes=("C1",), description="d")
    with pytest.raises(TypeError, match="scope"):
        Checker(name="x", codes=("C1",), description="d", file_check=lambda sf: [])


def test_unknown_checker_name_is_an_error_not_a_silent_skip():
    with pytest.raises(ValueError, match="unknown checker"):
        run_lint([FIXTURES], CHECKERS, select=["kernel-paritty"])
    assert framework_main(["--select", "kernel-paritty", str(FIXTURES)], CHECKERS) == 2


def test_pragma_suppression(tmp_path):
    scoped = tmp_path / "repro" / "runtime"
    scoped.mkdir(parents=True)
    flagged = 'import time\n\ndef f():\n    return time.time()\n'
    suppressed = flagged.replace(
        "time.time()", "time.time()  # repro-lint: ignore[REPRO204]"
    )
    wrong_code = flagged.replace(
        "time.time()", "time.time()  # repro-lint: ignore[REPRO101]"
    )
    bare = flagged.replace("time.time()", "time.time()  # repro-lint: ignore")

    (scoped / "clock.py").write_text(flagged)
    assert [v.code for v in run_lint([tmp_path], CHECKERS, select=["determinism"])] == [
        "REPRO204"
    ]
    (scoped / "clock.py").write_text(suppressed)
    assert run_lint([tmp_path], CHECKERS, select=["determinism"]) == []
    (scoped / "clock.py").write_text(wrong_code)
    assert [v.code for v in run_lint([tmp_path], CHECKERS, select=["determinism"])] == [
        "REPRO204"
    ]
    (scoped / "clock.py").write_text(bare)
    assert run_lint([tmp_path], CHECKERS, select=["determinism"]) == []


# ----------------------------------------------------------------------
# Kernel parity (REPRO101)
# ----------------------------------------------------------------------

def test_parity_scope_covers_decision_and_perception_layers_only():
    assert parity.in_scope("core/lookup.py")
    assert parity.in_scope("control/heuristic.py")
    assert parity.in_scope("sim/road.py")
    assert parity.in_scope("sim/world.py")
    assert parity.in_scope("perception/detector.py")
    assert parity.in_scope("perception/detections.py")
    assert parity.in_scope("sim/observation.py")
    assert not parity.in_scope("sim/obstacles.py")
    assert not parity.in_scope("runtime/sweep.py")


def test_parity_accepts_all_delegation_shapes():
    assert parity.check_parity(load_fixture("parity_ok.py", "core/parity_ok.py")) == []


def test_parity_flags_reimplemented_scalar_facade():
    violations = parity.check_parity(
        load_fixture("parity_bad.py", "core/parity_bad.py")
    )
    assert len(violations) == 1
    violation = violations[0]
    assert violation.code == "REPRO101"
    assert violation.line == 9
    assert "DriftingFacade.query" in violation.message
    assert "query_batch" in violation.message


def test_parity_accepts_perception_delegation_shapes():
    assert (
        parity.check_parity(
            load_fixture("parity_perception_ok.py", "perception/parity_perception_ok.py")
        )
        == []
    )


def test_parity_flags_reimplemented_perception_facade():
    violations = parity.check_parity(
        load_fixture("parity_perception_bad.py", "perception/parity_perception_bad.py")
    )
    assert len(violations) == 1
    violation = violations[0]
    assert violation.code == "REPRO101"
    assert "DriftingDetector.detect" in violation.message
    assert "detect_batch" in violation.message


def test_parity_mutation_real_world_status_facade():
    """Severing ``World.status`` from ``status_batch`` must fire."""
    import ast

    from repro.lint.framework import SourceFile

    path = SRC / "sim" / "world.py"
    source = path.read_text()
    assert parity.check_parity(load_source_file(path)) == []
    mutated = source.replace("self.status_batch(", "_other_status_kernel(", 1)
    assert mutated != source
    violations = parity.check_parity(
        SourceFile(path, "sim/world.py", mutated, ast.parse(mutated))
    )
    assert [v.code for v in violations] == ["REPRO101"]
    assert "World.status" in violations[0].message


def test_parity_mutation_real_detector_facade():
    """Severing ``DetectorModel.detect`` from ``detect_batch`` must fire."""
    import ast

    from repro.lint.framework import SourceFile

    path = SRC / "perception" / "detector.py"
    source = path.read_text()
    assert parity.check_parity(load_source_file(path)) == []
    mutated = source.replace("self.detect_batch(", "_other_detect_kernel(", 1)
    assert mutated != source
    violations = parity.check_parity(
        SourceFile(path, "perception/detector.py", mutated, ast.parse(mutated))
    )
    assert [v.code for v in violations] == ["REPRO101"]
    assert "DetectorModel.detect" in violations[0].message


def test_parity_mutation_real_lookup_table_facade():
    """Severing the real ``query`` → ``query_batch`` delegation must fire."""
    path = SRC / "core" / "lookup.py"
    source = path.read_text()
    assert parity.check_parity(load_source_file(path)) == []
    mutated = source.replace("self.query_batch(", "self.recompute(", 1)
    assert mutated != source
    import ast

    from repro.lint.framework import SourceFile

    violations = parity.check_parity(
        SourceFile(path, "core/lookup.py", mutated, ast.parse(mutated))
    )
    assert [v.code for v in violations] == ["REPRO101"]
    assert "query" in violations[0].message


# ----------------------------------------------------------------------
# Determinism (REPRO201-204)
# ----------------------------------------------------------------------

def test_determinism_scope():
    assert determinism.in_scope("core/shield.py")
    assert determinism.in_scope("runtime/sweep.py")
    assert determinism.in_scope("sim/world.py")
    assert determinism.in_scope("control/heuristic.py")
    assert determinism.in_scope("comm/offload.py")
    assert determinism.in_scope("perception/detector.py")
    assert determinism.in_scope("streams.py")
    assert not determinism.in_scope("experiments/fig6.py")
    assert not determinism.in_scope("lint/framework.py")
    assert not determinism.in_scope("contracts.py")


def test_determinism_accepts_seeded_rng_and_generator_methods():
    violations = determinism.check_determinism(
        load_fixture("determinism_ok.py", "runtime/determinism_ok.py")
    )
    # The fixture's sanctioned wall-clock read carries a pragma, which is
    # applied by run_lint, not by the raw checker.
    assert codes_by_line(violations) == [(23, "REPRO204")]


def test_determinism_flags_each_entropy_and_clock_source():
    violations = determinism.check_determinism(
        load_fixture("determinism_bad.py", "runtime/determinism_bad.py")
    )
    assert codes_by_line(violations) == [
        (5, "REPRO201"),
        (11, "REPRO202"),
        (12, "REPRO203"),
        (13, "REPRO201"),
        (20, "REPRO204"),
        (21, "REPRO204"),
    ]
    by_code = {v.code: v.message for v in violations}
    assert "default_rng" in by_code["REPRO202"]
    assert "np.random.uniform" in by_code["REPRO203"]
    assert "wall clock" in by_code["REPRO204"]


def test_determinism_mutation_real_placement_rng():
    """Swapping the seeded generator for the legacy global API must fire."""
    import ast

    from repro.lint.framework import SourceFile

    path = SRC / "sim" / "obstacles.py"
    source = path.read_text()
    assert determinism.check_determinism(load_source_file(path)) == []
    mutated = source.replace("rng.uniform(", "np.random.uniform(", 1)
    assert mutated != source
    violations = determinism.check_determinism(
        SourceFile(path, "sim/obstacles.py", mutated, ast.parse(mutated))
    )
    assert [v.code for v in violations] == ["REPRO203"]


# ----------------------------------------------------------------------
# Kernel declarations (REPRO502–503)
# ----------------------------------------------------------------------

def mutate_declarations(relpath: str, old: str, new: str) -> list[Violation]:
    """Apply a one-shot textual mutation to a real file and re-check it."""
    import ast

    from repro.lint.framework import SourceFile

    path = SRC / relpath
    source = path.read_text()
    assert declarations.check_declarations(load_source_file(path)) == []
    mutated = source.replace(old, new, 1)
    assert mutated != source, f"mutation pattern not found in {relpath}"
    return declarations.check_declarations(
        SourceFile(path, relpath, mutated, ast.parse(mutated))
    )


def test_declarations_scope_is_the_kernel_layer():
    assert declarations.in_scope("core/lookup.py")
    assert declarations.in_scope("control/pure_pursuit.py")
    assert declarations.in_scope("perception/detector.py")
    assert declarations.in_scope("dynamics/bicycle.py")
    assert declarations.in_scope("sim/road.py")
    assert declarations.in_scope("sim/world.py")
    assert declarations.in_scope("sim/observation.py")
    assert declarations.in_scope("runtime/batch.py")
    assert not declarations.in_scope("runtime/engine.py")
    assert not declarations.in_scope("sim/scenario.py")
    assert not declarations.in_scope("cli.py")


def test_declarations_clean_fixture_passes():
    fixture = load_fixture("declarations_ok.py", "core/declarations_ok.py")
    assert declarations.check_declarations(fixture) == []


def test_declarations_bad_fixture_fires_each_code():
    violations = declarations.check_declarations(
        load_fixture("declarations_bad.py", "core/declarations_bad.py")
    )
    assert codes_by_line(violations) == [
        (13, "REPRO502"),
        (18, "REPRO502"),
        (21, "REPRO503"),
        (26, "REPRO503"),
    ]
    messages = [v.message for v in sorted(violations)]
    assert "np.uint8" in messages[0]
    assert "'float32'" in messages[1]
    assert "'unsigned_kernel' lacks a @kernel_contract" in messages[2]
    assert "'double_batch' lacks a @kernel_contract" in messages[3]


def test_declarations_out_of_scope_fixture_is_ignored_by_run_lint(tmp_path):
    target = tmp_path / "repro" / "analysis"
    target.mkdir(parents=True)
    bad = (FIXTURES / "declarations_bad.py").read_text()
    (target / "declarations_bad.py").write_text(bad)
    assert run_lint([tmp_path], CHECKERS, select=["kernel-declarations"]) == []


def test_declarations_mutation_real_heuristic_dtype_fires_502():
    violations = mutate_declarations(
        "control/heuristic.py", "dtype=float)", "dtype=np.float32)"
    )
    assert [v.code for v in violations] == ["REPRO502"]
    assert "np.float32" in violations[0].message


def test_declarations_mutation_real_safety_stripped_contract_fires_503():
    decorator = (
        "    @kernel_contract(\n"
        '        distances_m="(N,) float64",\n'
        '        bearings_rad="(N,) float64",\n'
        '        speeds_mps="(N,) float64",\n'
        '        returns="(N,) float64",\n'
        "    )\n"
        "    def evaluate_batch(\n"
    )
    violations = mutate_declarations(
        "core/safety.py", decorator, "    def evaluate_batch(\n"
    )
    assert [v.code for v in violations] == ["REPRO503"]
    assert "'evaluate_batch' lacks a @kernel_contract" in violations[0].message


def test_declarations_real_tree_presuppression_finding_is_exactly_run_batch():
    """Before pragmas apply, the only finding is the sanctioned run_batch."""
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        relpath = package_relative(path)
        if declarations.in_scope(relpath):
            violations += declarations.check_declarations(
                load_source_file(path, relpath)
            )
    assert [(v.code, v.message) for v in violations] == [
        ("REPRO503", "public batch kernel 'run_batch' lacks a @kernel_contract "
         "declaration")
    ]
    assert violations[0].path.endswith("runtime/batch.py")


def test_declarations_real_tree_is_clean_after_span_suppression():
    assert run_lint([SRC], CHECKERS, select=["kernel-declarations"]) == []


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
        path="x.py", line=1, end_line=3, code="REPRO502", message="m"
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
# End-to-end: module and CLI entry points on the real tree
# ----------------------------------------------------------------------

def test_lint_module_exits_zero_on_real_tree():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_lint_exits_zero_on_real_tree():
    assert cli.run(["lint"]) == ""


def test_cli_lint_fails_on_violating_tree(tmp_path, capsys):
    scoped = tmp_path / "repro" / "core"
    scoped.mkdir(parents=True)
    (scoped / "drift.py").write_text((FIXTURES / "parity_bad.py").read_text())
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["lint", str(tmp_path)])
    assert excinfo.value.code == 1
    out = capsys.readouterr().out
    assert "REPRO101" in out
    assert "drift.py:9:" in out


def test_lint_main_select_runs_only_named_checker(tmp_path):
    scoped = tmp_path / "repro" / "core"
    scoped.mkdir(parents=True)
    (scoped / "drift.py").write_text((FIXTURES / "parity_bad.py").read_text())
    assert lint.main([str(tmp_path), "--select", "determinism"]) == 0
    assert lint.main([str(tmp_path), "--select", "kernel-parity"]) == 1


def test_cli_lint_accepts_explicit_file_and_directory_args():
    assert cli.run(["lint", str(SRC / "core" / "lookup.py")]) == ""
    assert cli.run(["lint", str(SRC / "core"), str(SRC / "sim")]) == ""


def test_cli_lint_reports_violations_in_explicit_path(tmp_path, capsys):
    scoped = tmp_path / "repro" / "core"
    scoped.mkdir(parents=True)
    (scoped / "declarations_bad.py").write_text(
        (FIXTURES / "declarations_bad.py").read_text()
    )
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["lint", str(tmp_path), "--select", "kernel-declarations"])
    assert excinfo.value.code == 1
    out = capsys.readouterr().out
    assert "declarations_bad.py:13: REPRO502" in out
    assert "declarations_bad.py:21: REPRO503" in out
