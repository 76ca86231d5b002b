"""Tests for the repro.lint invariant linter.

Each checker gets a passing and a violating fixture (``tests/lint_fixtures``)
asserting codes, lines, and messages — plus a *mutation* test that breaks the
real tree in memory and proves the corresponding check is live, not
vacuously passing.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro import lint
from repro.lint import (
    CHECKERS,
    closedworld,
    declarations,
    determinism,
    parity,
    protocol,
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
    assert package_relative(Path("/a/b/repro/runtime/remote.py")) == "runtime/remote.py"
    assert package_relative(Path("tests/lint_fixtures/parity_bad.py")) == "parity_bad.py"


def test_checker_definition_is_validated():
    with pytest.raises(ValueError, match="exactly one"):
        Checker(name="x", codes=("C1",), description="d")
    with pytest.raises(ValueError, match="exactly one"):
        Checker(
            name="x", codes=("C1",), description="d",
            file_check=lambda sf: [], project_check=list, scope=bool,
        )
    with pytest.raises(ValueError, match="scope"):
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
    assert not parity.in_scope("runtime/remote.py")


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


def test_parity_mutation_real_obstacle_view_facade():
    """Severing ``nearest_obstacle_view`` from its kernel must fire."""
    import ast

    from repro.lint.framework import SourceFile

    path = SRC / "sim" / "world.py"
    source = path.read_text()
    assert parity.check_parity(load_source_file(path)) == []
    mutated = source.replace(
        "self.nearest_obstacle_view_batch(", "_other_view_kernel(", 1
    )
    assert mutated != source
    violations = parity.check_parity(
        SourceFile(path, "sim/world.py", mutated, ast.parse(mutated))
    )
    assert [v.code for v in violations] == ["REPRO101"]
    assert "nearest_obstacle_view" in violations[0].message


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
    assert not determinism.in_scope("experiments/fig6.py")
    assert not determinism.in_scope("lint/framework.py")


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
# Work-unit closed world (REPRO301-304)
# ----------------------------------------------------------------------

def _load_closedworld_fixtures():
    spec = importlib.util.spec_from_file_location(
        "closedworld_fixtures", FIXTURES / "closedworld_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    # get_type_hints resolves annotations through sys.modules[__module__].
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_closed_world_real_tree_is_clean():
    assert closedworld.check_closed_world() == []


def test_closed_world_fixture_clean_case():
    fx = _load_closedworld_fixtures()
    registry = dict(fx.FIXTURE_REGISTRY)
    fingerprints = {fx.FIXTURE_VERSION: closedworld.schema_fingerprint(registry)}
    assert (
        closedworld.check_closed_world(
            registry=registry,
            root=fx.CleanRoot,
            version=fx.FIXTURE_VERSION,
            fingerprints=fingerprints,
        )
        == []
    )


def test_closed_world_flags_unregistered_reachable_dataclass():
    fx = _load_closedworld_fixtures()
    registry = {"RogueRoot": fx.RogueRoot, "RegisteredLeaf": fx.RegisteredLeaf}
    fingerprints = {1: closedworld.schema_fingerprint(registry)}
    violations = closedworld.check_closed_world(
        registry=registry, root=fx.RogueRoot, version=1, fingerprints=fingerprints
    )
    assert [v.code for v in violations] == ["REPRO301"]
    assert "RogueLeaf" in violations[0].message


def test_closed_world_flags_unfrozen_registry_entry():
    fx = _load_closedworld_fixtures()
    registry = dict(fx.FIXTURE_REGISTRY)
    registry["MutableLeaf"] = fx.MutableLeaf
    fingerprints = {1: closedworld.schema_fingerprint(registry)}
    violations = closedworld.check_closed_world(
        registry=registry, root=fx.CleanRoot, version=1, fingerprints=fingerprints
    )
    codes = {v.code for v in violations}
    assert "REPRO302" in codes
    # Dead weight in the registry is flagged too.
    assert "REPRO304" in codes


def test_closed_world_flags_fingerprint_drift_and_missing_pin():
    drifted = closedworld.check_closed_world(fingerprints={1: "0" * 64})
    assert [v.code for v in drifted] == ["REPRO303"]
    assert "WORKUNIT_SCHEMA_VERSION" in drifted[0].message
    # The message must carry the computed digest so the fix is copy-paste.
    from repro.runtime.workunit import _CONFIG_TYPES

    assert closedworld.schema_fingerprint(_CONFIG_TYPES) in drifted[0].message

    unpinned = closedworld.check_closed_world(fingerprints={})
    assert [v.code for v in unpinned] == ["REPRO303"]


def test_closed_world_mutation_unregistered_real_segment_type():
    """Dropping ArcSegment from the real registry must fire (it is reachable
    through ScenarioConfig.road_segments)."""
    from repro.runtime.workunit import _CONFIG_TYPES

    registry = {k: v for k, v in _CONFIG_TYPES.items() if k != "ArcSegment"}
    violations = closedworld.check_closed_world(registry=registry)
    codes = sorted(v.code for v in violations)
    assert codes == ["REPRO301", "REPRO303"]
    assert any("ArcSegment" in v.message for v in violations)


def test_schema_fingerprint_tracks_field_sets():
    fx = _load_closedworld_fixtures()
    base = closedworld.schema_fingerprint(fx.FIXTURE_REGISTRY)
    assert base == closedworld.schema_fingerprint(dict(fx.FIXTURE_REGISTRY))
    renamed = {"Other": fx.CleanRoot, "RegisteredLeaf": fx.RegisteredLeaf}
    assert closedworld.schema_fingerprint(renamed) != base


# ----------------------------------------------------------------------
# Protocol schema (REPRO401-406)
# ----------------------------------------------------------------------

def test_protocol_scope_is_remote_only():
    assert protocol.in_scope("runtime/remote.py")
    assert not protocol.in_scope("runtime/sweep.py")


def test_protocol_accepts_documented_frames():
    assert (
        protocol.check_protocol(load_fixture("protocol_ok.py", "runtime/remote.py"))
        == []
    )


def test_protocol_flags_each_frame_violation():
    violations = protocol.check_protocol(
        load_fixture("protocol_bad.py", "runtime/remote.py")
    )
    assert codes_by_line(violations) == [
        (10, "REPRO401"),
        (11, "REPRO402"),
        (12, "REPRO404"),
        (13, "REPRO403"),
        (18, "REPRO405"),
        (19, "REPRO406"),
        (20, "REPRO405"),
    ]
    by_code = {v.code: v.message for v in violations}
    assert "'frobnicate'" in by_code["REPRO401"]
    assert "extra field(s) ['shard']" in by_code["REPRO402"]
    assert "report_to_jsonable" in by_code["REPRO403"]
    assert "report_from_jsonable" in by_code["REPRO406"]


def test_protocol_mutation_drifted_real_run_frame():
    """Renaming a field in the real dispatcher's run frame must fire."""
    import ast

    from repro.lint.framework import SourceFile

    path = SRC / "runtime" / "remote.py"
    source = path.read_text()
    assert protocol.check_protocol(load_source_file(path)) == []
    mutated = source.replace('"ranges": payload', '"chunk": payload')
    assert mutated != source
    violations = protocol.check_protocol(
        SourceFile(path, "runtime/remote.py", mutated, ast.parse(mutated))
    )
    assert [v.code for v in violations] == ["REPRO402"]
    assert "missing field(s) ['ranges']" in violations[0].message


@pytest.mark.parametrize(
    ("old", "new", "code"),
    [
        ("[report_to_jsonable(report) for report in cell]", "list(cell)", "REPRO403"),
        ("[report_from_jsonable(item) for item in cell]", "list(cell)", "REPRO406"),
    ],
)
def test_protocol_mutation_uncoded_real_reports(old, new, code):
    """The real worker's and dispatcher's ``reports`` must go through the
    ledger's report codec, element by element."""
    import ast

    from repro.lint.framework import SourceFile

    path = SRC / "runtime" / "remote.py"
    source = path.read_text()
    mutated = source.replace(old, new)
    assert mutated != source
    violations = protocol.check_protocol(
        SourceFile(path, "runtime/remote.py", mutated, ast.parse(mutated))
    )
    assert [v.code for v in violations] == [code]


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
