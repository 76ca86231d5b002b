"""Checker framework for :mod:`repro.lint`.

The linter is a thin, dependency-free harness around repo-specific
*checkers*.  Each checker parses one Python file into an
:class:`ast.Module` and reports :class:`Violation`\\ s against it, and
carries a *scope* predicate over the package-relative path
(``core/lookup.py``), so e.g. the kernel-parity rule only fires inside the
decision-kernel layers.

Output contract: one ``path:line: CODE message`` line per violation on
stdout, sorted by path and line.  Exit code 0 when clean, 1 when any
violation is reported, 2 on usage errors.  A violation is suppressed by
putting ``# repro-lint: ignore`` (all codes) or
``# repro-lint: ignore[REPRO101]`` (specific codes) on the flagged line,
or on any line of the flagged statement's ``lineno..end_lineno`` span
(checkers report the span via :attr:`Violation.end_line`).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Checker",
    "SourceFile",
    "Violation",
    "load_source_file",
    "main",
    "package_relative",
    "run_lint",
    "statement_span",
]

#: The installed ``repro`` package: what ``python -m repro.lint`` lints by default.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Inline suppression marker: ``# repro-lint: ignore`` or
#: ``# repro-lint: ignore[CODE, CODE]`` on the flagged line.
PRAGMA_PATTERN = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


@dataclass(frozen=True, order=True)
class Violation:
    """One lint finding, renderable as ``path:line: CODE message``.

    ``end_line`` is the last line of the flagged statement (0 means "same
    as ``line``"); a suppression pragma anywhere inside ``line..end_line``
    silences the finding, so multi-line calls and decorated ``def``\\ s can
    carry the pragma on any of their physical lines.
    """

    path: str
    line: int
    code: str
    message: str
    end_line: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def statement_span(node: ast.AST) -> tuple[int, int]:
    """The ``(lineno, end_lineno)`` span a pragma may appear on.

    For decorated definitions the span starts at the first decorator and —
    to keep a def-level finding from being silenced by pragmas deep inside
    the body — ends just before the first body statement; for every other
    statement it is the node's own source extent.
    """
    first = getattr(node, "lineno", 0)
    last = getattr(node, "end_lineno", None) or first
    if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
        decorators = [dec.lineno for dec in node.decorator_list]
        if decorators:
            first = min(first, *decorators)
        if node.body:
            last = max(first, node.body[0].lineno - 1)
    return first, last


@dataclass(frozen=True)
class SourceFile:
    """A parsed Python file plus the paths checkers key on."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()


@dataclass(frozen=True)
class Checker:
    """A named per-file lint rule, applied to the files its scope accepts."""

    name: str
    codes: tuple[str, ...]
    file_check: Callable[[SourceFile], list[Violation]]
    scope: Callable[[str], bool]


def package_relative(path: Path) -> str:
    """Path relative to the innermost ``repro`` package, as posix.

    ``src/repro/core/lookup.py`` → ``core/lookup.py``; files outside a
    ``repro`` directory (e.g. test fixtures) keep their name, which no
    scoped checker matches — fixtures are exercised by calling checker
    functions directly.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return path.name


def load_source_file(path: Path, relpath: str | None = None) -> SourceFile:
    """Read and parse one file (raises ``SyntaxError`` on broken input)."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    return SourceFile(
        path=path,
        relpath=relpath if relpath is not None else package_relative(path),
        source=source,
        tree=tree,
    )


def walk_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted."""
    for root in paths:
        if root.is_file():
            if root.suffix == ".py":
                yield root
        elif root.is_dir():
            yield from sorted(
                candidate
                for candidate in root.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")


def is_suppressed(violation: Violation, lines: Sequence[str]) -> bool:
    """True if any line of the flagged statement carries a matching pragma.

    The scanned range is ``violation.line .. violation.end_line`` (just the
    flagged line when the checker reported no span), so the pragma can sit
    on any physical line of a multi-line call or decorated definition.
    """
    if not 1 <= violation.line <= len(lines):
        return False
    last = min(max(violation.line, violation.end_line), len(lines))
    for lineno in range(violation.line, last + 1):
        match = PRAGMA_PATTERN.search(lines[lineno - 1])
        if match is None:
            continue
        listed = match.group(1)
        if listed is None:
            return True
        codes = {code.strip() for code in listed.split(",")}
        if violation.code in codes:
            return True
    return False


def run_lint(paths: Sequence[Path], checkers: Sequence[Checker]) -> list[Violation]:
    """Run ``checkers`` over the given paths."""
    violations: list[Violation] = []
    for path in walk_python_files(paths):
        relpath = package_relative(path)
        applicable = [checker for checker in checkers if checker.scope(relpath)]
        if not applicable:
            continue
        source_file = load_source_file(path, relpath)
        for checker in applicable:
            for violation in checker.file_check(source_file):
                if not is_suppressed(violation, source_file.lines):
                    violations.append(violation)
    return sorted(violations)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Repo-specific invariant linter (kernel parity, "
        "determinism, kernel declarations).",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, default=[PACKAGE_ROOT],
        help="files or directories to lint (default: the installed repro package)",
    )
    return parser


def main(argv: Sequence[str] | None = None, checkers: Sequence[Checker] = ()) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        violations = run_lint(args.paths, checkers)
    except (FileNotFoundError, SyntaxError) as error:
        print(f"repro.lint: {error}", file=sys.stderr)
        return 2
    for violation in violations:
        print(violation.render())
    if violations:
        print(
            f"repro.lint: {len(violations)} violation(s)", file=sys.stderr
        )
        return 1
    return 0
