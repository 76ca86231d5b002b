"""Command-line interface: regenerate any paper experiment from the shell.

Examples::

    python -m repro.cli fig5 --episodes 5
    python -m repro.cli table2 --episodes 25 --seed 1 --jobs 4
    python -m repro.cli table3 --backend batch
    python -m repro.cli ablation-safety
    python -m repro.cli suite --family dense-traffic --family narrow-road
    python -m repro.cli all --jobs 8

Each subcommand prints the reproduced table to stdout and optionally writes
it to a file with ``--output``.  Every subcommand accepts ``--jobs N`` to
spread episodes over a local pool of N worker processes (``0`` = all CPU
cores; results are identical to the in-process run) and ``--backend
{process,batch}`` to pick the execution backend (``batch`` runs
in-process, the same as ``--jobs 1``, which steps each unit's episodes in
numpy lockstep).  An invocation runs the cells of every artifact it renders
as one :meth:`repro.runtime.sweep.SweepRunner.run` call, so even ``all``
runs a shared cell once and constructs at most one worker pool, and renders
each artifact from its own cells' reports.  An invocation changes no
process-wide state: runtime kernel contracts are switched on for it and its
pool workers by setting ``REPRO_RUNTIME_CONTRACTS=1`` in the environment
(see :mod:`repro.contracts`).
"""

from __future__ import annotations

import argparse
from collections.abc import Callable, Sequence
from functools import partial
from pathlib import Path
from typing import Any

from repro.experiments import ablations, fig1, fig5, fig6, suite, table1, table2, table3
from repro.experiments.common import Cells, ExperimentSettings, Reports
from repro.runtime.sweep import EXECUTOR_BACKENDS, SweepRunner, sweep_jobs
from repro.sim.scenario import DEFAULT_SUITE

#: An artifact: its cells for the settings, and its result (rendered by
#: ``to_table()``) from their reports.
Artifact = tuple[Callable[[ExperimentSettings], Cells], Callable[[Reports], Any]]

#: Experiment name -> its artifact.
EXPERIMENTS: dict[str, Artifact] = {
    "fig1": (fig1.fig1_cells, fig1.fig1_result),
    "fig5": (fig5.fig5_cells, fig5.fig5_result),
    "fig6": (fig6.fig6_cells, fig6.fig6_result),
    "table1": (table1.table1_cells, table1.table1_result),
    "table2": (table2.table2_cells, table2.table2_result),
    "table3": (table3.table3_cells, table3.table3_result),
    "ablation-safety": (
        ablations.safety_awareness_ablation_cells,
        ablations.safety_awareness_ablation_result,
    ),
    "ablation-lookup": (ablations.lookup_ablation_cells, ablations.lookup_ablation_result),
}


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (clean error instead of a traceback)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _jobs_int(text: str) -> int:
    """argparse type for ``--jobs``: an integer >= 0 (0 = all CPU cores)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative (0 = use all CPU cores), got {value}"
        )
    return value


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every subcommand."""
    parser.add_argument(
        "--episodes", type=_positive_int, default=10,
        help="episodes per configuration (the paper averages 25 successful runs)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--max-steps", type=_positive_int, default=1200, help="base periods per episode"
    )
    parser.add_argument(
        "--jobs", type=_jobs_int, default=1,
        help="workers episodes are spread over (0 = all cores; results match --jobs 1)",
    )
    parser.add_argument(
        "--backend", choices=EXECUTOR_BACKENDS, default="process",
        help="execution backend (process = local process pool over --jobs; "
             "batch = in-process, the same as --jobs 1)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="optional file to write the rendered table(s) to",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the experiment CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SEO paper's figures and tables.",
    )
    subparsers = parser.add_subparsers(
        dest="experiment", required=True, metavar="experiment"
    )
    for name in sorted(EXPERIMENTS):
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        _add_common_options(sub)
    all_parser = subparsers.add_parser("all", help="regenerate every artifact")
    _add_common_options(all_parser)

    suite_parser = subparsers.add_parser(
        "suite", help="run the named scenario families (workload suite)"
    )
    _add_common_options(suite_parser)
    suite_parser.add_argument(
        "--family", action="append", choices=DEFAULT_SUITE.names(), default=None,
        help="scenario family to run (repeatable; default: the whole suite)",
    )
    suite_parser.add_argument(
        "--optimization", default="offload",
        choices=("offload", "model_gating", "sensor_gating", "none"),
        help="energy optimization applied to the detectors",
    )

    lint_parser = subparsers.add_parser(
        "lint", help="run the repo invariant linter (see docs/static-analysis.md)"
    )
    lint_parser.add_argument(
        "paths", nargs="*", type=Path, default=[], metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--select", action="append", metavar="CHECKER", default=None,
        help="run only this checker (repeatable)",
    )
    lint_parser.add_argument(
        "--ignore", action="append", metavar="CHECKER", default=None,
        help="skip this checker (repeatable)",
    )
    lint_parser.add_argument(
        "--list-checkers", action="store_true",
        help="list the available checkers and exit",
    )
    return parser


def _run_lint(args: argparse.Namespace) -> str:
    """Run the invariant linter; exits non-zero on violations."""
    import repro
    from repro import lint

    # Default to the installed package tree so the gate works from any cwd.
    paths = args.paths or [Path(repro.__file__).parent]
    argv = [str(path) for path in paths]
    for name in args.select or []:
        argv += ["--select", name]
    for name in args.ignore or []:
        argv += ["--ignore", name]
    if args.list_checkers:
        argv.append("--list-checkers")
    code = lint.main(argv)
    if code:
        raise SystemExit(code)
    return ""


def run(argv: Sequence[str] | None = None) -> str:
    """Run the CLI and return the rendered output (also printed to stdout)."""
    args = build_parser().parse_args(argv)
    if args.experiment == "lint":
        return _run_lint(args)

    settings = ExperimentSettings(
        episodes=args.episodes,
        seed=args.seed,
        max_steps=args.max_steps,
        jobs=args.jobs,
        backend=args.backend,
    )
    if args.experiment == "suite":
        artifacts: dict[str, Artifact] = {
            "suite": (
                partial(suite.suite_cells, families=args.family, optimization=args.optimization),
                partial(suite.suite_result, optimization=args.optimization),
            )
        }
    else:
        names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        artifacts = {name: EXPERIMENTS[name] for name in names}

    # One sweep over every artifact's cells, labelled (artifact, cell).
    cells = {name: cells_of(settings) for name, (cells_of, _) in artifacts.items()}
    union = {
        (name, label): config for name, named in cells.items() for label, config in named.items()
    }
    reports = SweepRunner(jobs=args.jobs, backend=args.backend).run(
        sweep_jobs(union, settings.episodes)
    )
    output = "\n\n".join(
        result({label: reports[(name, label)] for label in cells[name]}).to_table()
        for name, (_, result) in artifacts.items()
    )

    print(output)
    if args.output is not None:
        args.output.write_text(output + "\n")
    return output


def main() -> None:  # pragma: no cover - thin wrapper
    """Console-script entry point."""
    run()


if __name__ == "__main__":  # pragma: no cover
    main()
