"""Command-line interface: regenerate any paper experiment from the shell.

Examples::

    python -m repro.cli fig5 --episodes 5
    python -m repro.cli table2 --episodes 25 --seed 1 --jobs 4
    python -m repro.cli table3 --backend batch
    python -m repro.cli ablation-safety
    python -m repro.cli suite --family dense-traffic --family narrow-road
    python -m repro.cli all --jobs 8 --lookup-cache .cache/deadline

    # distributed: run one sweep as two shards (on two machines), then merge
    python -m repro.cli all --shard 1/2 --ledger-dir shard1 --resume
    python -m repro.cli all --shard 2/2 --ledger-dir shard2 --resume
    python -m repro.cli merge shard1 shard2 --into merged

    # multi-machine: start a worker per machine, sweep over them by socket
    python -m repro.cli worker --listen 0.0.0.0:7070          # on each box
    python -m repro.cli suite --backend socket --workers hostA:7070,hostB:7070

Each subcommand prints the reproduced table to stdout and optionally writes
it to a file with ``--output``.  Every subcommand accepts ``--jobs N`` to
spread episodes over N workers (``0`` = all CPU cores; results are identical
to the serial run), ``--backend {process,socket,batch}`` to pick the
execution backend (``socket`` also needs ``--workers HOST:PORT,...``;
``batch`` steps each unit's episodes in numpy lockstep in-process), and
``--lookup-cache DIR`` to persist deadline lookup tables across
invocations.  One :class:`repro.runtime.sweep.SweepRunner` is shared by
every experiment of an invocation, so even ``all`` constructs at most one
worker pool.

Distributed flags: ``--ledger-dir DIR`` records every completed work unit
on disk; ``--resume`` loads previously recorded units bit-identically
instead of re-executing them; ``--shard i/N`` executes only this shard's
deterministic share of the sweep's units (writing a manifest next to the
ledger).  ``merge`` validates shard manifests (same command, exact disjoint
cover), combines the ledgers and re-renders the full artifact from them —
bit-identical to the unsharded run, without executing a single episode.
"""

from __future__ import annotations

import argparse
import contextlib
import os
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.analysis.tables import format_table
from repro.contracts import set_contracts_enabled
from repro.experiments.ablations import run_lookup_ablation, run_safety_awareness_ablation
from repro.experiments.common import ExperimentSettings
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.suite import run_suite
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.runtime.cache import LookupTableCache, set_default_cache
from repro.runtime.ledger import RunLedger
from repro.runtime.shard import (
    ShardManifest,
    ShardMergeError,
    ShardSpec,
    validate_merge,
)
from repro.runtime.sweep import (
    EXECUTOR_BACKENDS,
    SweepIncomplete,
    SweepRunner,
    check_backend,
)
from repro.sim.scenario import DEFAULT_SUITE

#: Manifest filename written into every ledger directory.
MANIFEST_NAME = "manifest.json"


def _ablation_safety_table(settings: ExperimentSettings) -> str:
    result = run_safety_awareness_ablation(settings)
    return format_table(
        ["variant", "avg gain [%]", "mean delta_max", "unsafe steps / episode"],
        [
            [
                "safety-aware (SEO)",
                100.0 * result.aware.average_model_gain,
                result.aware.mean_delta_max,
                result.aware_unsafe_steps,
            ],
            [
                "safety-oblivious",
                100.0 * result.oblivious.average_model_gain,
                result.oblivious.mean_delta_max,
                result.oblivious_unsafe_steps,
            ],
        ],
        title="Ablation — safety-aware vs. safety-oblivious scheduling",
    )


def _ablation_lookup_table(settings: ExperimentSettings) -> str:
    result = run_lookup_ablation(settings)
    return format_table(
        ["deadline provider", "avg gain [%]", "mean delta_max"],
        [
            [
                "lookup table T(x, u)",
                100.0 * result.lookup.average_model_gain,
                result.lookup.mean_delta_max,
            ],
            [
                "exact phi evaluation",
                100.0 * result.exact.average_model_gain,
                result.exact.mean_delta_max,
            ],
        ],
        title="Ablation — deadline lookup table vs. exact evaluation",
    )


#: Experiment name -> callable producing the rendered table.
EXPERIMENTS: dict[str, Callable[[ExperimentSettings], str]] = {
    "fig1": lambda settings: run_fig1(settings).to_table(),
    "fig5": lambda settings: run_fig5(settings).to_table(),
    "fig6": lambda settings: run_fig6(settings).to_table(),
    "table1": lambda settings: run_table1(settings).to_table(),
    "table2": lambda settings: run_table2(settings).to_table(),
    "table3": lambda settings: run_table3(settings).to_table(),
    "ablation-safety": _ablation_safety_table,
    "ablation-lookup": _ablation_lookup_table,
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


def _shard_spec(text: str) -> ShardSpec:
    """argparse type for ``--shard``: an ``i/N`` spec."""
    try:
        return ShardSpec.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


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
        help="workers episodes are spread over (0 = all cores; results match serial)",
    )
    parser.add_argument(
        "--backend", choices=EXECUTOR_BACKENDS, default="process",
        help="execution backend (process = local process pool over --jobs; "
             "socket = remote workers named by --workers; batch = numpy "
             "lockstep in-process)",
    )
    parser.add_argument(
        "--workers", type=str, default=None, metavar="HOST:PORT[,HOST:PORT...]",
        help="socket-backend worker addresses (each started with "
             "`repro.cli worker --listen HOST:PORT`)",
    )
    parser.add_argument(
        "--lookup-cache", type=Path, default=None, metavar="DIR",
        help="directory to persist deadline lookup tables (.npz) across runs",
    )
    parser.add_argument(
        "--ledger-dir", type=Path, default=None, metavar="DIR",
        help="run ledger directory: record every completed work unit on disk",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip work units already recorded in --ledger-dir (bit-identical)",
    )
    parser.add_argument(
        "--shard", type=_shard_spec, default=None, metavar="i/N",
        help="execute only this shard's share of the sweep's work units",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="optional file to write the rendered table(s) to",
    )
    parser.add_argument(
        "--runtime-contracts", action="store_true",
        help="enforce @kernel_contract shape/dtype declarations at call "
             "time (also exported to worker subprocesses via "
             "REPRO_RUNTIME_CONTRACTS=1)",
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

    worker_parser = subparsers.add_parser(
        "worker", help="serve episodes to socket-backend dispatchers over TCP"
    )
    worker_parser.add_argument(
        "--listen", type=str, required=True, metavar="HOST:PORT",
        help="interface and port to serve on (port 0 = pick an ephemeral "
             "port; the bound address is printed on startup)",
    )

    merge_parser = subparsers.add_parser(
        "merge", help="combine shard ledgers and re-render the full artifact"
    )
    merge_parser.add_argument(
        "shards", nargs="+", type=Path, metavar="LEDGER_DIR",
        help="shard ledger directories (each containing manifest.json)",
    )
    merge_parser.add_argument(
        "--into", type=Path, required=True, metavar="DIR",
        help="directory for the merged ledger",
    )
    merge_parser.add_argument(
        "--output", type=Path, default=None,
        help="optional file to write the rendered table(s) to",
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


def _reproduction_command(args: argparse.Namespace) -> list[str]:
    """The argv that re-renders this sweep (minus execution/shard flags).

    Recorded in every shard manifest so ``merge`` can regenerate the full
    artifact by re-running the same experiment selection against the merged
    ledger — where every unit resolves from disk and nothing executes.
    """
    command = [
        args.experiment,
        "--episodes", str(args.episodes),
        "--seed", str(args.seed),
        "--max-steps", str(args.max_steps),
    ]
    if args.experiment == "suite":
        for family in args.family or []:
            command += ["--family", family]
        command += ["--optimization", args.optimization]
    return command


def _run_worker(args: argparse.Namespace) -> str:
    """Serve the remote-worker protocol over TCP until interrupted."""
    import asyncio

    from repro.runtime.remote import parse_worker_address, serve_worker

    try:
        host, port = parse_worker_address(args.listen)
    except ValueError as error:
        raise SystemExit(f"worker: {error}") from None

    def announce(address: str) -> None:
        # Parsed by launch scripts (and the CI smoke job) to learn an
        # ephemeral port, so the format is part of the interface.
        print(f"worker listening on {address}", flush=True)

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(serve_worker(host, port, on_bound=announce))
    return ""


def _parse_worker_list(text: str) -> list[str]:
    """Split and validate a ``--workers`` value — bad addresses must fail
    here, not when the first batch lazily opens the pool mid-run."""
    from repro.runtime.remote import parse_worker_address

    addresses = [entry.strip() for entry in text.split(",") if entry.strip()]
    for entry in addresses:
        try:
            parse_worker_address(entry)
        except ValueError as error:
            raise SystemExit(f"--workers: {error}") from None
    return addresses


def _run_merge(args: argparse.Namespace) -> str:
    """Validate shard manifests, combine their ledgers, re-render the artifact."""
    manifests = []
    ledgers = []
    for shard_dir in args.shards:
        manifest_path = shard_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise SystemExit(f"merge: no {MANIFEST_NAME} in {shard_dir}")
        manifests.append(ShardManifest.load(manifest_path))
        ledgers.append(RunLedger(shard_dir))
    try:
        plan = validate_merge(manifests, [ledger.keys() for ledger in ledgers])
    except ShardMergeError as error:
        raise SystemExit(f"merge: {error}") from None

    merged = RunLedger(args.into)
    for ledger in ledgers:
        merged.merge_from(ledger)
    missing = plan.unit_keys - set(merged.keys())
    if missing:
        raise SystemExit(
            f"merge: {len(missing)} unit(s) lost while merging ledgers"
        )
    # Re-render from the merged ledger: every unit resolves from disk, so no
    # episode executes and the output is bit-identical to the unsharded run.
    output = run(plan.command + ["--ledger-dir", str(args.into), "--resume"])
    if args.output is not None:
        args.output.write_text(output + "\n")
    return output


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
    if args.experiment == "worker":
        return _run_worker(args)
    if args.experiment == "merge":
        return _run_merge(args)
    if args.experiment == "lint":
        return _run_lint(args)
    if args.runtime_contracts:
        # Flip both the in-process switch and the env var: worker
        # subprocesses inherit the environment, so the oracle holds across
        # every execution backend.
        os.environ["REPRO_RUNTIME_CONTRACTS"] = "1"
        set_contracts_enabled(True)
    if (args.shard is not None or args.resume) and args.ledger_dir is None:
        raise SystemExit("--shard and --resume require --ledger-dir")
    workers = _parse_worker_list(args.workers) if args.workers else None
    try:
        check_backend(args.backend, workers)
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from None

    previous_cache = None
    if args.lookup_cache is not None:
        previous_cache = set_default_cache(
            LookupTableCache(cache_dir=args.lookup_cache)
        )

    ledger = RunLedger(args.ledger_dir) if args.ledger_dir is not None else None
    manifest = None
    manifest_path = None
    if ledger is not None:
        manifest = ShardManifest(
            command=_reproduction_command(args), shard=args.shard
        )
        manifest_path = args.ledger_dir / MANIFEST_NAME

    # One sweep runner — and therefore at most one worker pool — serves every
    # experiment of this invocation (the pool is created lazily on the first
    # parallel batch, so serial runs never spawn one).
    try:
        with SweepRunner(
            jobs=args.jobs,
            backend=args.backend,
            ledger=ledger,
            resume=args.resume,
            shard=args.shard,
            manifest=manifest,
            manifest_path=manifest_path,
            workers=workers,
        ) as runner:
            settings = ExperimentSettings(
                episodes=args.episodes,
                seed=args.seed,
                max_steps=args.max_steps,
                jobs=args.jobs,
                backend=args.backend,
                workers=tuple(workers) if workers else None,
                runner=runner,
            )

            def section(name: str, render: Callable[[], str]) -> str:
                """One experiment's output; a sharded sweep yields a status line."""
                try:
                    return render()
                except SweepIncomplete as incomplete:
                    return f"[{name}] {incomplete}"

            if args.experiment == "suite":
                output = section(
                    "suite",
                    lambda: run_suite(
                        settings, families=args.family, optimization=args.optimization
                    ).to_table(),
                )
            else:
                names = (
                    sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
                )
                sections = [
                    section(name, lambda name=name: EXPERIMENTS[name](settings))
                    for name in names
                ]
                output = "\n\n".join(sections)
    finally:
        # The cache override is scoped to this invocation, like every other
        # per-invocation knob; restore whatever was installed before.
        if previous_cache is not None:
            set_default_cache(previous_cache)

    print(output)
    if args.output is not None:
        args.output.write_text(output + "\n")
    return output


def main() -> None:  # pragma: no cover - thin wrapper
    """Console-script entry point."""
    run()


if __name__ == "__main__":  # pragma: no cover
    main()
