"""Tests for the experiment command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, run


class TestParser:
    def test_known_experiments_are_registered(self):
        for name in ("fig1", "fig5", "fig6", "table1", "table2", "table3"):
            assert name in EXPERIMENTS

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.experiment == "fig5"
        assert args.episodes == 10
        assert args.seed == 0
        assert args.jobs == 1
        assert args.backend == "process"

    def test_every_subcommand_accepts_jobs(self):
        parser = build_parser()
        for name in list(EXPERIMENTS) + ["all", "suite"]:
            args = parser.parse_args([name, "--jobs", "4", "--backend", "process"])
            assert args.jobs == 4
            assert args.backend == "process"

    @pytest.mark.parametrize("backend", ["thread", "async"])
    def test_retired_backends_are_invalid_choices(self, backend, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["fig5", "--backend", backend])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_jobs_zero_means_auto(self):
        # Regression: resolve_jobs documents jobs <= 0 as "use all CPU
        # cores", so the CLI must accept --jobs 0 rather than reject it.
        args = build_parser().parse_args(["fig5", "--jobs", "0"])
        assert args.jobs == 0

    def test_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--jobs", "-1"])

    def test_suite_subcommand_options(self):
        args = build_parser().parse_args(
            ["suite", "--family", "narrow-road", "--optimization", "model_gating"]
        )
        assert args.family == ["narrow-road"]
        assert args.optimization == "model_gating"

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7"])

    def test_distributed_flags_parse(self):
        from repro.runtime.shard import ShardSpec

        args = build_parser().parse_args(
            ["fig5", "--shard", "2/3", "--ledger-dir", "ledger", "--resume"]
        )
        assert args.shard == ShardSpec(index=2, count=3)
        assert str(args.ledger_dir) == "ledger"
        assert args.resume is True

    def test_parser_rejects_malformed_shard_spec(self):
        for bad in ("3", "0/2", "4/3"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig5", "--shard", bad])

    def test_merge_subcommand_parses(self):
        args = build_parser().parse_args(["merge", "s1", "s2", "--into", "m"])
        assert args.experiment == "merge"
        assert [str(path) for path in args.shards] == ["s1", "s2"]
        assert str(args.into) == "m"


class TestRun:
    def test_run_single_experiment(self, capsys):
        output = run(["table3", "--episodes", "1", "--max-steps", "400"])
        assert "Table III" in output
        captured = capsys.readouterr()
        assert "Table III" in captured.out

    def test_run_suite_subcommand(self, capsys):
        output = run(
            [
                "suite",
                "--episodes",
                "1",
                "--max-steps",
                "300",
                "--family",
                "narrow-road",
            ]
        )
        assert "Scenario suite" in output
        assert "narrow-road" in output

    def test_run_with_jobs_matches_serial(self):
        serial = run(["table3", "--episodes", "2", "--max-steps", "400"])
        parallel = run(["table3", "--episodes", "2", "--max-steps", "400", "--jobs", "2"])
        assert parallel == serial

    def test_run_with_batch_backend_matches_serial(self):
        serial = run(["table3", "--episodes", "2", "--max-steps", "400"])
        batched = run(
            ["table3", "--episodes", "2", "--max-steps", "400", "--backend", "batch"]
        )
        assert batched == serial

    def test_suite_with_batch_backend_matches_serial(self):
        """Execution-matrix coverage: `suite` through the batch backend."""
        base = ["suite", "--episodes", "2", "--max-steps", "300",
                "--family", "narrow-road"]
        serial = run(base)
        batched = run(base + ["--backend", "batch"])
        assert batched == serial

    def test_suite_with_jobs_zero_matches_serial(self):
        """Execution-matrix coverage: `suite` with --jobs 0 (all CPU cores)."""
        base = ["suite", "--episodes", "2", "--max-steps", "300",
                "--family", "narrow-road"]
        serial = run(base)
        auto = run(base + ["--jobs", "0"])
        assert auto == serial

    def test_all_constructs_at_most_one_pool(self, monkeypatch):
        """Acceptance: one invocation shares one worker pool across drivers.

        EXPERIMENTS is narrowed to two cheap drivers so the test stays fast;
        the plumbing under test (one SweepRunner threaded through every
        driver of the invocation) is exactly the production `all` path.
        """
        from repro import cli
        from repro.runtime import sweep

        monkeypatch.setattr(
            cli,
            "EXPERIMENTS",
            {name: cli.EXPERIMENTS[name] for name in ("table3", "fig1")},
        )
        before = sweep.pool_constructions()
        run(["all", "--episodes", "2", "--max-steps", "300", "--jobs", "2"])
        assert sweep.pool_constructions() - before == 1

    def test_serial_invocation_builds_no_pool(self):
        from repro.runtime import sweep

        before = sweep.pool_constructions()
        run(["table3", "--episodes", "1", "--max-steps", "300"])
        assert sweep.pool_constructions() == before

    def test_run_writes_output_file(self, tmp_path):
        target = tmp_path / "fig1.txt"
        run(
            [
                "fig1",
                "--episodes",
                "1",
                "--max-steps",
                "400",
                "--output",
                str(target),
            ]
        )
        assert "Fig. 1" in target.read_text()
