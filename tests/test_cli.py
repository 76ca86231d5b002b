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

    def test_negative_seed_rejected_up_front(self, capsys):
        # Regression: --seed -1 used to die with a ValueError traceback from
        # SEOConfig once the sweep built its first config.
        with pytest.raises(SystemExit) as exit_info:
            run(["fig5", "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err

    def test_suite_subcommand_options(self):
        args = build_parser().parse_args(
            ["suite", "--family", "narrow-road", "--optimization", "model_gating"]
        )
        assert args.family == ["narrow-road"]
        assert args.optimization == "model_gating"

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig5", "--shard", "1/2"],
            ["fig5", "--ledger-dir", "ledger"],
            ["fig5", "--resume"],
            ["merge", "x", "--into", "y"],
        ],
        ids=["shard", "ledger-dir", "resume", "merge"],
    )
    def test_retired_distributed_options_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err


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

    def test_all_constructs_at_most_one_pool(self, recorded_pools):
        """Acceptance: every artifact of `all` runs in one sweep, so the
        invocation builds one worker pool."""
        run(["all", "--episodes", "1", "--max-steps", "200", "--jobs", "2"])
        assert [pool.size for pool in recorded_pools] == [2]

    def test_all_is_one_sweep_with_one_engine_call_per_lockstep_group(self, monkeypatch):
        """`all` makes one SweepRunner.run call over every artifact's cells,
        and so one run_cells call per lockstep_key group of their union."""
        from repro import cli
        from repro.experiments.common import ExperimentSettings
        from repro.runtime import sweep

        batches, engine_calls = [], []
        run_cells = sweep.run_cells

        class RecordingRunner(sweep.SweepRunner):
            def run(self, jobs, experiment=None):
                batches.append([job.label for job in jobs])
                return super().run(jobs, experiment=experiment)

        def counting_run_cells(cells, timings=None):
            engine_calls.append(len(cells))
            return run_cells(cells, timings)

        monkeypatch.setattr(cli, "SweepRunner", RecordingRunner)
        monkeypatch.setattr(sweep, "run_cells", counting_run_cells)
        run(["all", "--episodes", "1", "--max-steps", "200"])

        settings = ExperimentSettings(episodes=1, max_steps=200)
        declared = {
            (name, label): config
            for name, (cells_of, _) in EXPERIMENTS.items()
            for label, config in cells_of(settings).items()
        }
        assert len(batches) == 1
        assert sorted(batches[0], key=repr) == sorted(declared, key=repr)
        distinct = set(declared.values())
        groups = {config.lockstep_key() for config in distinct}
        assert (len(declared), len(distinct), len(groups)) == (38, 26, 2)
        assert sorted(engine_calls) == sorted(
            sum(config.lockstep_key() == key for config in distinct) for key in groups
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_all_equals_the_single_artifact_outputs(self, jobs):
        """Merging every artifact into one sweep changes no byte of any table."""
        options = ["--episodes", "1", "--max-steps", "200", "--jobs", jobs]
        merged = run(["all", *options])
        alone = [run([name, *options]) for name in sorted(EXPERIMENTS)]
        assert merged == "\n\n".join(alone)

    def test_serial_invocation_builds_no_pool(self, recorded_pools):
        run(["table3", "--episodes", "1", "--max-steps", "300"])
        assert recorded_pools == []

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
