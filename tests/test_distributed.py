"""Tests for the distributed sweep layer: work units, ledger, shards, merge.

The acceptance bar: a suite run as 3 shards + merge is bit-identical to
the unsharded serial run, and a resumed ledger reproduces the same reports
without executing a single episode.  Shards are how a sweep spreads over
several hosts, so these tests are the multi-host path.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import run
from repro.core.framework import SEOFramework
from repro.runtime import sweep as sweep_module
from repro.runtime.batch import run_batch
from repro.runtime.ledger import (
    LedgerSchemaError,
    RunLedger,
    report_from_jsonable,
    report_to_jsonable,
)
from repro.runtime.shard import (
    ShardManifest,
    ShardMergeError,
    ShardSpec,
    validate_merge,
)
from repro.runtime.sweep import SweepIncomplete, SweepRunner, sweep_jobs
from repro.runtime.workunit import (
    WorkUnit,
    config_from_jsonable,
    config_to_jsonable,
    to_jsonable,
)


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
class TestWorkUnit:
    def test_config_round_trip(self, fast_seo_config):
        rebuilt = config_from_jsonable(config_to_jsonable(fast_seo_config))
        assert rebuilt == fast_seo_config

    def test_round_trip_with_segments_and_tuples(self, fast_seo_config):
        from repro.sim.road import ArcSegment, StraightSegment

        config = dataclasses.replace(
            fast_seo_config,
            detector_period_multiples=(1, 2, 4),
            scenario=dataclasses.replace(
                fast_seo_config.scenario,
                road_segments=(
                    StraightSegment(20.0),
                    ArcSegment(radius_m=25.0, sweep_rad=0.8),
                    StraightSegment(15.0),
                ),
            ),
        )
        rebuilt = config_from_jsonable(config_to_jsonable(config))
        assert rebuilt == config
        assert isinstance(rebuilt.detector_period_multiples, tuple)
        assert isinstance(rebuilt.scenario.road_segments[1], ArcSegment)

    def test_numpy_scalars_hash_like_literals(self, fast_seo_config):
        scenario = dataclasses.replace(
            fast_seo_config.scenario,
            num_obstacles=np.int64(fast_seo_config.scenario.num_obstacles),
            seed=np.int32(fast_seo_config.scenario.seed),
        )
        numpyish = dataclasses.replace(
            fast_seo_config,
            scenario=scenario,
            target_speed_mps=np.float64(8.0),
            seed=int(np.int64(5)),
        )
        unit = WorkUnit.for_sweep(fast_seo_config, 2)
        assert WorkUnit.for_sweep(numpyish, 2).key == unit.key

    def test_key_is_stable_and_content_sensitive(self, fast_seo_config):
        unit = WorkUnit.for_sweep(fast_seo_config, 3)
        assert unit.key == WorkUnit.for_sweep(fast_seo_config, 3).key
        assert unit.key != WorkUnit.for_sweep(fast_seo_config, 2).key
        deeper = dataclasses.replace(
            fast_seo_config,
            detector_compute=dataclasses.replace(
                fast_seo_config.detector_compute, power_w=9.9
            ),
        )
        assert WorkUnit.for_sweep(deeper, 3).key != unit.key

    def test_unregistered_type_is_an_error(self):
        from repro.dynamics.params import VehicleParams

        with pytest.raises(TypeError, match="not registered"):
            to_jsonable(VehicleParams())

    def test_rejects_empty_ranges(self, fast_seo_config):
        with pytest.raises(ValueError):
            WorkUnit(config=fast_seo_config, episode_start=2, episode_stop=2)
        with pytest.raises(ValueError):
            WorkUnit(config=fast_seo_config, episode_start=-1, episode_stop=1)


# ----------------------------------------------------------------------
# Run ledger
# ----------------------------------------------------------------------
class TestRunLedger:
    def test_put_get_round_trip_bit_identical(self, fast_seo_config, tmp_path):
        reports = run_batch(SEOFramework(fast_seo_config), range(2))
        unit = WorkUnit.for_sweep(fast_seo_config, 2)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports, label="a", experiment="demo")
        assert RunLedger(tmp_path).get(unit) == reports

    def test_report_json_round_trip_preserves_inf(self, fast_seo_config):
        report = run_batch(SEOFramework(fast_seo_config), range(1))[0]
        report.min_obstacle_distance_m = float("inf")
        payload = json.loads(json.dumps(report_to_jsonable(report)))
        assert report_from_jsonable(payload) == report

    def test_put_is_idempotent(self, fast_seo_config, tmp_path):
        reports = run_batch(SEOFramework(fast_seo_config), range(1))
        unit = WorkUnit.for_sweep(fast_seo_config, 1)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports)
        ledger.put(unit, reports)
        assert len(ledger) == 1
        assert len(ledger.index_path.read_text().splitlines()) == 1

    def test_truncated_trailing_index_line_is_tolerated(
        self, fast_seo_config, tmp_path
    ):
        reports = run_batch(SEOFramework(fast_seo_config), range(1))
        unit = WorkUnit.for_sweep(fast_seo_config, 1)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports)
        with ledger.index_path.open("a") as stream:
            stream.write('{"unit": "dead', )  # crash mid-append
        survivor = RunLedger(tmp_path)
        assert len(survivor) == 1
        assert survivor.get(unit) == reports

    def test_missing_blob_is_a_miss(self, fast_seo_config, tmp_path):
        reports = run_batch(SEOFramework(fast_seo_config), range(1))
        unit = WorkUnit.for_sweep(fast_seo_config, 1)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports)
        ledger.blob_path(unit.key).unlink()
        assert RunLedger(tmp_path).get(unit) is None

    @pytest.mark.parametrize("damage", ["corrupt", "unlink"])
    def test_put_repairs_a_damaged_blob(self, fast_seo_config, tmp_path, damage):
        """A corrupt/missing blob behind a valid index entry is rewritable.

        Regression: put() used to early-return for any indexed unit, so a
        blob lost to a crash mid-write re-executed on every resume forever.
        """
        reports = run_batch(SEOFramework(fast_seo_config), range(1))
        unit = WorkUnit.for_sweep(fast_seo_config, 1)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports)
        if damage == "corrupt":
            ledger.blob_path(unit.key).write_bytes(b"not an npz")
        else:
            ledger.blob_path(unit.key).unlink()

        survivor = RunLedger(tmp_path)
        assert survivor.get(unit) is None  # miss, and the entry is evicted
        survivor.put(unit, reports)  # the re-execution's record
        assert survivor.get(unit) == reports
        assert RunLedger(tmp_path).get(unit) == reports  # durable repair

    def test_put_rejects_mismatched_range(self, fast_seo_config, tmp_path):
        reports = run_batch(SEOFramework(fast_seo_config), range(1))
        unit = WorkUnit.for_sweep(fast_seo_config, 2)
        with pytest.raises(ValueError):
            RunLedger(tmp_path).put(unit, reports)

    def test_merge_from_copies_missing_units(self, fast_seo_config, tmp_path):
        other_config = dataclasses.replace(fast_seo_config, seed=9)
        unit_a = WorkUnit.for_sweep(fast_seo_config, 1)
        unit_b = WorkUnit.for_sweep(other_config, 1)
        left = RunLedger(tmp_path / "left")
        right = RunLedger(tmp_path / "right")
        left.put(unit_a, run_batch(SEOFramework(fast_seo_config), range(1)))
        right.put(unit_b, run_batch(SEOFramework(other_config), range(1)))
        merged = RunLedger(tmp_path / "merged")
        assert merged.merge_from(left) == 1
        assert merged.merge_from(right) == 1
        assert merged.merge_from(left) == 0  # already present
        assert merged.get(unit_a) == left.get(unit_a)
        assert merged.get(unit_b) == right.get(unit_b)


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("2/3") == ShardSpec(index=2, count=3)
        for bad in ("3", "0/2", "4/3", "a/b", "1/0"):
            with pytest.raises(ValueError):
                ShardSpec.parse(bad)

    def test_partition_is_an_exact_cover(self):
        keys = [f"{value:064x}" for value in range(0, 5_000_000, 13_577)]
        for count in (1, 2, 3, 5):
            shards = [ShardSpec(index, count) for index in range(1, count + 1)]
            for key in keys:
                assert sum(shard.assigns(key) for shard in shards) == 1

    def test_assignment_is_independent_of_the_rest_of_the_sweep(self):
        shard = ShardSpec(1, 3)
        key = "ab" * 32
        assert shard.assigns(key) == shard.assigns(key)  # pure function of the hash


class TestManifestMerge:
    @staticmethod
    def _manifest(command, shard, unit_keys):
        manifest = ShardManifest(command=command, shard=shard)
        for key in unit_keys:
            manifest.units[key] = {"episodes": [0, 1], "label": key[:4], "experiment": "t"}
        return manifest

    def test_save_load_round_trip(self, tmp_path):
        manifest = self._manifest(["suite"], ShardSpec(1, 2), ["a" * 64, "b" * 64])
        manifest.mark_completed("a" * 64)
        manifest.save(tmp_path / "manifest.json")
        loaded = ShardManifest.load(tmp_path / "manifest.json")
        assert loaded.command == ["suite"]
        assert loaded.shard == ShardSpec(1, 2)
        assert loaded.units == manifest.units
        assert loaded.completed == {"a" * 64}

    def test_merge_accepts_exact_cover(self):
        keys = ["a" * 64, "b" * 64, "c" * 64]
        manifests = [
            self._manifest(["fig5"], ShardSpec(i, 2), keys) for i in (1, 2)
        ]
        plan = validate_merge(manifests, [keys[:2], keys[2:]])
        assert plan.unit_keys == set(keys)

    def test_merge_refuses_command_mismatch(self):
        left = self._manifest(["fig5"], ShardSpec(1, 2), ["a" * 64])
        right = self._manifest(["fig6"], ShardSpec(2, 2), ["a" * 64])
        with pytest.raises(ShardMergeError, match="different commands"):
            validate_merge([left, right], [["a" * 64], []])

    def test_merge_refuses_diverging_unit_lists(self):
        left = self._manifest(["fig5"], ShardSpec(1, 2), ["a" * 64])
        right = self._manifest(["fig5"], ShardSpec(2, 2), ["b" * 64])
        with pytest.raises(ShardMergeError, match="different unit lists"):
            validate_merge([left, right], [["a" * 64], ["b" * 64]])

    def test_merge_refuses_overlapping_units(self):
        keys = ["a" * 64, "b" * 64]
        manifests = [self._manifest(["fig5"], ShardSpec(i, 2), keys) for i in (1, 2)]
        with pytest.raises(ShardMergeError, match="overlapping"):
            validate_merge(manifests, [keys, keys])

    def test_merge_refuses_missing_units(self):
        keys = ["a" * 64, "b" * 64]
        manifests = [self._manifest(["fig5"], ShardSpec(i, 2), keys) for i in (1, 2)]
        with pytest.raises(ShardMergeError, match="missing"):
            validate_merge(manifests, [keys[:1], []])


# ----------------------------------------------------------------------
# Sharded / resumed sweeps at the runner level
# ----------------------------------------------------------------------
class TestShardedSweep:
    def test_shards_partition_and_reassemble(self, fast_seo_config, tmp_path):
        configs = {
            "a": fast_seo_config,
            "b": dataclasses.replace(fast_seo_config, optimization="model_gating"),
            "c": dataclasses.replace(fast_seo_config, filtered=False),
        }
        jobs = sweep_jobs(configs, episodes=2)
        with SweepRunner(jobs=1) as runner:
            serial = runner.run(jobs)

        count = 2
        executed_total = 0
        for index in (1, 2):
            ledger = RunLedger(tmp_path / f"s{index}")
            shard = ShardSpec(index, count)
            with SweepRunner(jobs=1, ledger=ledger, shard=shard) as runner:
                try:
                    runner.run(jobs, experiment="demo")
                    # A shard that happens to own every unit returns normally.
                    assert runner.units_executed == len(jobs)
                except SweepIncomplete as incomplete:
                    assert incomplete.skipped > 0
                executed_total += runner.units_executed

        assert executed_total == len(jobs)  # exact cover, nothing run twice
        merged = RunLedger(tmp_path / "merged")
        merged.merge_from(RunLedger(tmp_path / "s1"))
        merged.merge_from(RunLedger(tmp_path / "s2"))
        with SweepRunner(jobs=1, ledger=merged, resume=True) as runner:
            reassembled = runner.run(jobs)
            assert runner.units_executed == 0
        assert reassembled == serial

    def test_resume_requires_ledger(self):
        with pytest.raises(ValueError, match="requires a ledger"):
            SweepRunner(jobs=1, resume=True)


# ----------------------------------------------------------------------
# CLI acceptance: shard + merge, resume
# ----------------------------------------------------------------------
SUITE_ARGS = ["suite", "--family", "narrow-road", "--episodes", "2", "--max-steps", "300"]


class TestDistributedCli:
    def test_three_shards_plus_merge_match_unsharded_serial(self, tmp_path):
        """Acceptance: 3-shard + merge output == unsharded serial output."""
        full = run(SUITE_ARGS + ["--output", str(tmp_path / "full.txt")])
        for index in (1, 2, 3):
            shard_output = run(
                SUITE_ARGS
                + [
                    "--shard", f"{index}/3",
                    "--ledger-dir", str(tmp_path / f"s{index}"),
                    "--resume",
                ]
            )
            assert shard_output == full or "owned by other shards" in shard_output
            assert (tmp_path / f"s{index}" / "manifest.json").exists()
        merged = run(
            [
                "merge",
                str(tmp_path / "s1"), str(tmp_path / "s2"), str(tmp_path / "s3"),
                "--into", str(tmp_path / "merged"),
                "--output", str(tmp_path / "merged.txt"),
            ]
        )
        assert merged == full
        assert (tmp_path / "merged.txt").read_text() == (
            tmp_path / "full.txt"
        ).read_text()

    def test_resume_reproduces_without_executing(self, tmp_path, monkeypatch):
        """Acceptance: a resumed ledger reproduces the reports with zero episodes."""
        ledger_dir = str(tmp_path / "ledger")
        fresh = run(SUITE_ARGS + ["--ledger-dir", ledger_dir])

        def explode(*args):
            raise AssertionError("an episode executed during a fully resumed run")

        monkeypatch.setattr(SEOFramework, "run_episode", explode)
        monkeypatch.setattr(sweep_module, "run_cells", explode)
        resumed = run(SUITE_ARGS + ["--ledger-dir", ledger_dir, "--resume"])
        assert resumed == fresh

    def test_shard_and_resume_require_ledger_dir(self):
        with pytest.raises(SystemExit):
            run(SUITE_ARGS + ["--shard", "1/2"])
        with pytest.raises(SystemExit):
            run(SUITE_ARGS + ["--resume"])

    def test_merge_refuses_overlapping_shards(self, tmp_path):
        run(SUITE_ARGS + ["--shard", "1/2", "--ledger-dir", str(tmp_path / "s1"),
                          "--resume"])
        with pytest.raises(SystemExit, match="overlapping|missing"):
            run(["merge", str(tmp_path / "s1"), str(tmp_path / "s1"),
                 "--into", str(tmp_path / "merged")])

    def test_merge_refuses_missing_units(self, tmp_path):
        # Merge only the shard dirs that do NOT own the sweep's units: the
        # owners' units are then declared but recorded nowhere.
        for index in (1, 2, 3):
            run(SUITE_ARGS + ["--shard", f"{index}/3",
                              "--ledger-dir", str(tmp_path / f"s{index}"), "--resume"])
        manifest = ShardManifest.load(tmp_path / "s1" / "manifest.json")
        owners = {
            index
            for index in (1, 2, 3)
            for key in manifest.units
            if ShardSpec(index, 3).assigns(key)
        }
        lacking = [
            str(tmp_path / f"s{index}") for index in (1, 2, 3) if index not in owners
        ]
        assert lacking, "a 3-way split of one unit leaves at least two empty shards"
        with pytest.raises(SystemExit, match="missing"):
            run(["merge", *lacking, "--into", str(tmp_path / "merged")])


# ----------------------------------------------------------------------
# Ledger report schema validation
# ----------------------------------------------------------------------
class TestReportSchema:
    def test_unknown_field_raises_clear_error(self, fast_seo_config):
        payload = report_to_jsonable(run_batch(SEOFramework(fast_seo_config), range(1))[0])
        payload["field_from_the_future"] = 1
        with pytest.raises(LedgerSchemaError, match="ledger schema mismatch"):
            report_from_jsonable(payload)

    def test_missing_field_raises_clear_error(self, fast_seo_config):
        payload = report_to_jsonable(run_batch(SEOFramework(fast_seo_config), range(1))[0])
        payload.pop("overall_gain")
        with pytest.raises(LedgerSchemaError, match="missing"):
            report_from_jsonable(payload)

    def test_non_object_payload_raises_clear_error(self):
        with pytest.raises(LedgerSchemaError, match="ledger schema mismatch"):
            report_from_jsonable(["not", "a", "report"])

    def test_mismatched_blob_is_a_resumable_miss(self, fast_seo_config, tmp_path):
        """A ledger blob from another report schema re-executes, not crashes."""
        reports = run_batch(SEOFramework(fast_seo_config), range(1))
        unit = WorkUnit.for_sweep(fast_seo_config, 1)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports)
        path = ledger.blob_path(unit.key)
        payloads = [report_to_jsonable(report) for report in reports]
        payloads[0]["field_from_the_future"] = 1
        np.savez_compressed(
            path, reports=np.array([json.dumps(entry) for entry in payloads])
        )
        assert RunLedger(tmp_path).get(unit) is None
