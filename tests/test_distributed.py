"""Tests for the distributed sweep layer: work units, ledger, shards, remote.

The acceptance bar (see ISSUE 4/5): a suite run as 3 shards + merge is
bit-identical to the unsharded serial run; a resumed ledger reproduces the
same reports without executing a single episode; the socket remote-worker
backend has report parity with the serial/process path on real experiment
drivers; and killing a worker mid-sweep either completes via reconnect or
fails with a clear ``RemoteWorkerError`` — never a hang.
"""

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import run
from repro.core.framework import SEOFramework
from repro.runtime import executor as executor_module
from repro.runtime.executor import SerialExecutor, run_ranges
from repro.runtime.ledger import (
    LedgerSchemaError,
    RunLedger,
    report_from_jsonable,
    report_to_jsonable,
)
from repro.runtime.remote import (
    _HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RemoteWorkerError,
    SocketWorkerPool,
    WorkerServer,
    WorkerSession,
    _SocketTransport,
    _validate_handshake,
    parse_worker_address,
    read_frame_async,
    write_frame_async,
)
from repro.runtime.shard import (
    ShardManifest,
    ShardMergeError,
    ShardSpec,
    validate_merge,
)
from repro.runtime.sweep import SweepIncomplete, SweepRunner, sweep_jobs
from repro.runtime.workunit import (
    WORKUNIT_SCHEMA_VERSION,
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
        numpyish = dataclasses.replace(
            fast_seo_config, target_speed_mps=np.float64(8.0), seed=int(np.int64(5))
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
        reports = SerialExecutor().run(fast_seo_config, 2)
        unit = WorkUnit.for_sweep(fast_seo_config, 2)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports, label="a", experiment="demo")
        assert RunLedger(tmp_path).get(unit) == reports

    def test_report_json_round_trip_preserves_inf(self, fast_seo_config):
        report = SerialExecutor().run(fast_seo_config, 1)[0]
        report.min_obstacle_distance_m = float("inf")
        payload = json.loads(json.dumps(report_to_jsonable(report)))
        assert report_from_jsonable(payload) == report

    def test_put_is_idempotent(self, fast_seo_config, tmp_path):
        reports = SerialExecutor().run(fast_seo_config, 1)
        unit = WorkUnit.for_sweep(fast_seo_config, 1)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports)
        ledger.put(unit, reports)
        assert len(ledger) == 1
        assert len(ledger.index_path.read_text().splitlines()) == 1

    def test_truncated_trailing_index_line_is_tolerated(
        self, fast_seo_config, tmp_path
    ):
        reports = SerialExecutor().run(fast_seo_config, 1)
        unit = WorkUnit.for_sweep(fast_seo_config, 1)
        ledger = RunLedger(tmp_path)
        ledger.put(unit, reports)
        with ledger.index_path.open("a") as stream:
            stream.write('{"unit": "dead', )  # crash mid-append
        survivor = RunLedger(tmp_path)
        assert len(survivor) == 1
        assert survivor.get(unit) == reports

    def test_missing_blob_is_a_miss(self, fast_seo_config, tmp_path):
        reports = SerialExecutor().run(fast_seo_config, 1)
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
        reports = SerialExecutor().run(fast_seo_config, 1)
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
        reports = SerialExecutor().run(fast_seo_config, 1)
        unit = WorkUnit.for_sweep(fast_seo_config, 2)
        with pytest.raises(ValueError):
            RunLedger(tmp_path).put(unit, reports)

    def test_merge_from_copies_missing_units(self, fast_seo_config, tmp_path):
        other_config = dataclasses.replace(fast_seo_config, seed=9)
        unit_a = WorkUnit.for_sweep(fast_seo_config, 1)
        unit_b = WorkUnit.for_sweep(other_config, 1)
        left = RunLedger(tmp_path / "left")
        right = RunLedger(tmp_path / "right")
        left.put(unit_a, SerialExecutor().run(fast_seo_config, 1))
        right.put(unit_b, SerialExecutor().run(other_config, 1))
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
# Remote worker protocol
# ----------------------------------------------------------------------
class _BufferWriter:
    """The slice of ``asyncio.StreamWriter`` that ``write_frame_async`` uses."""

    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    async def drain(self):
        pass


def _encode_frames(*payloads):
    """Bytes of ``payloads`` framed by ``write_frame_async``."""
    writer = _BufferWriter()

    async def scenario():
        for payload in payloads:
            await write_frame_async(writer, payload)

    asyncio.run(scenario())
    return writer.data


def _decode_frames(data, count):
    """Read ``count`` frames (``None`` at clean EOF) back out of ``data``."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [await read_frame_async(reader) for _ in range(count)]

    return asyncio.run(scenario())


class TestRemoteProtocol:
    def test_frame_round_trip(self):
        payload = {"op": "run", "ranges": [[{"x": [1.5, None, "s"]}, 0, 3]]}
        # The second read hits a clean EOF at a frame boundary.
        assert _decode_frames(_encode_frames(payload), 2) == [payload, None]

    def test_truncated_frame_raises(self):
        data = _encode_frames({"op": "run"})
        with pytest.raises(RemoteWorkerError, match="truncated frame payload"):
            _decode_frames(data[:-2], 1)
        with pytest.raises(RemoteWorkerError, match="truncated frame header"):
            _decode_frames(data[:2], 1)

    def _serve(self, requests):
        """Replies of one worker session, up to the first shutdown."""
        session = WorkerSession()
        replies = []
        for request in requests:
            reply = session.handle(request)
            if reply is None:
                break
            replies.append(reply)
        return replies

    def test_worker_runs_episodes_bit_identically(self, fast_seo_config):
        gating = dataclasses.replace(fast_seo_config, optimization="model_gating")
        expected = [
            SerialExecutor().run_range(fast_seo_config, 0, 2),
            SerialExecutor().run_range(gating, 1, 3),
            SerialExecutor().run_range(fast_seo_config, 2, 3),
        ]
        payload = config_to_jsonable(fast_seo_config)
        replies = self._serve(
            [
                {"op": "init", "cache_dir": None},
                {
                    "op": "run",
                    "ranges": [[payload, 0, 2], [config_to_jsonable(gating), 1, 3]],
                },
                {"op": "run", "ranges": [[payload, 2, 3]]},
                {"op": "shutdown"},
            ]
        )
        assert [reply["ok"] for reply in replies] == [True, True, True]
        cells = [
            [report_from_jsonable(item) for item in cell]
            for reply in replies[1:]
            for cell in reply["reports"]
        ]
        assert cells == expected

    def test_worker_reports_errors_with_traceback(self, fast_seo_config):
        replies = self._serve(
            [
                {"op": "init", "cache_dir": None},
                {"op": "run", "ranges": [[{"__dc__": "NoSuchThing", "fields": {}}, 0, 1]]},
                {"op": "explode"},
            ]
        )
        assert replies[0]["ok"] is True
        assert replies[1]["ok"] is False and "NoSuchThing" in replies[1]["error"]
        assert replies[2]["ok"] is False and "unknown op" in replies[2]["error"]


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
        monkeypatch.setattr(executor_module, "run_cells", explode)
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
# Frame hygiene: length cap
# ----------------------------------------------------------------------
class TestFrameCap:
    def test_async_reader_rejects_oversized_header(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(_HEADER.pack(2**31))
            reader.feed_eof()
            await read_frame_async(reader)

        with pytest.raises(RemoteWorkerError, match="cap"):
            asyncio.run(scenario())

    def test_frame_at_the_cap_boundary_is_fine(self):
        """A header announcing exactly MAX_FRAME_BYTES passes the cap check
        (the read then fails only because the payload is not there)."""
        assert _decode_frames(_encode_frames({"op": "run"}), 1) == [{"op": "run"}]
        with pytest.raises(RemoteWorkerError, match="truncated frame payload"):
            _decode_frames(_HEADER.pack(MAX_FRAME_BYTES) + b"{}", 1)

    def test_transport_normalizes_undecodable_frames(self):
        """A non-JSON reply must surface as RemoteWorkerError, the one
        signal the dispatcher retires workers on — a raw JSONDecodeError
        would leak the slot and hang the sweep."""
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(_HEADER.pack(9) + b"\xfe\xfd not js")
            reader.feed_eof()
            transport = _SocketTransport(reader, writer=None, description="peer")
            await transport.recv()

        with pytest.raises(RemoteWorkerError, match="undecodable"):
            asyncio.run(scenario())


# ----------------------------------------------------------------------
# Handshake / protocol versioning
# ----------------------------------------------------------------------
class TestHandshake:
    def test_worker_session_advertises_versions(self):
        reply = WorkerSession().handle(
            {"op": "hello", "protocol": PROTOCOL_VERSION,
             "schema": WORKUNIT_SCHEMA_VERSION}
        )
        assert reply == {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "schema": WORKUNIT_SCHEMA_VERSION,
        }

    def test_matching_versions_accepted(self):
        _validate_handshake(
            {"ok": True, "protocol": PROTOCOL_VERSION,
             "schema": WORKUNIT_SCHEMA_VERSION},
            "worker",
        )

    def test_protocol_v1_worker_is_refused(self, monkeypatch, fast_seo_config):
        """A worker speaking the one-episode protocol v1 is refused at
        connect time, and the error names both versions."""
        handle = WorkerSession.handle

        def v1_handle(session, request):
            reply = handle(session, request)
            if request.get("op") == "hello":
                reply = {**reply, "protocol": 1}
            return reply

        monkeypatch.setattr(WorkerSession, "handle", v1_handle)
        server = WorkerServer()
        pool = SocketWorkerPool([server.address], max_respawns=0)
        try:
            future = pool.submit(run_ranges, [(fast_seo_config, 0, 1)])
            with pytest.raises(RemoteWorkerError) as error:
                future.result(timeout=120)
        finally:
            pool.shutdown()
            server.stop()
        assert PROTOCOL_VERSION == 2
        assert "speaks protocol v1" in str(error.value)
        assert f"requires protocol v{PROTOCOL_VERSION}" in str(error.value)

    @pytest.mark.parametrize(
        "reply",
        [
            {"ok": True, "protocol": 999, "schema": WORKUNIT_SCHEMA_VERSION},
            {"ok": True, "protocol": PROTOCOL_VERSION, "schema": 999},
            {"ok": True},  # a peer that predates the handshake
            {"ok": False, "error": "nope"},
        ],
    )
    def test_version_mismatch_is_refused(self, reply):
        with pytest.raises(RemoteWorkerError):
            _validate_handshake(reply, "worker")

    def test_parse_worker_address(self):
        assert parse_worker_address("127.0.0.1:7070") == ("127.0.0.1", 7070)
        assert parse_worker_address("[::1]:7070") == ("::1", 7070)
        for bad in ("nohost", "host:", "host:abc", ":1", "host:70000"):
            with pytest.raises(ValueError):
                parse_worker_address(bad)


# ----------------------------------------------------------------------
# Ledger report schema validation
# ----------------------------------------------------------------------
class TestReportSchema:
    def test_unknown_field_raises_clear_error(self, fast_seo_config):
        payload = report_to_jsonable(SerialExecutor().run(fast_seo_config, 1)[0])
        payload["field_from_the_future"] = 1
        with pytest.raises(LedgerSchemaError, match="ledger schema mismatch"):
            report_from_jsonable(payload)

    def test_missing_field_raises_clear_error(self, fast_seo_config):
        payload = report_to_jsonable(SerialExecutor().run(fast_seo_config, 1)[0])
        payload.pop("overall_gain")
        with pytest.raises(LedgerSchemaError, match="missing"):
            report_from_jsonable(payload)

    def test_non_object_payload_raises_clear_error(self):
        with pytest.raises(LedgerSchemaError, match="ledger schema mismatch"):
            report_from_jsonable(["not", "a", "report"])

    def test_mismatched_blob_is_a_resumable_miss(self, fast_seo_config, tmp_path):
        """A ledger blob from another report schema re-executes, not crashes."""
        reports = SerialExecutor().run(fast_seo_config, 1)
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


# ----------------------------------------------------------------------
# Crash paths: killed workers reconnect or fail fast — never hang
# ----------------------------------------------------------------------
def _submit(pool, config, episode):
    """Dispatch one episode as a one-range task."""
    return pool.submit(run_ranges, [(config, episode, episode + 1)])


def _report(future):
    """The one report of a one-range, one-episode task."""
    [[report]] = future.result(timeout=300)
    return report


def _kill_connection(pool, slot=0):
    """Abort a slot's TCP connection from the dispatcher's side, on its loop.

    The worker behind it keeps listening, exactly as when a network blip
    or a worker restart drops one connection.
    """

    async def abort():
        pool._transports[slot].writer.transport.abort()

    asyncio.run_coroutine_threadsafe(abort(), pool._loop).result(timeout=30)


class TestWorkerCrash:
    def test_killed_socket_connection_is_reconnected(self, fast_seo_config):
        expected = SerialExecutor().run(fast_seo_config, 2)
        server = WorkerServer()
        pool = SocketWorkerPool([server.address], max_respawns=1)
        try:
            first = _report(_submit(pool, fast_seo_config, 0))
            _kill_connection(pool)
            # The run frame for episode 1 hits the dead connection; the
            # dispatcher must retire it, reconnect the slot to the still
            # listening worker and re-dispatch the episode.
            second = _report(_submit(pool, fast_seo_config, 1))
        finally:
            pool.shutdown()
            server.stop()
        assert [first, second] == expected
        assert pool.respawns == 1

    def test_exhausted_respawn_budget_fails_fast(self, fast_seo_config):
        server = WorkerServer()
        pool = SocketWorkerPool([server.address], max_respawns=0)
        try:
            _submit(pool, fast_seo_config, 0).result(timeout=300)
            _kill_connection(pool)
            # Several episodes queue onto the one (dead) connection: the
            # first retires it, and the parked ones must be woken with the
            # same error instead of waiting forever on the idle queue.
            futures = [_submit(pool, fast_seo_config, episode) for episode in (1, 2, 3)]
            for future in futures:
                with pytest.raises(RemoteWorkerError, match="dead"):
                    future.result(timeout=120)
            assert pool.lost_slots == 1
            assert pool.respawns == 0
        finally:
            pool.shutdown()
            server.stop()

    def test_killed_socket_worker_shifts_load_to_survivor(self, fast_seo_config):
        expected = SerialExecutor().run(fast_seo_config, 4)
        servers = [WorkerServer(), WorkerServer()]
        pool = SocketWorkerPool([server.address for server in servers])
        try:
            reports = [
                _report(_submit(pool, fast_seo_config, episode))
                for episode in (0, 1)
            ]
            servers[1].stop()  # as abrupt as a machine dying mid-sweep
            reports += [
                _report(_submit(pool, fast_seo_config, episode))
                for episode in (2, 3)
            ]
        finally:
            pool.shutdown()
            for server in servers:
                server.stop()
        assert reports == expected

    def test_all_socket_workers_dead_fails_fast(self, fast_seo_config):
        server = WorkerServer()
        pool = SocketWorkerPool([server.address], max_respawns=1)
        try:
            _submit(pool, fast_seo_config, 0).result(timeout=300)
            server.stop()
            future = _submit(pool, fast_seo_config, 1)
            with pytest.raises(RemoteWorkerError, match="dead"):
                future.result(timeout=120)
        finally:
            pool.shutdown()
            server.stop()

    def test_unreachable_socket_worker_fails_fast(self, fast_seo_config):
        # Port 1 is never served on localhost: the very first connect fails.
        pool = SocketWorkerPool(["127.0.0.1:1"], max_respawns=0)
        try:
            with pytest.raises(RemoteWorkerError, match="cannot connect"):
                _submit(pool, fast_seo_config, 0).result(timeout=120)
        finally:
            pool.shutdown()

    def test_unresponsive_socket_worker_fails_the_handshake(
        self, fast_seo_config, monkeypatch
    ):
        """A peer that accepts TCP but never replies must not stall the
        sweep: the connect-time handshake is bounded by a timeout."""
        import socket as socket_module

        from repro.runtime import remote as remote_module

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)  # accepts connections, never speaks
        host, port = listener.getsockname()
        monkeypatch.setattr(remote_module, "HANDSHAKE_TIMEOUT_S", 0.5)
        pool = SocketWorkerPool([f"{host}:{port}"], max_respawns=0)
        try:
            with pytest.raises(RemoteWorkerError, match="handshake"):
                _submit(pool, fast_seo_config, 0).result(timeout=120)
        finally:
            pool.shutdown()
            listener.close()

    def test_shutdown_cancels_parked_futures(self, fast_seo_config):
        """Teardown with in-flight episodes resolves every future promptly.

        Regression: futures whose coroutines were still parked on the idle
        queue used to outlive the dispatch loop, so waiting on them after
        shutdown hung forever.
        """
        server = WorkerServer()
        pool = SocketWorkerPool([server.address])
        try:
            futures = [_submit(pool, fast_seo_config, episode) for episode in range(4)]
            time.sleep(0.2)  # let the pool connect and start episode 0
            started = time.monotonic()
            pool.shutdown(cancel_futures=True)
            assert time.monotonic() - started < 60.0
            assert all(future.done() for future in futures)
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Socket backend: parity with serial at every level
# ----------------------------------------------------------------------
class TestSocketBackend:
    def test_sweep_runner_parity_with_serial(self, fast_seo_config):
        """Acceptance: socket sweeps over two workers == the serial reports."""
        configs = {
            "offload": fast_seo_config,
            "gating": dataclasses.replace(fast_seo_config, optimization="model_gating"),
        }
        with SweepRunner(jobs=1) as runner:
            serial = runner.run(sweep_jobs(configs, episodes=2))
        servers = [WorkerServer(), WorkerServer()]
        try:
            with SweepRunner(
                backend="socket", workers=[server.address for server in servers]
            ) as runner:
                remote = runner.run(sweep_jobs(configs, episodes=2))
                assert runner.pools_created == 1
                assert runner.workers == 2
        finally:
            for server in servers:
                server.stop()
        assert remote == serial

    def test_single_address_still_dispatches_remotely(self, fast_seo_config):
        server = WorkerServer()
        try:
            with SweepRunner(backend="socket", workers=[server.address]) as runner:
                reports = runner.run_one(fast_seo_config, 2)
                assert runner.pools_created == 1  # no serial degradation
        finally:
            server.stop()
        assert reports == SerialExecutor().run(fast_seo_config, 2)

    def test_socket_runner_requires_addresses(self):
        with pytest.raises(ValueError, match="worker addresses"):
            SweepRunner(backend="socket")
        with pytest.raises(ValueError, match="only valid"):
            SweepRunner(jobs=2, workers=["127.0.0.1:7070"])

    def test_submit_after_shutdown_raises(self, fast_seo_config):
        # Connections open lazily, so no worker is needed at this address.
        pool = SocketWorkerPool(["127.0.0.1:1"])
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(RuntimeError, match="shut down"):
            _submit(pool, fast_seo_config, 0)

    def test_submit_refuses_other_tasks(self, fast_seo_config):
        pool = SocketWorkerPool(["127.0.0.1:1"])
        try:
            with pytest.raises(ValueError, match="only run_ranges"):
                pool.submit(SerialExecutor().run_ranges, [(fast_seo_config, 0, 1)])
        finally:
            pool.shutdown()

    def test_settings_validate_socket_workers(self):
        from repro.experiments.common import ExperimentSettings

        with pytest.raises(ValueError, match="worker addresses"):
            ExperimentSettings(backend="socket")
        with pytest.raises(ValueError, match="only valid"):
            ExperimentSettings(workers=("127.0.0.1:7070",))
        settings = ExperimentSettings(backend="socket", workers=("127.0.0.1:7070",))
        assert settings.workers == ("127.0.0.1:7070",)


class TestSocketCli:
    def test_socket_parity_on_two_drivers(self):
        """Acceptance: suite + table3 over two localhost socket workers are
        bit-identical to the serial run."""
        servers = [WorkerServer(), WorkerServer()]
        addresses = ",".join(server.address for server in servers)
        socket_flags = ["--backend", "socket", "--workers", addresses]
        try:
            table3_args = ["table3", "--episodes", "1", "--max-steps", "300"]
            assert run(table3_args + socket_flags) == run(table3_args)
            assert run(SUITE_ARGS + socket_flags) == run(SUITE_ARGS)
        finally:
            for server in servers:
                server.stop()

    def test_worker_subcommand_end_to_end(self):
        """`repro.cli worker --listen` subprocesses serve a real sweep."""
        import repro

        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            entry for entry in (src_dir, env.get("PYTHONPATH")) if entry
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("worker listening on ")
            address = line.split()[-1]
            remote = run(SUITE_ARGS + ["--backend", "socket", "--workers", address])
            assert remote == run(SUITE_ARGS)
        finally:
            proc.kill()
            proc.wait()

    def test_socket_backend_requires_workers_flag(self):
        with pytest.raises(SystemExit, match="--workers"):
            run(SUITE_ARGS + ["--backend", "socket"])
        with pytest.raises(SystemExit, match="--backend socket"):
            run(SUITE_ARGS + ["--workers", "127.0.0.1:7070"])

    def test_malformed_worker_address_rejected_upfront(self):
        """A typo'd address must die before the sweep starts, not as a raw
        traceback when the first batch lazily opens the pool."""
        for bad in ("hostA", "hostA:nan", "hostA:7070,hostB"):
            with pytest.raises(SystemExit, match="worker address"):
                run(SUITE_ARGS + ["--backend", "socket", "--workers", bad])

    def test_worker_subcommand_rejects_bad_listen_address(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            run(["worker", "--listen", "nohost"])
