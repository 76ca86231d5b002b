"""Append-only on-disk run ledger keyed by work-unit content hash.

A ledger directory records every completed :class:`~repro.runtime.workunit.
WorkUnit` of one or more sweep runs:

* ``ledger.jsonl`` — one JSON line per completed unit (hash, label,
  experiment, episode range, blob filename).  Appended after the unit's
  reports are durably on disk, so a crash mid-run loses at most the unit in
  flight; a truncated trailing line is tolerated on load.
* ``units/<hash>.npz`` — the unit's :class:`~repro.core.framework.
  EpisodeReport` list, serialized to JSON strings inside a compressed
  ``.npz`` blob.

Because units are content-addressed, a ledger entry is valid for *any* run
that asks for the same unit: ``--resume`` loads completed units
bit-identically instead of re-executing them, shard runs each fill their own
ledger, and ``repro.cli merge`` combines shard ledgers into one directory
that can reproduce the full artifact without running a single episode.

Float fidelity: reports round-trip through JSON exactly (Python's ``repr``
of a float is shortest-round-trip), so a resumed run's reports compare equal
to freshly computed ones.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.framework import EpisodeReport
from repro.runtime.workunit import WORKUNIT_SCHEMA_VERSION, WorkUnit

__all__ = [
    "LedgerSchemaError",
    "RunLedger",
    "report_from_jsonable",
    "report_to_jsonable",
]


class LedgerSchemaError(ValueError):
    """A serialized report does not match this code's report schema.

    Raised instead of letting ``EpisodeReport(**payload)`` die with an
    opaque ``TypeError`` when a ledger blob was written by code with a
    different ``EpisodeReport`` shape.
    """


#: The exact field set a serialized report must carry: ``report_to_jsonable``
#: always emits every dataclass field, so anything else is another schema.
_REPORT_FIELDS = frozenset(
    field.name for field in dataclasses.fields(EpisodeReport)
)


def _plain(value: Any) -> Any:
    """Collapse numpy scalars/containers into plain JSON-compatible values."""
    if isinstance(value, dict):
        return {str(key): _plain(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def report_to_jsonable(report: EpisodeReport) -> dict[str, Any]:
    """Serialize one episode report to a JSON-compatible dict."""
    return _plain(dataclasses.asdict(report))


def report_from_jsonable(payload: dict[str, Any]) -> EpisodeReport:
    """Rebuild an :class:`EpisodeReport` from :func:`report_to_jsonable`.

    Raises:
        LedgerSchemaError: If the payload's field set does not match this
            code's ``EpisodeReport`` — i.e. the blob/frame was produced by
            a different schema version.
    """
    if not isinstance(payload, dict):
        raise LedgerSchemaError(
            "ledger schema mismatch: report payload is "
            f"{type(payload).__name__}, not an object (this code is "
            f"work-unit schema v{WORKUNIT_SCHEMA_VERSION})"
        )
    unknown = sorted(set(payload) - _REPORT_FIELDS)
    missing = sorted(_REPORT_FIELDS - set(payload))
    if unknown or missing:
        details = []
        if unknown:
            details.append(f"unknown field(s) {unknown}")
        if missing:
            details.append(f"missing field(s) {missing}")
        raise LedgerSchemaError(
            "ledger schema mismatch: report has "
            + " and ".join(details)
            + f" (this code is work-unit schema v{WORKUNIT_SCHEMA_VERSION}; "
            "the blob was likely written by a different version)"
        )
    return EpisodeReport(**payload)


class RunLedger:
    """Append-only record of completed work units in one directory.

    Attributes:
        root: Ledger directory (created on first write).
    """

    INDEX_NAME = "ledger.jsonl"
    BLOB_DIR = "units"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._index: dict[str, dict[str, Any]] = {}
        self._load_index()

    # ------------------------------------------------------------------
    # Index
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        """Path of the JSONL index file."""
        return self.root / self.INDEX_NAME

    def blob_path(self, unit_key: str) -> Path:
        """Path of the report blob for one unit hash."""
        return self.root / self.BLOB_DIR / f"{unit_key}.npz"

    def _load_index(self) -> None:
        if not self.index_path.exists():
            return
        for line in self.index_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A crash mid-append leaves a truncated trailing line; the
                # unit it described was not durably recorded, so skip it.
                continue
            if not isinstance(record, dict) or "unit" not in record:
                continue
            if record.get("schema") != WORKUNIT_SCHEMA_VERSION:
                continue
            self._index[record["unit"]] = record

    def keys(self) -> list[str]:
        """Hashes of every recorded unit."""
        return list(self._index)

    def record(self, unit_key: str) -> dict[str, Any] | None:
        """The index record of one unit hash, or ``None``."""
        return self._index.get(unit_key)

    def __contains__(self, unit_key: str) -> bool:
        return unit_key in self._index

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, unit: WorkUnit) -> list[EpisodeReport] | None:
        """Load the recorded reports of a unit, or ``None`` on any miss.

        A recorded entry whose blob is missing or unreadable is treated as a
        miss (the caller re-executes and overwrites), never as an error.
        """
        record = self._index.get(unit.key)
        if record is None:
            return None
        path = self.blob_path(unit.key)
        try:
            with np.load(path) as blob:
                payloads = [json.loads(entry) for entry in blob["reports"]]
            reports = [report_from_jsonable(payload) for payload in payloads]
        except Exception:
            reports = None
        if reports is not None and [report.episode for report in reports] != list(
            unit.episodes
        ):
            reports = None
        if reports is None:
            # Evict the stale index entry so the caller's re-execution (and
            # its put()) rewrites the blob instead of being skipped — a unit
            # with a corrupt blob would otherwise re-execute on every resume
            # forever.
            self._index.pop(unit.key, None)
        return reports

    def put(
        self,
        unit: WorkUnit,
        reports: list[EpisodeReport],
        label: str | None = None,
        experiment: str | None = None,
    ) -> None:
        """Record a completed unit (idempotent: an existing entry is kept).

        The blob is written before the index line is appended, so an entry
        visible in the index always has its reports on disk.
        """
        if unit.key in self._index and self.blob_path(unit.key).exists():
            return
        if [report.episode for report in reports] != list(unit.episodes):
            raise ValueError("reports do not cover the unit's episode range")
        path = self.blob_path(unit.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            reports=np.array(
                [json.dumps(report_to_jsonable(report)) for report in reports]
            ),
        )
        record = {
            "schema": WORKUNIT_SCHEMA_VERSION,
            "unit": unit.key,
            "episodes": [unit.episode_start, unit.episode_stop],
            "label": label,
            "experiment": experiment,
            "blob": f"{self.BLOB_DIR}/{unit.key}.npz",
        }
        with self.index_path.open("a") as stream:
            stream.write(json.dumps(record) + "\n")
        self._index[unit.key] = record

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge_from(self, other: "RunLedger") -> int:
        """Copy every unit of ``other`` not already present; return the count."""
        copied = 0
        for unit_key, record in other._index.items():
            if unit_key in self._index:
                continue
            source = other.blob_path(unit_key)
            if not source.exists():
                continue
            target = self.blob_path(unit_key)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, target)
            with self.index_path.open("a") as stream:
                stream.write(json.dumps(record) + "\n")
            self._index[unit_key] = record
            copied += 1
        return copied
