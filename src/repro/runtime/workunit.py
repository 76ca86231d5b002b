"""Content-addressed work units: the serializable currency of every sweep.

Every paper artifact is a sweep of independent ``(config, episode-range)``
jobs, and episodes are bit-deterministic functions of ``(SEOConfig, episode
index)``.  That makes the pair itself a complete, portable description of a
unit of work: two units with the same content produce the same reports on
any machine, any backend, any day.  This module gives that pair a canonical
serialized form and a stable content hash, which the rest of the distributed
layer is built on:

* :mod:`repro.runtime.ledger` keys completed results by unit hash, enabling
  ``--resume`` and cross-run reuse;
* :mod:`repro.runtime.shard` partitions unit lists deterministically by
  hash, so independent shards agree on who runs what without coordinating,
  and ``repro.cli merge`` reassembles the shards' ledgers.

Serialization is a reversible, closed-world mapping: every type reachable
from :class:`~repro.core.framework.SEOConfig` (the nested scenario, road
segments, compute/sensor specs and lookup grid) is a frozen dataclass
registered in :data:`_CONFIG_TYPES`.  An unregistered type is a hard error —
silently falling back to ``repr`` would make hashes unstable across runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any

from repro.core.framework import SEOConfig
from repro.core.lookup import LookupGrid
from repro.platform.compute import ComputeProfile
from repro.platform.sensors import SensorPowerSpec
from repro.sim.road import ArcSegment, StraightSegment
from repro.sim.scenario import ScenarioConfig

__all__ = [
    "WORKUNIT_SCHEMA_VERSION",
    "WorkUnit",
    "canonical_json",
    "config_from_jsonable",
    "config_to_jsonable",
    "from_jsonable",
    "to_jsonable",
]

#: Bump when the canonical serialization (and therefore every unit hash)
#: changes meaning, so ledgers written by older code are not silently reused.
WORKUNIT_SCHEMA_VERSION = 1

#: The closed world of dataclasses allowed inside an SEOConfig.  The mapping
#: name is part of the canonical form, so entries must never be renamed
#: without bumping :data:`WORKUNIT_SCHEMA_VERSION`.
_CONFIG_TYPES: dict[str, type] = {
    "SEOConfig": SEOConfig,
    "ScenarioConfig": ScenarioConfig,
    "ComputeProfile": ComputeProfile,
    "SensorPowerSpec": SensorPowerSpec,
    "LookupGrid": LookupGrid,
    "StraightSegment": StraightSegment,
    "ArcSegment": ArcSegment,
}

_TYPE_NAMES = {cls: name for name, cls in _CONFIG_TYPES.items()}


def to_jsonable(value: Any) -> Any:
    """Convert a config value into a canonical JSON-compatible structure.

    Dataclasses become ``{"__dc__": <type name>, "fields": {...}}``; tuples
    become ``{"__tuple__": [...]}`` (JSON has no tuple, and round-tripping
    through a list would break dataclass equality); numpy scalars collapse
    to their Python equivalents so the same physical config hashes the same
    regardless of how it was built.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    # Numpy scalars (configs built from numpy arithmetic must hash like
    # configs built from literals).  Checked by duck type to keep numpy an
    # import of the caller, not of the canonical form.
    item = getattr(value, "item", None)
    if item is not None and type(value).__module__ == "numpy":
        return to_jsonable(item())
    if isinstance(value, tuple):
        return {"__tuple__": [to_jsonable(entry) for entry in value]}
    if isinstance(value, list):
        return [to_jsonable(entry) for entry in value]
    if isinstance(value, dict):
        return {str(key): to_jsonable(entry) for key, entry in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = _TYPE_NAMES.get(type(value))
        if name is None:
            raise TypeError(
                f"{type(value).__name__} is not registered for work-unit "
                "serialization; add it to repro.runtime.workunit._CONFIG_TYPES"
            )
        fields = {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__dc__": name, "fields": fields}
    raise TypeError(
        f"cannot serialize {type(value).__name__!r} into a work unit"
    )


def from_jsonable(value: Any) -> Any:
    """Inverse of :func:`to_jsonable` (round trip preserves equality)."""
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(from_jsonable(entry) for entry in value["__tuple__"])
        if "__dc__" in value:
            name = value["__dc__"]
            cls = _CONFIG_TYPES.get(name)
            if cls is None:
                raise ValueError(f"unknown work-unit dataclass: {name!r}")
            fields = {
                key: from_jsonable(entry)
                for key, entry in value["fields"].items()
            }
            return cls(**fields)
        return {key: from_jsonable(entry) for key, entry in value.items()}
    if isinstance(value, list):
        return [from_jsonable(entry) for entry in value]
    return value


def config_to_jsonable(config: SEOConfig) -> Any:
    """Serialize an :class:`SEOConfig` (validating its type first)."""
    if not isinstance(config, SEOConfig):
        raise TypeError(f"expected SEOConfig, got {type(config).__name__}")
    return to_jsonable(config)


def config_from_jsonable(payload: Any) -> SEOConfig:
    """Rebuild an :class:`SEOConfig` from its canonical JSON structure."""
    config = from_jsonable(payload)
    if not isinstance(config, SEOConfig):
        raise ValueError("payload does not describe an SEOConfig")
    return config


def canonical_json(value: Any) -> str:
    """Render a jsonable structure to its canonical string form.

    Key order is sorted and separators are minimal, so equal values always
    produce byte-identical strings (floats rely on Python's shortest
    round-trip ``repr``, which is exact).  NaN/Inf are rejected: a config
    containing them has no stable canonical form.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One content-addressed unit of sweep work: a config and episode range.

    Attributes:
        config: The configuration to run.
        episode_start: First episode index (inclusive).
        episode_stop: One past the last episode index.
    """

    config: SEOConfig
    episode_start: int
    episode_stop: int

    def __post_init__(self) -> None:
        if self.episode_start < 0:
            raise ValueError("episode_start must be non-negative")
        if self.episode_stop <= self.episode_start:
            raise ValueError("episode range must be non-empty")

    @property
    def episodes(self) -> range:
        """The episode indices this unit covers."""
        return range(self.episode_start, self.episode_stop)

    def canonical(self) -> str:
        """Canonical string form of the unit (hash preimage)."""
        return canonical_json(
            {
                "schema": WORKUNIT_SCHEMA_VERSION,
                "config": config_to_jsonable(self.config),
                "episodes": [self.episode_start, self.episode_stop],
            }
        )

    @functools.cached_property
    def key(self) -> str:
        """Stable content hash of the unit (64 hex chars).

        Equal units have equal keys on every machine and every run; any
        change to any nested config field changes the key.  Memoized: the
        sweep/ledger/shard layers read it many times per unit, and the
        config walk + SHA-256 only ever produce one answer for a frozen
        dataclass.
        """
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    @classmethod
    def for_sweep(cls, config: SEOConfig, episodes: int) -> "WorkUnit":
        """The unit covering episodes ``0 .. episodes-1`` of a config."""
        return cls(config=config, episode_start=0, episode_stop=episodes)
