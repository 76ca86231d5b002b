"""JSON form of an episode report.

:func:`report_to_jsonable` turns an :class:`~repro.core.framework.
EpisodeReport` into plain JSON values: the golden report corpus and the
benchmark digest reports through it.  Floats survive a JSON round trip
exactly (Python's ``repr`` of a float is shortest-round-trip), so
``EpisodeReport(**json.loads(json.dumps(report_to_jsonable(report))))``
equals ``report``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.core.framework import EpisodeReport

__all__ = ["report_to_jsonable"]


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
