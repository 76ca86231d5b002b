"""Protocol fixture: one violation per protocol code."""

from __future__ import annotations

from typing import Any


def produce(payload: Any) -> list[dict[str, Any]]:
    return [
        {"op": "frobnicate"},  # line 10: REPRO401 (unknown op)
        {"op": "run", "ranges": [[payload, 0, 1]], "shard": 0},  # line 11: REPRO402
        {"ok": True, "shard": 0},  # line 12: REPRO404 (field outside reply set)
        {"ok": True, "reports": [[{"outcome": "raw"}]]},  # line 13: REPRO403 (hand-rolled reports)
    ]


def consume(request: dict[str, Any], reply: dict[str, Any]) -> Any:
    _ = request["shard"]  # line 18: REPRO405 (unknown request field)
    decoded = [list(cell) for cell in reply["reports"]]  # line 19: REPRO406 (reports not decoded)
    return decoded, reply.get("extra")  # line 20: REPRO405 (unknown reply field)
