"""Protocol fixture: frames matching the documented schema."""

from __future__ import annotations

from typing import Any


def report_to_jsonable(report: Any) -> dict[str, Any]:
    return {"outcome": str(report)}


def report_from_jsonable(payload: dict[str, Any]) -> Any:
    return payload["outcome"]


def produce(payload: Any) -> list[dict[str, Any]]:
    return [
        {"op": "hello", "protocol": 2, "schema": 1},
        {"op": "init", "cache_dir": None},
        {"op": "run", "ranges": [[payload, 0, 2]]},
        {"op": "shutdown"},
    ]


def respond(request: dict[str, Any], cells: list[list[Any]]) -> dict[str, Any]:
    if request.get("op") == "run":
        _ = request["ranges"]
        return {
            "ok": True,
            "reports": [[report_to_jsonable(report) for report in cell] for cell in cells],
        }
    return {"ok": False, "error": "boom"}


def consume(reply: dict[str, Any]) -> list[list[Any]]:
    if not reply.get("ok"):
        raise RuntimeError(reply.get("error"))
    return [[report_from_jsonable(item) for item in cell] for cell in reply["reports"]]
