"""REPRO401–406 — remote protocol frames match the documented schema.

The worker protocol in :mod:`repro.runtime.remote` is a closed set of
length-prefixed JSON frames: requests ``hello`` / ``init`` / ``run`` /
``shutdown`` and replies keyed on ``"ok"``.  Both ends are in this repo
today, but they do not have to run the *same build* — the handshake only
compares version numbers, so a field added on one side and not the other
slips through review silently and fails at runtime on a live sweep.

This checker pins the frame shapes structurally in ``remote.py``:

* ``REPRO401`` — request frame whose ``"op"`` is not a literal from the
  known op set (a dynamic op cannot be checked and will not be handled);
* ``REPRO402`` — request frame whose key set differs from the schema for
  its op (or a frame built with non-literal keys);
* ``REPRO403`` — reply ``"reports"`` (nested lists) whose elements are
  not built by :func:`~repro.runtime.ledger.report_to_jsonable` (the only
  encoder whose field set ``report_from_jsonable`` validates);
* ``REPRO404`` — reply frame carrying a field outside the validated
  reply set;
* ``REPRO405`` — consuming a ``request``/``reply`` field that no frame
  produces;
* ``REPRO406`` — consuming ``reply["reports"]`` other than by decoding
  each element through :func:`~repro.runtime.ledger.report_from_jsonable`
  (which is where schema-drift errors are raised with a useful message).
"""

from __future__ import annotations

import ast

from repro.lint.framework import SourceFile, Violation

__all__ = [
    "CODES",
    "REPLY_FIELDS",
    "REQUEST_FRAMES",
    "check_protocol",
    "in_scope",
]

CODES = ("REPRO401", "REPRO402", "REPRO403", "REPRO404", "REPRO405", "REPRO406")

_SCOPE_FILES = frozenset({"runtime/remote.py"})

#: The documented request frames: op -> exact field set.
REQUEST_FRAMES: dict[str, frozenset[str]] = {
    "hello": frozenset({"op", "protocol", "schema"}),
    "init": frozenset({"op", "cache_dir"}),
    "run": frozenset({"op", "ranges"}),
    "shutdown": frozenset({"op"}),
}

#: Every field any reply frame may carry (validated by the dispatcher).
REPLY_FIELDS = frozenset({"ok", "protocol", "schema", "reports", "error"})

_REQUEST_FIELDS = frozenset().union(*REQUEST_FRAMES.values())

#: Names treated as protocol frames when subscripted / ``.get``-ed.
_REQUEST_VARS = frozenset({"request"})
_REPLY_VARS = frozenset({"reply"})


def in_scope(relpath: str) -> bool:
    return relpath in _SCOPE_FILES


def _literal_keys(node: ast.Dict) -> dict[str, ast.expr] | None:
    """Key -> value map if every key is a string literal, else ``None``."""
    mapping: dict[str, ast.expr] = {}
    for key, value in zip(node.keys, node.values, strict=True):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        mapping[key.value] = value
    return mapping


def _element(node: ast.expr) -> ast.expr:
    """The element a (nested) list comprehension builds, else ``node``."""
    while isinstance(node, ast.ListComp):
        node = node.elt
    return node


def _call_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def check_protocol(source_file: SourceFile) -> list[Violation]:
    violations: list[Violation] = []
    path = str(source_file.path)

    def report(node: ast.AST, code: str, message: str) -> None:
        violations.append(
            Violation(
                path=path, line=getattr(node, "lineno", 1), code=code,
                message=message,
            )
        )

    # Subscripts iterated by a comprehension of report_from_jsonable calls
    # (by node identity: ``[[report_from_jsonable(x) ...] for cell in reply["reports"]]``).
    decoded: set[int] = set()
    for node in ast.walk(source_file.tree):
        if (
            isinstance(node, ast.ListComp)
            and _call_name(_element(node)) == "report_from_jsonable"
        ):
            decoded.update(id(generator.iter) for generator in node.generators)

    for node in ast.walk(source_file.tree):
        if isinstance(node, ast.Dict):
            fields = _literal_keys(node)
            if fields is None:
                if any(
                    isinstance(key, ast.Constant) and key.value in ("op", "ok")
                    for key in node.keys
                    if key is not None
                ):
                    report(
                        node, "REPRO402",
                        "protocol frame built with non-literal keys cannot "
                        "be checked against the frame schema",
                    )
                continue
            if "op" in fields:
                op_node = fields["op"]
                if not (
                    isinstance(op_node, ast.Constant)
                    and isinstance(op_node.value, str)
                ):
                    report(
                        node, "REPRO401",
                        'request frame "op" must be a string literal from '
                        f"the known op set {sorted(REQUEST_FRAMES)}",
                    )
                elif op_node.value not in REQUEST_FRAMES:
                    report(
                        node, "REPRO401",
                        f"unknown request op {op_node.value!r}; known ops: "
                        f"{sorted(REQUEST_FRAMES)}",
                    )
                else:
                    expected = REQUEST_FRAMES[op_node.value]
                    produced = frozenset(fields)
                    if produced != expected:
                        extra = sorted(produced - expected)
                        missing = sorted(expected - produced)
                        details = []
                        if extra:
                            details.append(f"extra field(s) {extra}")
                        if missing:
                            details.append(f"missing field(s) {missing}")
                        report(
                            node, "REPRO402",
                            f"{op_node.value!r} frame does not match its "
                            f"schema: {'; '.join(details)} — update "
                            "repro.lint.protocol.REQUEST_FRAMES (and both "
                            "protocol ends) together",
                        )
            elif "ok" in fields:
                unknown = sorted(frozenset(fields) - REPLY_FIELDS)
                if unknown:
                    report(
                        node, "REPRO404",
                        f"reply frame field(s) {unknown} are outside the "
                        f"validated reply set {sorted(REPLY_FIELDS)}",
                    )
                if "reports" in fields and _call_name(
                    _element(fields["reports"])
                ) != "report_to_jsonable":
                    report(
                        fields["reports"], "REPRO403",
                        'reply "reports" elements must be encoded with '
                        "report_to_jsonable; report_from_jsonable validates "
                        "exactly that field set",
                    )
        elif isinstance(node, ast.Subscript):
            base = node.value
            if not isinstance(base, ast.Name):
                continue
            index = node.slice
            if not (isinstance(index, ast.Constant) and isinstance(index.value, str)):
                continue
            if base.id in _REQUEST_VARS and index.value not in _REQUEST_FIELDS:
                report(
                    node, "REPRO405",
                    f"request field {index.value!r} is not produced by any "
                    "documented frame",
                )
            elif base.id in _REPLY_VARS:
                if index.value not in REPLY_FIELDS:
                    report(
                        node, "REPRO405",
                        f"reply field {index.value!r} is not produced by any "
                        "documented frame",
                    )
                elif index.value == "reports" and id(node) not in decoded:
                    report(
                        node, "REPRO406",
                        'reply["reports"] elements must be decoded through '
                        "report_from_jsonable so schema drift fails loudly",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and isinstance(func.value, ast.Name)
                and func.value.id in (_REQUEST_VARS | _REPLY_VARS)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                field_name = node.args[0].value
                allowed = (
                    _REQUEST_FIELDS
                    if func.value.id in _REQUEST_VARS
                    else REPLY_FIELDS
                )
                if field_name not in allowed:
                    report(
                        node, "REPRO405",
                        f"{func.value.id} field {field_name!r} is not "
                        "produced by any documented frame",
                    )
    return violations
