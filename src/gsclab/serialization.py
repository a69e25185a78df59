"""JSON documents for histories, executions, and schedules.

Three document shapes, all JSON-compatible and human-diffable:

  history file   {objects, semantics, events, sessions, rt}
  execution file the same plus vis (pair list) and ar (id list)
  schedule file  {steps: [{kind: "call", client, obj, op, fences, id?}
                          | {kind: "body"|"ret"|"push"|"pull", client}]}

``rt`` is either {kind: "intervals", map: {id: [start, end]}} or
{kind: "pairs", pairs: [[before, after], ...]}.  Emission is canonical:
sorted keys, sorted pair lists, intervals normalized to pairs, so parse
after emit is the identity on canonical documents.  An ``append`` or
``write`` op carries an integer value and a ``read`` op none.  Parse
errors raise HistoryError (ScheduleError for schedules) with a message
naming the offending field.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from .model import (
    FENCE_KINDS,
    AbstractExecution,
    Event,
    History,
    HistoryError,
    Interval,
    Op,
    make_history,
    validate_history,
)
from .protocol import Schedule, ScheduleError, Token, body, pull, push, ret
from .relations import Relation, TotalOrder
from .semantics import SEMANTICS

_UPDATES = ("append", "write")  # the op kinds that carry a value
_TOKENS = {"body": body, "ret": ret, "push": push, "pull": pull}


def _op_doc(op: Op) -> dict:
    doc: dict[str, Any] = {"kind": op.kind}
    if op.value is not None:
        doc["value"] = op.value
    return doc


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _op_from(doc: Any, where: str) -> Op:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise HistoryError(f"{where}: op needs a kind")
    extra = set(doc) - {"kind", "value"}
    if extra:
        raise HistoryError(f"{where}: unknown op fields {sorted(extra)}")
    if "value" in doc and not _is_int(doc["value"]):
        raise HistoryError(f"{where}: op value must be an integer")
    kind, value = doc["kind"], doc.get("value")
    if value is None and kind in _UPDATES:
        raise HistoryError(f"{where}: op value missing: {kind} needs an integer value")
    if value is not None and kind == "read":
        raise HistoryError(f"{where}: op value given: read takes none")
    return Op(kind, value)


def _fences_from(doc: Mapping, where: str) -> frozenset[str]:
    fences = doc.get("fences", [])
    if not _strings(fences):
        raise HistoryError(f"{where}: fences must be a list of names")
    bad = set(fences) - FENCE_KINDS
    if bad:
        raise HistoryError(f"{where}: unknown fences {sorted(bad)}")
    return frozenset(fences)


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _pairs_from(doc: Any, field: str, ids: frozenset[str]) -> Relation:
    if not (isinstance(doc, list) and all(_strings(p) and len(p) == 2 for p in doc)):
        raise HistoryError(f"{field} must be a list of [before, after] id pairs")
    outside = sorted(p for p in doc if not ids.issuperset(p))
    if outside:
        a, b = outside[0]
        raise HistoryError(f"{field}: pair ({a!r}, {b!r}) outside domain")
    return Relation(ids, frozenset((a, b) for a, b in doc))


def _rval_doc(rval: Any) -> Any:
    if isinstance(rval, tuple):
        return list(rval)
    return rval


def _rval_from(doc: Any, where: str) -> Any:
    if not (doc is None or _is_int(doc) or isinstance(doc, list) and all(map(_is_int, doc))):
        raise HistoryError(f"{where}: rval must be null, an integer or a list of integers")
    return tuple(doc) if isinstance(doc, list) else doc


def history_to_doc(h: History, semantics: str) -> dict:
    return {
        "objects": list(h.objects()),
        "semantics": semantics,
        "events": [
            {
                "id": e.id,
                "client": e.client,
                "obj": e.obj,
                "op": _op_doc(e.op),
                "rval": _rval_doc(e.rval),
                "fences": sorted(e.fences),
            }
            for e in h.events
        ],
        "sessions": {c: list(ids) for c, ids in h.sessions},
        "rt": {"kind": "pairs", "pairs": sorted(list(p) for p in h.rt.pairs)},
    }


def doc_to_history(doc: Any) -> tuple[History, str]:
    """Parse a history document; returns the history and its semantics name."""
    if not isinstance(doc, Mapping):
        raise HistoryError("history document must be an object")
    for field in ("objects", "semantics", "events", "sessions", "rt"):
        if field not in doc:
            raise HistoryError(f"history document missing field {field!r}")
    semantics = doc["semantics"]
    if not isinstance(semantics, str) or semantics not in SEMANTICS:
        raise HistoryError(f"unknown semantics {semantics!r}; known: {sorted(SEMANTICS)}")
    if not _strings(doc["objects"]):
        raise HistoryError("objects must be a list of names")
    if not isinstance(doc["events"], list):
        raise HistoryError("events must be a list")
    events = []
    for i, edoc in enumerate(doc["events"]):
        where = f"events[{i}]"
        if not isinstance(edoc, Mapping):
            raise HistoryError(f"{where}: must be an object")
        for field in ("id", "client", "obj", "op"):
            if field not in edoc:
                raise HistoryError(f"{where}: missing field {field!r}")
        for field in ("id", "client", "obj"):
            if not isinstance(edoc[field], str):
                raise HistoryError(f"{where}: {field} must be a string")
        fences = _fences_from(edoc, where)
        if edoc["obj"] not in doc["objects"]:
            raise HistoryError(f"{where}: object {edoc['obj']!r} not listed in objects")
        events.append(
            Event(
                edoc["id"],
                edoc["client"],
                edoc["obj"],
                _op_from(edoc["op"], where),
                _rval_from(edoc.get("rval"), where),
                fences,
            )
        )
    sessions = doc["sessions"]
    if not (isinstance(sessions, Mapping) and all(map(_strings, sessions.values()))):
        raise HistoryError("sessions must map client to id list")
    rt_doc = doc["rt"]
    if not (isinstance(rt_doc, Mapping) and rt_doc.get("kind") in ("intervals", "pairs")):
        raise HistoryError("rt must be {kind: intervals, map} or {kind: pairs, pairs}")
    if rt_doc["kind"] == "intervals":
        if not isinstance(rt_doc.get("map"), Mapping):
            raise HistoryError("rt of kind intervals needs a map")
        rt: Any = {}
        for eid, se in rt_doc["map"].items():
            if not (isinstance(se, list) and len(se) == 2
                    and all(isinstance(t, (int, float)) for t in se) and se[0] < se[1]):
                raise HistoryError(f"rt map entry {eid!r} must be [start, end] with start < end")
            rt[eid] = Interval(float(se[0]), float(se[1]))
    else:
        if "pairs" not in rt_doc:
            raise HistoryError("rt of kind pairs needs pairs")
        rt = _pairs_from(rt_doc["pairs"], "rt pairs", frozenset(e.id for e in events))
    h = make_history(events, {c: list(ids) for c, ids in sessions.items()}, rt)
    problems = validate_history(h)
    if problems:
        raise HistoryError("; ".join(problems))
    return h, semantics


def execution_to_doc(x: AbstractExecution, semantics: str) -> dict:
    doc = history_to_doc(x.history, semantics)
    doc["vis"] = sorted(list(p) for p in x.vis.pairs)
    doc["ar"] = list(x.ar.sequence)
    return doc


def doc_to_execution(doc: Any) -> tuple[AbstractExecution, str]:
    h, semantics = doc_to_history(doc)
    for field in ("vis", "ar"):
        if field not in doc:
            raise HistoryError(f"execution document missing field {field!r}")
    vis = _pairs_from(doc["vis"], "vis", h.ids)
    if not (_strings(doc["ar"]) and sorted(doc["ar"]) == sorted(h.ids)):
        raise HistoryError("ar must list every event id exactly once")
    x = AbstractExecution(h, vis, TotalOrder(tuple(doc["ar"])))
    problems = x.structural_violations()
    if problems:
        raise HistoryError("; ".join(problems))
    return x, semantics


def schedule_to_doc(s: Schedule) -> dict:
    steps = []
    for t in s:
        if t.kind == "call":
            step: dict[str, Any] = {
                "kind": "call",
                "client": t.client,
                "obj": t.obj,
                "op": _op_doc(t.op),
                "fences": sorted(t.fences),
            }
            if t.id is not None:
                step["id"] = t.id
        else:
            step = {"kind": t.kind, "client": t.client}
        steps.append(step)
    return {"steps": steps}


def doc_to_schedule(doc: Any) -> Schedule:
    if not isinstance(doc, Mapping) or not isinstance(doc.get("steps"), list):
        raise ScheduleError("schedule document must be an object with steps")
    tokens = []
    for i, sdoc in enumerate(doc["steps"]):
        where = f"steps[{i}]"
        if not isinstance(sdoc, Mapping) or "kind" not in sdoc or "client" not in sdoc:
            raise ScheduleError(f"{where}: needs kind and client")
        if not isinstance(sdoc["client"], str):
            raise ScheduleError(f"{where}: client must be a string")
        kind = sdoc["kind"]
        if not isinstance(kind, str):
            raise ScheduleError(f"{where}: kind must be a string")
        if kind == "call":
            if "obj" not in sdoc or "op" not in sdoc:
                raise ScheduleError(f"{where}: call needs obj and op")
            if not isinstance(sdoc["obj"], str) or not isinstance(sdoc.get("id"), (str, type(None))):
                raise ScheduleError(f"{where}: obj and id must be strings")
            try:
                fences = _fences_from(sdoc, where)
                op = _op_from(sdoc["op"], where)
            except HistoryError as err:
                raise ScheduleError(str(err)) from err
            tokens.append(
                Token(
                    "call",
                    sdoc["client"],
                    obj=sdoc["obj"],
                    op=op,
                    fences=fences,
                    id=sdoc.get("id"),
                )
            )
        elif kind in _TOKENS:
            tokens.append(_TOKENS[kind](sdoc["client"]))
        else:
            raise ScheduleError(f"{where}: unknown kind {kind!r}")
    return tuple(tokens)


def dumps(doc: dict) -> str:
    """Canonical emission: sorted keys, two-space indent, trailing newline.

    The text is ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.
    ``indent`` makes ``json`` fall back to its pure-Python encoder, so the
    layout is written here and strings are escaped by the C escaper."""
    out: list[str] = []
    _layout(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _layout(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value``'s indented JSON text to ``out``; ``newline`` starts
    a line at its depth.  Anything but str-keyed dicts, lists, tuples,
    strings, ints, booleans and null goes to ``json.dumps``, re-indented
    (JSON text holds no raw newline inside a string)."""
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif (kind is list or kind is tuple) and not value:
        out.append("[]")
    elif kind is list or kind is tuple:
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _layout(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict and not value:
        out.append("{}")
    elif kind is dict and all(type(k) is str for k in value):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _escape(key) + ": ")
            _layout(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise HistoryError(f"not valid JSON: {err}") from err
