"""JSON documents for histories, executions, and schedules.

Three document shapes, all JSON-compatible and human-diffable:

  history file   {objects, semantics, events, sessions, rt}
  execution file the same plus vis (pair list) and ar (id list)
  schedule file  {steps: [{kind: "call", client, obj, op, fences, id?}
                          | {kind: "body"|"ret"|"push"|"pull", client}]}

``rt`` is either {kind: "intervals", map: {id: [start, end]}} or
{kind: "pairs", pairs: [[before, after], ...]}.  Emission is canonical:
sorted keys, sorted pair lists, intervals normalized to pairs, so parse
after emit is the identity on canonical documents.  Parse errors raise
HistoryError (ScheduleError for schedules) with a message naming the
offending field.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .model import (
    PULL,
    PUSH,
    AbstractExecution,
    Event,
    History,
    HistoryError,
    Interval,
    Op,
    make_history,
    validate_history,
)
from .protocol import Schedule, ScheduleError, Token
from .relations import Relation, TotalOrder
from .semantics import SEMANTICS

_FENCES = (PUSH, PULL)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HistoryError(msg)


def _op_doc(op: Op) -> dict:
    doc: dict[str, Any] = {"kind": op.kind}
    if op.value is not None:
        doc["value"] = op.value
    return doc


def _op_from(doc: Any, where: str) -> Op:
    _require(isinstance(doc, dict) and "kind" in doc, f"{where}: op needs a kind")
    extra = set(doc) - {"kind", "value"}
    _require(not extra, f"{where}: unknown op fields {sorted(extra)}")
    return Op(doc["kind"], doc.get("value"))


def _fences_from(doc: Mapping, where: str) -> frozenset[str]:
    fences = doc.get("fences", [])
    _require(isinstance(fences, list), f"{where}: fences must be a list")
    bad = set(fences) - set(_FENCES)
    _require(not bad, f"{where}: unknown fences {sorted(bad)}")
    return frozenset(fences)


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _pairs_from(doc: Any, field: str) -> frozenset[tuple[str, str]]:
    _require(isinstance(doc, list) and all(_strings(p) and len(p) == 2 for p in doc),
             f"{field} must be a list of [before, after] id pairs")
    return frozenset((a, b) for a, b in doc)


def _rval_doc(rval: Any) -> Any:
    if isinstance(rval, tuple):
        return list(rval)
    return rval


def _rval_from(doc: Any) -> Any:
    if isinstance(doc, list):
        return tuple(doc)
    return doc


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
    _require(isinstance(doc, Mapping), "history document must be an object")
    for field in ("objects", "semantics", "events", "sessions", "rt"):
        _require(field in doc, f"history document missing field {field!r}")
    semantics = doc["semantics"]
    _require(
        semantics in SEMANTICS,
        f"unknown semantics {semantics!r}; known: {sorted(SEMANTICS)}",
    )
    _require(_strings(doc["objects"]), "objects must be a list of names")
    _require(isinstance(doc["events"], list), "events must be a list")
    events = []
    for i, edoc in enumerate(doc["events"]):
        where = f"events[{i}]"
        _require(isinstance(edoc, Mapping), f"{where}: must be an object")
        for field in ("id", "client", "obj", "op"):
            _require(field in edoc, f"{where}: missing field {field!r}")
        for field in ("id", "client", "obj"):
            _require(isinstance(edoc[field], str), f"{where}: {field} must be a string")
        fences = _fences_from(edoc, where)
        _require(
            edoc["obj"] in doc["objects"],
            f"{where}: object {edoc['obj']!r} not listed in objects",
        )
        events.append(
            Event(
                edoc["id"],
                edoc["client"],
                edoc["obj"],
                _op_from(edoc["op"], where),
                _rval_from(edoc.get("rval")),
                fences,
            )
        )
    sessions = doc["sessions"]
    _require(
        isinstance(sessions, Mapping) and all(map(_strings, sessions.values())),
        "sessions must map client to id list",
    )
    rt_doc = doc["rt"]
    _require(
        isinstance(rt_doc, Mapping) and rt_doc.get("kind") in ("intervals", "pairs"),
        "rt must be {kind: intervals, map} or {kind: pairs, pairs}",
    )
    if rt_doc["kind"] == "intervals":
        _require(isinstance(rt_doc.get("map"), Mapping), "rt of kind intervals needs a map")
        rt: Any = {}
        for eid, se in rt_doc["map"].items():
            _require(isinstance(se, list) and len(se) == 2
                     and all(isinstance(t, (int, float)) for t in se),
                     f"rt map entry {eid!r} must be [start, end]")
            rt[eid] = Interval(float(se[0]), float(se[1]))
    else:
        _require("pairs" in rt_doc, "rt of kind pairs needs pairs")
        ids = frozenset(e.id for e in events)
        rt = Relation(ids, _pairs_from(rt_doc["pairs"], "rt pairs"))
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
        _require(field in doc, f"execution document missing field {field!r}")
    vis = Relation(h.ids, _pairs_from(doc["vis"], "vis"))
    _require(
        _strings(doc["ar"]) and sorted(doc["ar"]) == sorted(h.ids),
        "ar must list every event id exactly once",
    )
    x = AbstractExecution(h, vis, TotalOrder(tuple(doc["ar"])))
    problems = x.structural_violations()
    if problems:
        raise HistoryError("; ".join(problems))
    return x, semantics


def schedule_to_doc(s: Schedule) -> dict:
    steps = []
    for t in s.steps:
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
        elif kind in ("body", "ret", "push", "pull"):
            tokens.append(Token(kind, sdoc["client"]))
        else:
            raise ScheduleError(f"{where}: unknown kind {kind!r}")
    return Schedule(tuple(tokens))


def dumps(doc: dict) -> str:
    """Canonical emission: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise HistoryError(f"not valid JSON: {err}") from err
