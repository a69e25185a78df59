"""JSON document format: round-trips for histories, executions and
schedules, canonical text stability, interval clocks, and input
validation error messages."""

import json
import random

import pytest

from gsclab import HistoryError, ScheduleError, all_fixtures, fixture
from gsclab.generators import random_well_fenced_run
from gsclab.serialization import (
    doc_to_execution,
    doc_to_history,
    doc_to_schedule,
    dumps,
    execution_to_doc,
    history_to_doc,
    loads,
    schedule_to_doc,
)


def test_history_round_trip_all_fixtures():
    for fix in all_fixtures():
        doc = history_to_doc(fix.history, "sequence")
        back, semantics = doc_to_history(loads(dumps(doc)))
        assert semantics == "sequence"
        assert back == fix.history


def test_execution_round_trip():
    for fix in all_fixtures():
        if fix.witness is None:
            continue
        doc = execution_to_doc(fix.witness, "sequence")
        back, semantics = doc_to_execution(loads(dumps(doc)))
        assert semantics == "sequence"
        assert back == fix.witness


def test_schedule_round_trip():
    for name in ("fig3a", "fig3b", "fig3c"):
        sched = fixture(name).schedule
        back = doc_to_schedule(loads(dumps(schedule_to_doc(sched))))
        assert back == sched


def test_dumps_is_stable_and_sorted():
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    text = dumps(doc)
    assert text == dumps(loads(text))
    assert text.endswith("\n")
    assert json.loads(text) == doc


HAND_DOCUMENTS = [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}, [1, [2, {"z": None}]]], "d": {"e": {"f": [()]}}},
    {"text": ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\u00e9 \u20ac \U0001f600",
              "", " ", "\"\\/"]},
    {"flags": [True, False, None], "ints": [0, -1, -2**40, 2**70], "mixed": [True, 1, "1"]},
    # Values the layout hands to json.dumps: floats and non-string keys.
    {"clock": [0.5, -1.25, 1e100], "keys": {2: "b", 1: {"c": [3]}}},
]


def test_dumps_matches_json_dumps(sem):
    # The hand layout must give json.dumps(indent=2, sort_keys=True) text.
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    docs = [loads(path.read_text()) for path in sorted(root.glob("*.json"))]
    for fix in all_fixtures():
        docs.append(history_to_doc(fix.history, "sequence"))
        if fix.witness is not None:
            docs.append(execution_to_doc(fix.witness, "sequence"))
        if fix.schedule is not None:
            docs.append(schedule_to_doc(fix.schedule))
    rng = random.Random(3)
    for _ in range(300):
        h, x = random_well_fenced_run(rng, sem, clients=3)
        docs += [history_to_doc(h, "sequence"), execution_to_doc(x, "sequence")]
    docs += HAND_DOCUMENTS
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_intervals_accepted():
    doc = history_to_doc(fixture("fig3b").history, "sequence")
    doc["rt"] = {"kind": "intervals",
                 "map": {"e1": [0, 1], "f1": [2, 3], "f2": [4, 5]}}
    h, _ = doc_to_history(doc)
    assert h == fixture("fig3b").history


def test_unknown_semantics_rejected():
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    doc["semantics"] = "stack"
    with pytest.raises(HistoryError, match="unknown semantics"):
        doc_to_history(doc)


def test_missing_field_rejected():
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    del doc["sessions"]
    with pytest.raises(HistoryError, match="missing field 'sessions'"):
        doc_to_history(doc)


def test_unknown_fence_rejected():
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    doc["events"][0]["fences"] = ["flush"]
    with pytest.raises(HistoryError, match="unknown fences"):
        doc_to_history(doc)


def test_unlisted_object_rejected():
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    doc["events"][0]["obj"] = "z"
    with pytest.raises(HistoryError, match="not listed in objects"):
        doc_to_history(doc)


def test_invalid_history_rejected():
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    doc["rt"] = {"kind": "pairs", "pairs": [["e2", "e1"]]}
    with pytest.raises(HistoryError):
        doc_to_history(doc)


def test_execution_doc_requires_full_arbitration():
    doc = execution_to_doc(fixture("fig3a").witness, "sequence")
    doc["ar"] = doc["ar"][:-1]
    with pytest.raises(HistoryError):
        doc_to_execution(doc)


def test_bad_json_rejected():
    with pytest.raises(HistoryError):
        loads("{not json")


def test_schedule_doc_validations():
    doc = schedule_to_doc(fixture("fig3a").schedule)
    doc["steps"][0] = {"kind": "sleep", "client": "A"}
    with pytest.raises(ScheduleError):
        doc_to_schedule(doc)


def _history_doc(**changes):
    doc = history_to_doc(fixture("fig3b").history, "sequence")
    doc.update(changes)
    return doc


def _list_valued_id():
    doc = _history_doc()
    doc["events"][0]["id"] = ["e1"]
    return doc


def _fig3a_event(index, **changes):
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    doc["events"][index].update(changes)
    return doc


def _execution_doc(name, **changes):
    doc = execution_to_doc(fixture(name).witness, "sequence")
    doc.update(changes)
    return doc


def _schedule_step(**changes):
    doc = schedule_to_doc(fixture("fig3a").schedule)
    doc["steps"][0].update(changes)
    return doc


@pytest.mark.parametrize("parse, doc, error, field", [
    (doc_to_history, _history_doc(events=5), HistoryError, "events"),
    (doc_to_history, _history_doc(sessions={"A": 3}), HistoryError, "sessions"),
    (doc_to_history, _history_doc(rt={"kind": "intervals", "map": {"e1": [0]}}),
     HistoryError, "rt map entry 'e1'"),
    (doc_to_history, _list_valued_id(), HistoryError, r"events\[0\]: id"),
    (doc_to_schedule, {"steps": 3}, ScheduleError, "steps"),
    (doc_to_schedule, _schedule_step(fences=None), ScheduleError, r"steps\[0\]: fences"),
    (doc_to_history, _history_doc(objects=5), HistoryError, "objects"),
    (doc_to_history, _history_doc(rt={"kind": "pairs", "pairs": 5}), HistoryError,
     "rt pairs"),
    (doc_to_execution, _execution_doc("fig3b", vis=[["e1"]]), HistoryError, "vis"),
    (doc_to_schedule, _schedule_step(client=["A"]), ScheduleError, r"steps\[0\]: client"),
    (doc_to_schedule, _schedule_step(id=["e1"]), ScheduleError, r"steps\[0\]: obj and id"),
    (doc_to_history, _fig3a_event(0, op={"kind": "append", "value": [1]}), HistoryError,
     r"events\[0\]: op value"),
    (doc_to_history, _fig3a_event(0, op={"kind": "append", "value": "1"}), HistoryError,
     r"events\[0\]: op value"),
    (doc_to_history, _fig3a_event(1, rval={"a": 1}), HistoryError, r"events\[1\]: rval"),
    (doc_to_history, _fig3a_event(1, rval=[1, "2"]), HistoryError, r"events\[1\]: rval"),
    (doc_to_history, _fig3a_event(0, fences=[["push"]]), HistoryError, r"events\[0\]: fences"),
    (doc_to_history, _fig3a_event(0, op={"kind": "append"}), HistoryError,
     r"events\[0\]: op value missing: append"),
    (doc_to_history, _fig3a_event(0, op={"kind": "write"}), HistoryError,
     r"events\[0\]: op value missing: write"),
    (doc_to_history, _fig3a_event(1, op={"kind": "read", "value": 2}), HistoryError,
     r"events\[1\]: op value given: read"),
    (doc_to_schedule, _schedule_step(op={"kind": "append"}), ScheduleError,
     r"steps\[0\]: op value missing: append"),
    (doc_to_schedule, _schedule_step(op={"kind": "read", "value": 1}), ScheduleError,
     r"steps\[0\]: op value given: read"),
    (doc_to_history, _history_doc(semantics=[1]), HistoryError, "semantics"),
    (doc_to_history, _history_doc(semantics={}), HistoryError, "semantics"),
    (doc_to_schedule, _schedule_step(kind={}), ScheduleError, r"steps\[0\]: kind"),
    (doc_to_schedule, _schedule_step(kind=["push"]), ScheduleError, r"steps\[0\]: kind"),
    (doc_to_history, _history_doc(rt={"kind": "pairs", "pairs": [["e1", "zz"]]}),
     HistoryError, r"rt pairs: pair \('e1', 'zz'\) outside domain"),
    (doc_to_execution, _execution_doc("fig3b", vis=[["zz", "f2"]]), HistoryError,
     r"vis: pair \('zz', 'f2'\) outside domain"),
    (doc_to_history, _history_doc(rt={"kind": "intervals", "map": {"e1": [2, 1]}}),
     HistoryError, "rt map entry 'e1'"),
    (doc_to_history, _history_doc(sessions={"A": ["e1"], "B": ["f1", "zz", "f2"]}),
     HistoryError, "session B lists unknown event zz"),
    (doc_to_history, [], HistoryError, "history document must be an object"),
    (doc_to_history, _history_doc(rt={"kind": "intervals"}), HistoryError,
     "rt of kind intervals needs a map"),
    (doc_to_execution, {k: v for k, v in _execution_doc("fig3b").items() if k != "vis"},
     HistoryError, "execution document missing field 'vis'"),
    (doc_to_execution, _execution_doc("fig5", vis=[["g", "e"]]), HistoryError,
     r"vis not contained in ar: \(g, e\)"),
], ids=["events-int", "session-int", "interval-one-bound", "id-list", "steps-int",
        "fences-null", "objects-int", "rt-pairs-int", "vis-short-pair", "client-list",
        "step-id-list", "op-value-list", "op-value-string", "rval-object",
        "rval-mixed-list", "fences-nested-list", "append-no-value", "write-no-value",
        "read-with-value", "step-append-no-value", "step-read-with-value",
        "semantics-list", "semantics-object", "step-kind-object", "step-kind-list",
        "rt-pair-unknown-id", "vis-pair-unknown-id", "interval-reversed",
        "session-unknown-id", "history-list", "intervals-no-map", "execution-no-vis",
        "vis-outside-ar"])
def test_malformed_documents_name_the_field(parse, doc, error, field):
    with pytest.raises(error, match=field):
        parse(doc)


def test_fixture_files_match_registry():
    # The shipped JSON files are exactly the registry's encodings, one file
    # per history, witness and schedule the registry holds and no other.
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    assert sorted(path.name for path in root.iterdir()) == sorted(
        f"{fix.name}{suffix}.json" for fix in all_fixtures()
        for suffix, part in (("", fix.history), ("-witness", fix.witness),
                             ("-schedule", fix.schedule)) if part is not None)
    for fix in all_fixtures():
        text = (root / f"{fix.name}.json").read_text()
        h, semantics = doc_to_history(loads(text))
        assert (h, semantics) == (fix.history, "sequence")
        assert dumps(history_to_doc(h, semantics)) == text
        if fix.witness is not None:
            wtext = (root / f"{fix.name}-witness.json").read_text()
            x, _ = doc_to_execution(loads(wtext))
            assert x == fix.witness
        if fix.schedule is not None:
            stext = (root / f"{fix.name}-schedule.json").read_text()
            assert doc_to_schedule(loads(stext)) == fix.schedule
