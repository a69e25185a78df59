"""JSON document format: round-trips for histories, executions and
schedules, canonical text stability, interval clocks, and input
validation error messages."""

import json

import pytest

from gsclab import HistoryError, ScheduleError, all_fixtures, fixture
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
    (doc_to_execution, dict(execution_to_doc(fixture("fig3b").witness, "sequence"),
                            vis=[["e1"]]), HistoryError, "vis"),
    (doc_to_schedule, _schedule_step(client=["A"]), ScheduleError, r"steps\[0\]: client"),
    (doc_to_schedule, _schedule_step(id=["e1"]), ScheduleError, r"steps\[0\]: obj and id"),
], ids=["events-int", "session-int", "interval-one-bound", "id-list", "steps-int",
        "fences-null", "objects-int", "rt-pairs-int", "vis-short-pair", "client-list",
        "step-id-list"])
def test_malformed_documents_name_the_field(parse, doc, error, field):
    with pytest.raises(error, match=field):
        parse(doc)


def test_fixture_files_match_registry():
    # The shipped JSON files are exactly the registry's encodings.
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
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
