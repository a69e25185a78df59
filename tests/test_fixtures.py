"""The bundled litmus histories are load-bearing oracles: these tests pin
their exact encodings (events, sessions, returned-before pairs) so an
accidental edit cannot silently shift every downstream verdict."""

import pytest

from gsclab import (
    FIXTURE_NAMES,
    all_fixtures,
    check_axioms,
    fixture,
    is_well_fenced,
    validate_history,
)
from gsclab.protocol import run_to_quiescence, extract_execution

from helpers import fig3d_projection_executions, with_fences


def event_row(e):
    return (e.id, e.client, e.obj, e.op.kind, e.op.value, e.rval, tuple(sorted(e.fences)))


FROZEN_EVENTS = {
    "fig3a": (
        ("e1", "A", "x", "append", 1, None, ()),
        ("e2", "A", "x", "read", None, (1, 2), ()),
        ("f1", "B", "x", "append", 2, None, ()),
        ("f2", "B", "x", "read", None, (2,), ()),
    ),
    "fig3b": (
        ("e1", "A", "x", "append", 1, None, ()),
        ("f1", "B", "x", "append", 2, None, ()),
        ("f2", "B", "x", "read", None, (2, 1), ()),
    ),
    "fig3c": (
        ("e1", "A", "x", "append", 1, None, ()),
        ("e2", "A", "y", "read", None, (), ()),
        ("f1", "B", "y", "append", 1, None, ()),
        ("f2", "B", "x", "read", None, (), ()),
    ),
    "fig3d": (
        ("a", "C1", "x", "append", 1, None, ()),
        ("b", "C2", "y", "append", 1, None, ()),
        ("c1", "C3", "x", "read", None, (1,), ()),
        ("c2", "C3", "y", "read", None, (), ()),
        ("d1", "C4", "y", "read", None, (1,), ()),
        ("d2", "C4", "x", "read", None, (), ()),
    ),
    "fig5": (
        ("f", "C1", "x", "append", 1, None, ()),
        ("e", "C2", "y", "append", 2, None, ()),
        ("p", "C3", "y", "read", None, (2,), ()),
        ("g", "C3", "x", "read", None, (), ("pull",)),
    ),
}

FROZEN_RT = {
    "fig3a": {("e1", "e2"), ("f1", "e2"), ("e1", "f2"), ("f1", "f2"), ("e2", "f2")},
    "fig3b": {("e1", "f1"), ("e1", "f2"), ("f1", "f2")},
    "fig3c": {("e1", "e2"), ("e1", "f2"), ("f1", "e2"), ("f1", "f2")},
    "fig3d": {("a", "c1"), ("a", "c2"), ("a", "d1"), ("a", "d2"),
              ("b", "c1"), ("b", "c2"), ("b", "d1"), ("b", "d2"),
              ("c1", "c2"), ("c1", "d2"), ("d1", "c2"), ("d1", "d2")},
    "fig5": {("f", "p"), ("f", "g"), ("e", "p"), ("e", "g"), ("p", "g")},
}

ALIASES = {
    "fig3a": "stale_read",
    "fig3b": "reordered_appends",
    "fig3c": "store_buffering",
    "fig3d": "long_fork",
    "fig5": "unfenced_handoff",
}


def test_registry_names():
    assert tuple(FIXTURE_NAMES) == ("fig3a", "fig3b", "fig3c", "fig3d", "fig5")
    assert [f.name for f in all_fixtures()] == list(FIXTURE_NAMES)


@pytest.mark.parametrize("name", sorted(FROZEN_EVENTS))
def test_frozen_encoding(name):
    h = fixture(name).history
    assert tuple(event_row(e) for e in h.events) == FROZEN_EVENTS[name]
    assert h.rt.pairs == frozenset(FROZEN_RT[name])
    assert validate_history(h) == []


@pytest.mark.parametrize("name", sorted(ALIASES))
def test_alias_lookup(name):
    assert fixture(ALIASES[name]) is fixture(name)


def test_unknown_fixture_raises():
    with pytest.raises(KeyError, match="unknown fixture"):
        fixture("fig9z")


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig5"])
def test_witnesses_pass_laws(sem, name):
    fix = fixture(name)
    assert fix.witness is not None
    assert check_axioms(fix.witness, sem).ok


def test_long_fork_has_no_witness_or_schedule():
    fix = fixture("fig3d")
    assert fix.witness is None and fix.schedule is None


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c"])
def test_schedules_replay_to_witness(sem, name):
    fix = fixture(name)
    run = run_to_quiescence(fix.schedule, sem)
    assert extract_execution(run) == fix.witness


def test_well_fencing_of_fixtures():
    # Single-object histories are well-fenced by construction; both
    # cross-object ones have an unfenced handoff pair.
    assert is_well_fenced(fixture("fig3a").history) == (True, None)
    assert is_well_fenced(fixture("fig3b").history) == (True, None)
    assert is_well_fenced(fixture("fig3d").history) == (False, ("c1", "c2"))
    assert is_well_fenced(fixture("fig5").history) == (False, ("p", "g"))


def test_long_fork_projections_are_members(sem):
    for obj, x in sorted(fig3d_projection_executions().items()):
        assert x.history.objects() == (obj,)
        assert check_axioms(x, sem).ok


def test_with_fences_rewrites_only_named_events():
    h = fixture("fig3a").history
    h2 = with_fences(h, {"f2": {"pull"}})
    assert h2.by_id["f2"].fences == frozenset({"pull"})
    assert h2.by_id["e1"].fences == frozenset()
    assert h2.rt == h.rt


def test_descriptions_present():
    for fix in all_fixtures():
        assert fix.description
