"""Histories: construction, validation, fences, projections, presets, and
the per-history index and caches."""

import dataclasses
import pickle
import random
import time
from collections import Counter

import pytest

from gsclab import (
    PULL,
    PUSH,
    AbstractExecution,
    Event,
    HistoryError,
    Interval,
    Op,
    Relation,
    TotalOrder,
    apply_fence_preset,
    check_axioms,
    check_fence_preset,
    erase_fences,
    get_semantics,
    is_well_fenced,
    make_history,
    project,
    rt_from_intervals,
    set_all_fences,
    validate_history,
)
from gsclab import model
from gsclab.fixtures import FIXTURE_NAMES, fixture
from gsclab.generators import FENCE_CHOICES, random_well_fenced_run
from gsclab.model import MODELS

from helpers import well_fenced_reference

SEM = get_semantics("sequence")


def two_client_history(**kw):
    events = [
        Event("e1", "A", "x", Op("append", 1), None, frozenset()),
        Event("e2", "A", "x", Op("read"), (1,), frozenset()),
        Event("f1", "B", "y", Op("append", 2), None, frozenset()),
    ]
    sessions = {"A": ["e1", "e2"], "B": ["f1"]}
    intervals = {
        "e1": Interval(0, 1),
        "e2": Interval(2, 3),
        "f1": Interval(0, 5),
    }
    return make_history(events, sessions, intervals)


def test_make_history_layout_and_accessors():
    h = two_client_history()
    assert [e.id for e in h.events] == ["e1", "e2", "f1"]
    assert h.clients == ("A", "B")
    assert h.objects() == ("x", "y")
    assert h.by_id["e2"].rval == (1,)
    assert h.by_id["f1"].client == "B"
    with pytest.raises(KeyError):
        h.by_id["zz"]
    assert h.so.pairs == {("e1", "e2")}
    assert ("e1", "e2") in h.rt and ("e1", "f1") not in h.rt
    assert not validate_history(h)


def test_rt_from_intervals_strictness():
    rt = rt_from_intervals({"a": Interval(0, 1), "b": Interval(1, 2)})
    assert rt.pairs == frozenset()
    rt = rt_from_intervals({"a": Interval(0, 1), "b": Interval(1.5, 2)})
    assert rt.pairs == {("a", "b")}


def test_validate_history_catches_structure():
    h = two_client_history()
    bad = make_history(h.events, {"A": ["e1", "e2"], "B": ["f1"]},
                       Relation(frozenset({"e1", "e2"}), frozenset()))
    assert any("rt domain" in p for p in validate_history(bad))
    bad = make_history(h.events, {"A": ["e2", "e1"], "B": ["f1"]}, h.rt)
    assert any("so not contained in rt" in p for p in validate_history(bad))
    dup = make_history(
        list(h.events) + [Event("e1", "B", "x", Op("read"), (), frozenset())],
        {"A": ["e1", "e2"], "B": ["f1", "e1"]}, h.rt)
    # The client check reads the first event of a repeated id (here A's e1).
    assert validate_history(dup) == [
        "duplicate event ids",
        "event e1 filed under session B but carries client A",
        "so not contained in rt: (f1, e1)"]


def test_canonical_and_renamed():
    h = two_client_history()
    c = h.canonical()
    assert [e.id for e in c.events] == ["A:0", "A:1", "B:0"]
    assert c.canonical() == c
    with pytest.raises(Exception):
        h.renamed({"e1": "z"})


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_canonical_equals_the_client_index_renaming(name):
    # canonical() returns a history that already has its client:index ids
    # as it is; every other history, including one whose ids are client:index
    # names in the wrong places, is renamed.
    def client_index(h):
        return {eid: f"{c}:{i}" for c, ids in h.sessions for i, eid in enumerate(ids)}

    h = fixture(name).history
    c = h.canonical()
    assert c == h.renamed(client_index(h))
    assert c.canonical() is c
    ids = sorted(c.ids)
    for g in (c.renamed({eid: f"{eid}'" for eid in ids}),
              c.renamed(dict(zip(ids, reversed(ids))))):
        assert g.canonical() == g.renamed(client_index(g)) == c


def test_canonical_returns_itself_only_when_ids_sessions_and_rt_agree():
    c = two_client_history().canonical()
    assert c.canonical() is c
    # ids not client:index
    named = c.renamed({"A:0": "a", "A:1": "b", "B:0": "c"})
    assert named.canonical() is not named and named.canonical() == c
    # sessions listing an id that is no event, or missing one that is
    for sessions in ((("A", ("A:0", "A:1", "A:2")), ("B", ("B:0",))),
                     (("A", ("A:0", "A:1")),)):
        odd = dataclasses.replace(c, sessions=sessions)
        with pytest.raises(HistoryError, match="bijection"):
            odd.canonical()
    # rt over more ids than the events
    wide = dataclasses.replace(c, rt=Relation(c.ids | {"C:0"}, c.rt.pairs))
    assert wide.canonical() is not wide and wide.canonical() == c


def test_project_restricts_everything():
    h = two_client_history()
    px = project(h, "x")
    assert [e.id for e in px.events] == ["e1", "e2"]
    assert px.clients == ("A",)
    assert px.rt.pairs == {("e1", "e2")}
    py = project(h, "y")
    assert [e.id for e in py.events] == ["f1"]


def test_fence_helpers():
    h = two_client_history()
    hp = set_all_fences(h, {PUSH})
    assert all(e.fences == frozenset({PUSH}) for e in hp.events)
    assert hp.pushers() == h.ids and not hp.pullers()
    assert erase_fences(hp) == h
    assert h.by_id["e1"].with_fences({PULL}).fences == frozenset({PULL})


def test_fence_presets_table():
    h = two_client_history()
    assert check_fence_preset(h, "gsc", SEM)
    assert check_fence_preset(h, "gsp", SEM)
    assert not check_fence_preset(h, "tso", SEM)
    tso = apply_fence_preset(h, "tso", SEM)
    assert all(e.fences == frozenset({PULL}) for e in tso.events)
    dual = apply_fence_preset(h, "dual-tso", SEM)
    assert all(e.fences == frozenset({PUSH}) for e in dual.events)
    lin = apply_fence_preset(h, "lin", SEM)
    assert all(e.fences == frozenset({PUSH, PULL}) for e in lin.events)
    osc = apply_fence_preset(h, "osc", SEM)
    assert osc.by_id["e1"].fences == frozenset({PUSH, PULL})
    assert osc.by_id["e2"].fences == frozenset({PUSH})
    assert not check_fence_preset(tso, "gsp", SEM)
    assert check_fence_preset(lin, "tso", SEM)
    assert apply_fence_preset(h, "gsc", SEM) is h
    assert apply_fence_preset(h, "GSP") == erase_fences(h)
    for preset in (check_fence_preset, apply_fence_preset):
        with pytest.raises(ValueError, match="^osc preset needs semantics with a classifier$"):
            preset(h, "osc")
        with pytest.raises(ValueError, match="unknown model 'sc'"):
            preset(h, "sc", SEM)


def one_session_chain(events):
    """events appends by one client, each returning before the next."""
    evs = [Event(f"A:{i}", "A", "x", Op("append", i), None) for i in range(events)]
    return make_history(evs, {"A": [e.id for e in evs]},
                        {e.id: Interval(2 * i, 2 * i + 1) for i, e in enumerate(evs)})


def test_long_chain_validates_quickly():
    # The interval-order test is linear in the rt pairs, of which a
    # 300-event chain has 44,850; building rt;rt instead is cubic.
    h = one_session_chain(300)
    start = time.perf_counter()
    assert validate_history(h) == []
    assert time.perf_counter() - start < 0.5
    assert len(h.rt.pairs) == 300 * 299 // 2


def test_fence_presets_keep_the_structure_verdict(monkeypatch):
    checked = []
    check = model._check_structure

    def counted(h):
        checked.append(h)
        return check(h)

    monkeypatch.setattr(model, "_check_structure", counted)
    for name in FIXTURE_NAMES:
        h = fixture(name).history
        h = make_history(h.events, dict(h.sessions), h.rt)  # no verdict cached yet
        hs = [h] + [apply_fence_preset(h, m, SEM) for m in MODELS]
        assert [validate_history(x) for x in hs] == [[]] * len(hs)
        # the layout make_history gives, and an index per fence assignment
        # (gsc returns h itself)
        assert all(x == make_history(x.events, dict(x.sessions), x.rt) for x in hs)
        assert len({id(x.index) for x in hs}) == len(MODELS)
    assert len(checked) == len(FIXTURE_NAMES)
    bad = dataclasses.replace(two_client_history(), rt=Relation.from_pairs(
        ("e1", "e2", "f1"), [("e2", "e1")]))
    assert validate_history(apply_fence_preset(bad, "lin", SEM)) == validate_history(bad)
    assert len(checked) == len(FIXTURE_NAMES) + 1


def test_history_pickles_without_its_caches():
    w = fixture("fig3a").witness
    assert check_axioms(w, SEM).ok  # caches the verdict, the index and its RETVAL table
    back = pickle.loads(pickle.dumps(w))
    assert back == w and "index" not in back.history.__dict__
    assert check_axioms(back, SEM).ok


def test_index_rows_match_the_relations():
    rng = random.Random(8)
    for _ in range(200):
        h, _ = random_well_fenced_run(rng, SEM, clients=3, max_ops=3)
        h = apply_fence_preset(h, rng.choice(MODELS), SEM)
        ix = h.index
        assert ix.ids == tuple(e.id for e in h.events)
        for i, a in enumerate(ix.ids):
            assert ix.names(ix.so[i]) == sorted(h.so.predecessors(a))
            assert ix.names(ix.rt[i]) == sorted(h.rt.predecessors(a))
            assert ix.names(ix.same[i]) == sorted(e.id for e in h.events
                                                  if e.obj == h.events[i].obj)
        assert ix.names(ix.pushers) == sorted(h.pushers())
        assert ix.names(ix.pullers) == sorted(h.pullers())
        assert ix.mask(h.ids) == (1 << len(h.events)) - 1


def test_well_fencedness():
    ok, off = is_well_fenced(two_client_history())
    assert ok and off is None
    ok, off = is_well_fenced(fixture("fig3d").history)
    assert not ok and off == ("c1", "c2")
    ok, off = is_well_fenced(fixture("fig5").history)
    assert not ok and off == ("p", "g")
    events = [
        Event("a1", "A", "x", Op("append", 1), None, frozenset({PUSH})),
        Event("a2", "A", "y", Op("read"), (), frozenset({PULL})),
    ]
    h = make_history(events, {"A": ["a1", "a2"]},
                     {"a1": Interval(0, 1), "a2": Interval(2, 3)})
    ok, off = is_well_fenced(h)
    assert ok


def test_well_fencing_scan_matches_the_four_loop_reference():
    # Seeded one- and two-session histories over up to three objects, the
    # fences weighted towards push+pull so that both verdicts are common.
    rng = random.Random(22)
    verdicts = Counter()
    for _ in range(2000):
        events, sessions, intervals = [], {}, {}
        for client in "AB"[:rng.randint(1, 2)]:
            sessions[client] = []
            for i in range(rng.randint(1, 6)):
                eid = f"{client}{i}"
                fences = rng.choices(FENCE_CHOICES, weights=(1, 1, 1, 4))[0]
                events.append(Event(eid, client, rng.choice("xxyz"), Op("append", i),
                                    None, fences))
                sessions[client].append(eid)
                intervals[eid] = Interval(2 * i, 2 * i + 1)
        h = make_history(events, sessions, intervals)
        got = is_well_fenced(h)
        assert got == well_fenced_reference(h), h
        verdicts[got[0]] += 1
    assert min(verdicts.values()) > 400, verdicts


def test_execution_structural_violations():
    h = two_client_history()
    ids = h.ids
    ar = TotalOrder(("e1", "e2", "f1"))
    good = AbstractExecution(h, Relation(ids, frozenset({("e1", "e2")})), ar)
    assert not good.structural_violations()
    cyclic = AbstractExecution(
        h, Relation(ids, frozenset({("e1", "e2"), ("e2", "e1")})), ar)
    assert any("cyclic" in v for v in cyclic.structural_violations())
    outside = AbstractExecution(h, Relation(ids, frozenset({("e2", "e1")})), ar)
    assert any("not contained in ar" in v for v in outside.structural_violations())
    wrong_ar = AbstractExecution(h, Relation(ids, frozenset()), TotalOrder(("e1", "e2")))
    assert any("ar" in v for v in wrong_ar.structural_violations())
