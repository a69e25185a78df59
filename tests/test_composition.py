"""Composition of per-object witnesses: the precedence guard, the forced
arbitration constraints, the least-closure visibility (checked against the
paper's closed form), refusal behaviour, and the relational identities the
construction's correctness rests on."""

import dataclasses
import random

import pytest

from gsclab import (
    PULL,
    PUSH,
    AbstractExecution,
    Event,
    History,
    HistoryError,
    Interval,
    Op,
    Relation,
    TotalOrder,
    check_axioms,
    fixture,
    is_gsc,
    make_history,
    minimal_visibility,
    project,
)
from gsclab.composition import (
    PerObjectWitnesses,
    arbitration_constraints,
    compose,
    composition_precedence,
    union_relations,
)
from gsclab.generators import random_well_fenced_run

from helpers import fig3d_projection_executions


def handoff_witnesses():
    """Per-object witnesses for the unfenced-handoff history."""
    h = fixture("fig5").history
    hx, hy = project(h, "x"), project(h, "y")
    wx = AbstractExecution(hx, Relation.from_pairs(hx.ids, []), TotalOrder(("g", "f")))
    wy = AbstractExecution(hy, Relation.from_pairs(hy.ids, [("e", "p")]),
                           TotalOrder(("e", "p")))
    return PerObjectWitnesses(h, {"x": wx, "y": wy})


def closed_visibility(h: History, vis0: Relation, ar: TotalOrder) -> Relation:
    """The paper's closed form of the least visibility containing ``vis0``
    that satisfies the four visibility laws against ``ar``:

        so
        | (ar?; (vis0 \\ so); (rt into pullers)?; so?)
        | ((ar?; (rt? between pushers and pullers); so?) minus identity)

    The first arm covers read-your-writes, the second observed visibility,
    the third pushed visibility; the trailing ``so?`` on the last two covers
    monotonic views.  An oracle for the worklist closure."""
    ids = h.ids
    pushers, pullers = h.pushers(), h.pullers()
    arq = ar.as_relation().reflexive()
    soq = h.so.reflexive()
    rt_pull_q = Relation(
        ids, frozenset(p for p in h.rt.pairs if p[1] in pullers)
    ).reflexive()
    push_pull_q = Relation(
        ids, frozenset(p for p in h.rt.pairs if p[0] in pushers and p[1] in pullers)
    ) | Relation(ids, frozenset((a, a) for a in pushers & pullers))
    arm2 = arq.compose(vis0 - h.so).compose(rt_pull_q).compose(soq)
    arm3 = arq.compose(push_pull_q).compose(soq) - Relation(ids, frozenset()).reflexive()
    return h.so | arm2 | arm3


def witnesses_of(h, sem):
    per = {}
    for obj in h.objects():
        res = is_gsc(project(h, obj), sem)
        assert res.member
        per[obj] = res.witness
    return PerObjectWitnesses(h, per)


# -- unions and precedence --------------------------------------------------------


def test_union_relations_long_fork():
    h = fixture("fig3d").history
    w = PerObjectWitnesses(h, fig3d_projection_executions())
    so0, vis0, ar0 = union_relations(w)
    assert so0.pairs == frozenset()
    assert vis0.pairs == {("a", "c1"), ("b", "d1")}
    assert ar0.pairs == {("a", "c1"), ("a", "d2"), ("c1", "d2"),
                         ("b", "d1"), ("b", "c2"), ("d1", "c2")}


def test_union_relations_rejects_wrong_events():
    h = fixture("fig3d").history
    per = dict(fig3d_projection_executions())
    per["x"], per["y"] = per["y"], per["x"]
    with pytest.raises(HistoryError, match="covers events"):
        union_relations(PerObjectWitnesses(h, per))


def test_precedence_on_handoff():
    # The pull-fenced read g forces anything e that reaches an invisible
    # same-object peer through a real-time edge into a puller to precede
    # both that peer and the reader.
    w = handoff_witnesses()
    so0, vis0, _ = union_relations(w)
    prec = composition_precedence(w.history, vis0, so0)
    assert prec.pairs == {("e", "f"), ("e", "g")}


def test_precedence_shrinks_when_peer_is_visible():
    w = handoff_witnesses()
    so0, vis0, _ = union_relations(w)
    vis0 = vis0 | Relation.from_pairs(w.history.ids, [("f", "g")])
    prec = composition_precedence(w.history, vis0, so0)
    assert prec.pairs == {("e", "g")}


def pushed_handoff_witnesses():
    """A push-fenced x append p that returns before a pull-fenced y read r
    is called, and a concurrent unfenced y append a that r does not see.
    The y witness arbitrates a before r."""
    h = make_history(
        [Event("p", "A", "x", Op("append", 1), None, frozenset({PUSH})),
         Event("a", "B", "y", Op("append", 2), None, frozenset()),
         Event("r", "C", "y", Op("read"), (), frozenset({PULL}))],
        {"A": ["p"], "B": ["a"], "C": ["r"]},
        {"p": Interval(0, 1), "a": Interval(0.5, 2.5), "r": Interval(2, 3)},
    )
    hx, hy = project(h, "x"), project(h, "y")
    wx = AbstractExecution(hx, Relation.from_pairs(hx.ids, []), TotalOrder(("p",)))
    wy = AbstractExecution(hy, Relation.from_pairs(hy.ids, []), TotalOrder(("a", "r")))
    return PerObjectWitnesses(h, {"x": wx, "y": wy})


def test_precedence_from_pusher_into_puller(sem):
    # Nothing is visible across clients, so only the pushed arm reaches r:
    # p returned before the puller r was called.  Arbitrating a before p
    # would make a visible to r through p's push, so p precedes both y
    # events.  Without that guard the sorted tie-break puts a first.
    w = pushed_handoff_witnesses()
    so0, vis0, _ = union_relations(w)
    prec = composition_precedence(w.history, vis0, so0)
    assert prec.pairs == {("p", "a"), ("p", "r")}
    x = compose(w, sem)
    assert x.ar.sequence == ("p", "a", "r")
    assert ("a", "r") not in x.vis


def test_arbitration_constraints_contents():
    w = handoff_witnesses()
    h = w.history
    so0, vis0, ar0 = union_relations(w)
    prec = composition_precedence(h, vis0, so0)
    r = arbitration_constraints(h, vis0, ar0, prec)
    assert h.so.pairs <= r.pairs
    assert ar0.pairs <= r.pairs
    assert prec.pairs <= r.pairs
    # (vis0 minus so) chained with returned-before: e saw by p, p before g.
    assert ("e", "g") in r


# -- compose -----------------------------------------------------------------------


def test_compose_degenerate_single_object(sem):
    fix = fixture("fig3a")
    w = PerObjectWitnesses(fix.history, {"x": fix.witness})
    x = compose(w, sem)
    assert x.vis == fix.witness.vis
    assert x.ar == fix.witness.ar
    assert check_axioms(x, sem).ok


def test_compose_refuses_long_fork(sem):
    w = PerObjectWitnesses(fixture("fig3d").history, fig3d_projection_executions())
    with pytest.raises(HistoryError, match="not well-fenced"):
        compose(w, sem)


def test_compose_refuses_unfenced_handoff(sem):
    with pytest.raises(HistoryError, match="not well-fenced"):
        compose(handoff_witnesses(), sem)


def test_compose_refuses_missing_object(sem):
    fix = fixture("fig3c")
    w = PerObjectWitnesses(fix.history, {"x": fix.witness})
    with pytest.raises(HistoryError):
        compose(w, sem)


def test_compose_refuses_inputs_it_cannot_compose(sem):
    # Each refusal names what is wrong with the input, checked in this order:
    # the history, its objects against the witnesses', each witness's history.
    fix = fixture("fig3a")
    h, w = fix.history, fix.witness
    unordered = dataclasses.replace(h, rt=Relation.from_pairs(h.ids, []))
    cases = [
        (PerObjectWitnesses(unordered, {"x": w}), "so not contained in rt"),
        (PerObjectWitnesses(h, {"x": w, "y": w}),
         r"witness objects \['x', 'y'\] differ from history objects \['x'\]"),
        (PerObjectWitnesses(h, {"x": fixture("fig3b").witness}),
         "witness for object 'x' is not over the projection"),
    ]
    for witnesses, message in cases:
        with pytest.raises(HistoryError, match=message):
            compose(witnesses, sem)


def test_compose_refuses_lawless_witness(sem):
    h, _ = random_well_fenced_run(random.Random(3), sem)
    w = witnesses_of(h, sem)
    obj = sorted(w.per_object)[0]
    good = w.per_object[obj]
    per = dict(w.per_object)
    per[obj] = AbstractExecution(
        good.history, good.vis,
        TotalOrder(tuple(reversed(good.ar.sequence))),
    )
    # Reversing the arbitration breaks the structure, and the refusal says how.
    with pytest.raises(HistoryError, match=rf"^witness for object '{obj}' fails "
                       r"vis not contained in ar: \(B:0, B:1\)$"):
        compose(PerObjectWitnesses(h, per), sem)


def test_compose_refuses_a_witness_over_renamed_events(sem):
    # The witness's history is the projection with e1 and e2 swapped: equal
    # up to renaming, but its vis and ar name the other append, so a
    # composition over it would give r a context that evaluates to (1, 2).
    def history(a, b):
        events = [Event(a, "A", "x", Op("append", 1), None),
                  Event("r", "A", "x", Op("read"), (2, 1)),
                  Event(b, "B", "x", Op("append", 2), None)]
        return make_history(events, {"A": [a, "r"], "B": [b]},
                            Relation.from_pairs({a, b, "r"}, [(a, "r")]))
    h, swapped = history("e1", "e2"), history("e2", "e1")
    assert swapped.canonical() == h.canonical()
    w = PerObjectWitnesses(h, {"x": is_gsc(swapped, sem).witness})
    with pytest.raises(HistoryError, match="witness for object 'x' is not over the projection"):
        compose(w, sem)


def test_compose_random_two_object_runs(sem):
    rng = random.Random(41)
    done = 0
    while done < 10:
        h, _ = random_well_fenced_run(rng, sem)
        if len(h.objects()) < 2:
            continue
        w = witnesses_of(h, sem)
        x = compose(w, sem)
        assert check_axioms(x, sem).ok
        for obj, wit in sorted(w.per_object.items()):
            keep = wit.history.ids
            got = frozenset(p for p in x.vis.pairs if p[0] in keep and p[1] in keep)
            assert got == wit.vis.pairs
        done += 1


# -- relational identities ------------------------------------------------------------

NINE_TERM_DOC = """B+ is covered by the nine compositions of pushed
real-time edges, the arbitration union, and observed-then-finished edges,
with arbitration hops optionally on either side."""


def instance_relations(w):
    h = w.history
    so0, vis0, ar0 = union_relations(w)
    prec = composition_precedence(h, vis0, so0)
    ids = h.ids
    rtbar = Relation(ids, frozenset(p for p in h.rt.pairs if p[0] in h.pushers()))
    vr = (vis0 - h.so).compose(h.rt)
    base = rtbar | h.so | ar0 | vr
    return h, so0, vis0, ar0, prec, rtbar, vr, base


def assert_identities(w):
    h, so0, vis0, ar0, prec, rtbar, vr, base = instance_relations(w)
    ids = h.ids
    full = arbitration_constraints(h, vis0, ar0, prec)
    assert full == base | prec

    # The guard's reach has a second published spelling that folds the
    # pushed arm into the observed one with an identity-on-pushers hop.
    pullers = h.pullers()
    rt_pull = Relation(ids, frozenset(p for p in h.rt.pairs if p[1] in pullers))
    so0q = so0.reflexive()
    reach = ((vis0 - h.so).compose(rt_pull).compose(so0q)
             | (rtbar & rt_pull).compose(so0q))
    folded = ((vis0 - h.so) | Relation(ids, frozenset((a, a) for a in h.pushers()))) \
        .compose(rt_pull).compose(so0q)
    assert reach == folded

    # Everything forced is satisfiable: the constraint relation is acyclic.
    assert full.is_acyclic()
    assert base.is_acyclic()

    # Closed form of the constraint closure: the guard contributes only
    # head segments, optionally after one arbitration hop.
    base_plus = base.transitive_closure()
    head = prec | ar0.compose(prec)
    assert full.transitive_closure() == base_plus | head | head.compose(base_plus)

    # The guard-free closure is covered by the nine-term union.
    nine = (rtbar | ar0
            | ar0.compose(rtbar) | rtbar.compose(ar0)
            | ar0.compose(rtbar).compose(ar0)
            | vr | ar0.compose(vr) | vr.compose(ar0)
            | ar0.compose(vr).compose(ar0))
    assert base_plus.pairs <= nine.pairs

    # Session order factors through the per-object unions and pushes.
    ar0q = ar0.reflexive()
    assert h.so.pairs <= (ar0 | ar0q.compose(rtbar)).pairs

    # Pushed real-time absorbs trailing session order.
    assert (rtbar | h.so).transitive_closure().pairs \
        <= (rtbar | h.so.compose(rtbar.reflexive())).pairs

    # Absorption into the guard from the left.
    for left in (rtbar, rtbar.compose(ar0), vr, vr.compose(ar0)):
        assert left.compose(prec).pairs <= prec.pairs

    # The guard composes over optional arbitration hops.
    assert prec.compose(ar0q).compose(prec).pairs <= prec.pairs
    assert ar0q.compose(prec).is_irreflexive()


def test_identities_on_degenerate_instance(sem):
    fix = fixture("fig3a")
    assert_identities(PerObjectWitnesses(fix.history, {"x": fix.witness}))


def test_identities_on_random_instances(sem):
    rng = random.Random(11)
    for _ in range(20):
        h, _ = random_well_fenced_run(rng, sem)
        assert_identities(witnesses_of(h, sem))


def test_closed_visibility_is_least_closure(sem):
    # The paper's closed form equals the least fixpoint computed by the
    # law-by-law closure engine, which is exactly what compose installs.
    rng = random.Random(7)
    for _ in range(10):
        h, _ = random_well_fenced_run(rng, sem)
        w = witnesses_of(h, sem)
        _, vis0, _ = union_relations(w)
        x = compose(w, sem)
        closed = closed_visibility(h, vis0, x.ar)
        least, cl = minimal_visibility(h, x.ar, seed=vis0)
        assert cl.conflict is None
        assert closed == least == x.vis
