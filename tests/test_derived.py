"""Single-copy (lin) and serialized-updates (osc) checkers, their fence
preset requirements, agreement with the law-based membership test, and the
witness converters in both directions."""

import random

import pytest

from gsclab import (
    Event,
    HistoryError,
    Interval,
    Op,
    Relation,
    apply_fence_preset,
    check_axioms,
    check_lin,
    check_osc,
    extend_to_total,
    fixture,
    is_gsc,
    lin_from_osc_execution,
    make_history,
    minimal_visibility,
    osc_execution_from_lin,
)
from gsclab.derived import Linearization

from helpers import product, random_history


def fenced_chain():
    """One client: append 1 then read it back, fully fenced."""
    events = [
        Event("a", "A", "x", Op("append", 1), None, frozenset({"push", "pull"})),
        Event("b", "A", "x", Op("read"), (1,), frozenset({"push", "pull"})),
    ]
    return make_history(events, {"A": ["a", "b"]},
                        {"a": Interval(0, 1), "b": Interval(2, 3)})


def explains_by_prefixes(h, lin, sem) -> bool:
    prefix: dict[str, list] = {}
    for eid in lin.sequence:
        e = h.by_id[eid]
        if sem.eval(tuple(prefix.get(e.obj, ())), e.op) != e.rval:
            return False
        prefix.setdefault(e.obj, []).append(e.op)
    return True


# -- preset requirements -----------------------------------------------------


def test_check_lin_requires_full_fences(sem):
    with pytest.raises(HistoryError, match="must both push and pull"):
        check_lin(fixture("fig3a").history, sem)


def test_check_osc_requires_pushes(sem):
    with pytest.raises(HistoryError, match="must push"):
        check_osc(fixture("fig3a").history, sem)


def test_check_osc_requires_update_pulls(sem):
    h = apply_fence_preset(fixture("fig3a").history, "dual_tso", sem)
    with pytest.raises(HistoryError, match="update event .* must pull"):
        check_osc(h, sem)


def test_check_osc_requires_classifier(sem):
    import dataclasses
    h = apply_fence_preset(fenced_chain(), "lin", sem)
    no_classes = dataclasses.replace(sem, classify=None)
    with pytest.raises(HistoryError, match="cannot classify"):
        check_osc(h, no_classes)


# -- membership --------------------------------------------------------------


def test_lin_member_simple_chain(sem):
    res = check_lin(fenced_chain(), sem)
    assert res and res.witness is not None
    assert res.witness.lin.sequence == ("a", "b")
    assert explains_by_prefixes(fenced_chain(), res.witness.lin, sem)


def test_lin_non_member_has_note(sem):
    h = apply_fence_preset(fixture("fig3a").history, "lin", sem)
    res = check_lin(h, sem)
    assert not res and res.witness is None
    assert "return value" in res.note


def test_osc_rejects_stale_read(sem):
    # The serialized-updates checker refuses the stale-read litmus: with
    # both appends serialized before both reads, no prefix evaluation lets
    # one reader miss an append the other saw.
    h = apply_fence_preset(fixture("fig3a").history, "osc", sem)
    assert not check_osc(h, sem)


def test_osc_accepts_unfenced_handoff(sem):
    h = apply_fence_preset(fixture("fig5").history, "osc", sem)
    res = check_osc(h, sem)
    assert res
    assert res.witness.lin.sequence == ("e", "p", "g", "f")


def test_osc_weaker_than_lin_on_handoff(sem):
    h = apply_fence_preset(fixture("fig5").history, "lin", sem)
    assert not check_lin(h, sem)


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig3d", "fig5"])
def test_lin_agrees_with_law_membership(sem, name):
    h = apply_fence_preset(fixture(name).history, "lin", sem)
    assert bool(check_lin(h, sem)) == bool(is_gsc(h, sem))


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig3d", "fig5"])
def test_osc_agrees_with_law_membership(sem, name):
    h = apply_fence_preset(fixture(name).history, "osc", sem)
    assert bool(check_osc(h, sem)) == bool(is_gsc(h, sem))


# -- converters --------------------------------------------------------------


def test_osc_execution_from_lin_passes_laws(sem):
    h = apply_fence_preset(fixture("fig5").history, "osc", sem)
    res = check_osc(h, sem)
    x = osc_execution_from_lin(res.witness, sem)
    assert check_axioms(x, sem).ok


def test_lin_from_osc_execution_round_trip(sem):
    h = apply_fence_preset(fixture("fig5").history, "osc", sem)
    res = check_osc(h, sem)
    x = osc_execution_from_lin(res.witness, sem)
    back = lin_from_osc_execution(x, sem)
    assert isinstance(back, Linearization)
    assert sorted(back.lin.sequence) == sorted(h.ids)
    assert explains_by_prefixes(h, back.lin, sem)
    # Session order survives the round trip.
    for a, b in h.so.pairs:
        assert back.lin.before(a, b)


def closed_osc_execution(lin, sem):
    """The paper's closed form of the expanded witness: arbitration extends
    the update-to-anything linearization edges with real-time order, and

        vis = so | (ar?; (lin from updates \\ so); so?)
                 | (((ar?; (rt? between pushers and pullers)) minus identity); so?)

    An oracle for the worklist closure ``osc_execution_from_lin`` uses."""
    h = lin.history
    ids = h.ids
    upd = {e.id for e in h.events if sem.is_update(e.op)}
    r_upd = Relation(ids, frozenset(p for p in lin.lin.as_relation().pairs
                                    if p[0] in upd))
    ar = extend_to_total(r_upd | h.rt, tie_break=lin.lin.sequence)
    arq = ar.as_relation().reflexive()
    soq = h.so.reflexive()
    push_pull = h.rt.reflexive() & product(ids, h.pushers(), h.pullers())
    pushed = Relation(ids, frozenset(
        p for p in arq.compose(push_pull).pairs if p[0] != p[1]))
    vis = h.so | arq.compose(r_upd - h.so).compose(soq) | pushed.compose(soq)
    return r_upd, ar, vis


def preset_histories(sem):
    """The lin and osc presets of the paper's fixtures, the fenced chain and
    a seeded sample of random histories."""
    rng = random.Random(20250811)
    base = [fixture(n).history for n in ("fig3a", "fig3b", "fig3c", "fig3d", "fig5")]
    base += [fenced_chain()] + [random_history(rng) for _ in range(300)]
    return [apply_fence_preset(h, model, sem) for h in base for model in ("lin", "osc")]


def test_osc_execution_from_lin_is_closed_form(sem):
    # The expanded visibility is the least closure of the update edges, and
    # equals the paper's closed form wherever a witness exists.
    checked = 0
    for h in preset_histories(sem):
        res = check_osc(h, sem)
        if not res:
            continue
        x = osc_execution_from_lin(res.witness, sem)
        r_upd, ar, closed = closed_osc_execution(res.witness, sem)
        least, cl = minimal_visibility(h, ar, seed=r_upd)
        assert cl.conflict is None
        assert x.ar == ar
        assert closed == least == x.vis
        checked += 1
    assert checked > 50


def test_converters_on_fully_fenced_chain(sem):
    h = fenced_chain()
    res = check_lin(h, sem)
    x = osc_execution_from_lin(res.witness, sem)
    assert check_axioms(x, sem).ok
    back = lin_from_osc_execution(x, sem)
    assert back.lin.sequence == ("a", "b")
