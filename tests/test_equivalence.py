"""Moving fence-free member executions between the all-push and all-pull
disciplines, and back via fence erasure.  Membership transfers only because
returns-before is re-chosen; the pinned-clock flip rows show the same
histories stop being members when it is not."""

import pytest

from gsclab import (
    AbstractExecution,
    HistoryError,
    Relation,
    apply_fence_preset,
    check_axioms,
    erase_fences,
    extend_to_total,
    fixture,
    is_gsc,
    to_dual_tso,
    to_tso,
)

from helpers import inverse

FENCE_FREE = ["fig3a", "fig3b", "fig3c"]


@pytest.mark.parametrize("name", FENCE_FREE)
def test_all_push_form(sem, name):
    x = fixture(name).witness
    out = to_dual_tso(x, sem)
    assert all(e.fences == frozenset({"push"}) for e in out.history.events)
    assert out.vis == x.vis and out.ar == x.ar
    assert out.history.rt == x.ar.as_relation()
    assert check_axioms(out, sem).ok
    assert is_gsc(out.history, sem).member


@pytest.mark.parametrize("name", FENCE_FREE)
def test_all_pull_form(sem, name):
    x = fixture(name).witness
    out = to_tso(x, sem)
    assert all(e.fences == frozenset({"pull"}) for e in out.history.events)
    assert out.vis == x.vis and out.ar == x.ar
    # Returns-before becomes a total order containing the visibility.
    rt = out.history.rt
    assert rt == extend_to_total(rt).as_relation()
    assert x.vis.pairs <= rt.pairs
    assert check_axioms(out, sem).ok
    assert is_gsc(out.history, sem).member


@pytest.mark.parametrize("name", FENCE_FREE)
def test_erase_returns_to_fence_free_membership(sem, name):
    x = fixture(name).witness
    for out in (to_dual_tso(x, sem), to_tso(x, sem)):
        back = AbstractExecution(erase_fences(out.history), out.vis, out.ar)
        assert check_axioms(back, sem).ok
        assert is_gsc(back.history, sem).member


def test_transforms_reject_fenced_input(sem):
    x = fixture("fig5").witness  # g carries a pull fence
    with pytest.raises(HistoryError, match="fence-free"):
        to_dual_tso(x, sem)
    with pytest.raises(HistoryError, match="fence-free"):
        to_tso(x, sem)


def test_transforms_reject_lawless_input(sem):
    w = fixture("fig3a").witness
    broken = AbstractExecution(
        w.history, w.vis - Relation.from_pairs(w.history.ids, [("e1", "e2")]), w.ar)
    with pytest.raises(HistoryError, match="fails axioms"):
        to_dual_tso(broken, sem)
    with pytest.raises(HistoryError, match="fails axioms"):
        to_tso(broken, sem)


def test_transforms_reject_vis_outside_ar(sem):
    # One structural message per violation, in order; the fence check
    # still comes first.
    w = fixture("fig3a").witness
    back = Relation.from_pairs(w.history.ids, [("e2", "e1")])
    bad = AbstractExecution(w.history, w.vis | back, w.ar)
    for transform in (to_dual_tso, to_tso):
        with pytest.raises(HistoryError) as err:
            transform(bad, sem)
        assert str(err.value) == "vis cyclic; vis not contained in ar: (e2, e1)"
    x = fixture("fig5").witness
    fenced = AbstractExecution(x.history, x.vis | inverse(x.ar.as_relation()), x.ar)
    with pytest.raises(HistoryError, match="fence-free"):
        to_tso(fenced, sem)


def test_membership_not_preserved_with_pinned_clock(sem):
    # Re-fencing the same histories without re-choosing returns-before
    # flips membership: the transforms owe their soundness to the freedom
    # to extend it.
    fig3a = fixture("fig3a").history
    fig3b = fixture("fig3b").history
    assert not is_gsc(apply_fence_preset(fig3a, "tso", sem), sem).member
    assert is_gsc(apply_fence_preset(fig3a, "dual_tso", sem), sem).member
    assert is_gsc(apply_fence_preset(fig3b, "tso", sem), sem).member
    assert not is_gsc(apply_fence_preset(fig3b, "dual_tso", sem), sem).member


def test_all_pull_rt_differs_from_pinned_rt(sem):
    # The stale read survives the all-pull transform precisely because the
    # new returns-before no longer places the fresh reader before the stale
    # one; pinned, that edge forces the missed append into the stale view.
    x = fixture("fig3a").witness
    out = to_tso(x, sem)
    pinned = apply_fence_preset(fixture("fig3a").history, "tso", sem)
    assert ("e2", "f2") in pinned.rt
    assert ("e2", "f2") not in out.history.rt
    assert ("f2", "e2") in out.history.rt


def test_transform_on_fence_free_non_member_history(sem):
    # fig3d is fence-free but has no witness at all, so there is nothing to
    # transform; feeding any structurally valid but lawless execution is an
    # input error.
    h = fixture("fig3d").history
    from gsclab import TotalOrder
    seq = tuple(sorted(h.ids))
    x = AbstractExecution(h, Relation.from_pairs(h.ids, []), TotalOrder(seq))
    with pytest.raises(HistoryError, match="fails axioms"):
        to_tso(x, sem)


def test_transforms_deterministic(sem):
    x = fixture("fig3c").witness
    assert to_tso(x, sem) == to_tso(x, sem)
    assert to_dual_tso(x, sem) == to_dual_tso(x, sem)
