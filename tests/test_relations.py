"""Relation algebra: constructors, operators, closures, orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsclab.relations import (
    CycleError,
    Relation,
    TotalOrder,
    extend_to_total,
    linear_extensions,
)

D = frozenset("abcd")


def rel(*pairs):
    return Relation(D, frozenset(pairs))


def test_constructors_and_operators():
    r = rel(("a", "b"), ("b", "c"))
    s = rel(("b", "c"), ("c", "d"))
    assert (r | s).pairs == {("a", "b"), ("b", "c"), ("c", "d")}
    assert (r & s).pairs == {("b", "c")}
    assert (r - s).pairs == {("a", "b")}
    assert ("a", "b") in r and ("b", "a") not in r
    assert Relation.empty(D).pairs == frozenset()
    assert Relation.identity(D).pairs == {(x, x) for x in D}
    assert Relation.diagonal(D, {"a", "b"}).pairs == {("a", "a"), ("b", "b")}
    assert Relation.product(D, {"a"}, {"b", "c"}).pairs == {("a", "b"), ("a", "c")}


def test_compose_inverse_reflexive():
    r = rel(("a", "b"), ("b", "c"))
    assert r.compose(r).pairs == {("a", "c")}
    assert r.inverse().pairs == {("b", "a"), ("c", "b")}
    q = r.reflexive()
    assert r.pairs < q.pairs and all((x, x) in q for x in D)


def test_transitive_closure_and_predicates():
    r = rel(("a", "b"), ("b", "c"), ("c", "d"))
    t = r.transitive_closure()
    assert ("a", "d") in t and t.is_transitive()
    assert t.transitive_closure() == t
    assert r.is_acyclic() and r.is_irreflexive()
    assert not rel(("a", "b"), ("b", "a")).is_acyclic()
    assert t.is_strict_partial_order()
    # The closure of a chain relates every pair, so it is total; the raw
    # chain is not.
    assert not r.is_total_on_domain()
    assert t.is_total_on_domain()
    chain = TotalOrder(("a", "b", "c", "d")).as_relation()
    assert chain.is_total_on_domain()


def test_restrict_successors_predecessors():
    r = rel(("a", "b"), ("b", "c"), ("a", "c"))
    sub = r.restrict({"a", "b"})
    assert sub.domain == frozenset({"a", "b"}) and sub.pairs == {("a", "b")}
    assert r.successors("a") == frozenset({"b", "c"})
    assert r.predecessors("c") == frozenset({"a", "b"})


def test_total_order_helpers():
    t = TotalOrder(("b", "a", "c"))
    assert t.position("a") == 1
    assert t.before("b", "c") and not t.before("c", "b")
    assert t.as_relation().pairs == {("b", "a"), ("b", "c"), ("a", "c")}


def test_extend_to_total_deterministic_and_minimal():
    r = rel(("a", "c"))
    t = extend_to_total(r, tie_break=sorted(D))
    assert t.sequence == ("a", "b", "c", "d")
    assert r.pairs <= t.as_relation().pairs
    # Greedy by tie-break priority: c is blocked until a is placed, so the
    # ready vertices go d, then b, then the a < c constraint plays out.
    t2 = extend_to_total(r, tie_break=["d", "c", "b", "a"])
    assert t2.sequence == ("d", "b", "a", "c")


def test_extend_to_total_cycle_error():
    with pytest.raises(CycleError):
        extend_to_total(rel(("a", "b"), ("b", "a")))


def test_linear_extensions_counts_and_limit():
    exts = list(linear_extensions(Relation.empty(frozenset("abc"))))
    assert len(exts) == 6
    assert all(isinstance(e, TotalOrder) for e in exts)
    r = Relation(frozenset("abc"), frozenset({("a", "b")}))
    exts = list(linear_extensions(r))
    assert len(exts) == 3
    assert all(e.before("a", "b") for e in exts)


small_domains = st.sets(st.sampled_from("abcde"), min_size=1, max_size=5).map(frozenset)


@st.composite
def relations(draw):
    dom = draw(small_domains)
    elems = sorted(dom)
    pairs = draw(
        st.sets(
            st.tuples(st.sampled_from(elems), st.sampled_from(elems)), max_size=10
        )
    )
    return Relation(dom, frozenset(pairs))


@settings(deadline=None, max_examples=150)
@given(relations())
def test_property_transitive_closure(r):
    t = r.transitive_closure()
    assert r.pairs <= t.pairs
    assert t.is_transitive()
    assert t.compose(t).pairs <= t.pairs


@settings(deadline=None, max_examples=150)
@given(relations(), relations())
def test_property_compose_monotone(r, s):
    if r.domain != s.domain:
        return
    rs = r.compose(s)
    assert rs.pairs <= {(a, c) for a, b in r.pairs for b2, c in s.pairs if b == b2}


@settings(deadline=None, max_examples=100)
@given(relations())
def test_property_extension_contains_acyclic_input(r):
    if not r.is_acyclic():
        return
    t = extend_to_total(r, tie_break=sorted(r.domain))
    strict = r - Relation.identity(r.domain)
    assert strict.pairs <= t.as_relation().pairs


@st.composite
def interval_orders(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"e{i}" for i in range(n)]
    starts = [draw(st.floats(0, 10, allow_nan=False)) for _ in names]
    lens = [draw(st.floats(0.1, 5, allow_nan=False)) for _ in names]
    iv = {x: (s, s + l) for x, s, l in zip(names, starts, lens)}
    dom = frozenset(names)
    pairs = frozenset(
        (a, b) for a in names for b in names if a != b and iv[a][1] < iv[b][0]
    )
    return Relation(dom, pairs)


@settings(deadline=None, max_examples=150)
@given(interval_orders(), st.data())
def test_property_interval_order_absorption(rt, data):
    """rt; S; rt is inside rt whenever S never opposes rt."""
    assert rt.is_interval_order()
    elems = sorted(rt.domain)
    raw = data.draw(
        st.sets(st.tuples(st.sampled_from(elems), st.sampled_from(elems)), max_size=12)
    )
    s = Relation(rt.domain, frozenset(raw) - rt.inverse().pairs)
    assert not (s & rt.inverse()).pairs
    assert rt.compose(s).compose(rt).pairs <= rt.pairs
