"""Relation algebra: constructors, operators, closures, orders."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsclab.relations as kernel
from gsclab import get_semantics
from gsclab.generators import random_well_fenced_run
from gsclab.relations import (
    CycleError,
    DomainMismatchError,
    Relation,
    TotalOrder,
    extend_to_total,
    linear_extensions,
)

from helpers import inverse, product, random_history

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
    assert product(D, {"a"}, {"b", "c"}).pairs == {("a", "b"), ("a", "c")}


def test_compose_inverse_reflexive():
    r = rel(("a", "b"), ("b", "c"))
    assert r.compose(r).pairs == {("a", "c")}
    assert inverse(r).pairs == {("b", "a"), ("c", "b")}
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
    # The closure of a chain is the chain's total order; the raw chain is not.
    chain = TotalOrder(("a", "b", "c", "d")).as_relation()
    assert t == chain and r != chain


def test_restrict_successors_predecessors():
    r = rel(("a", "b"), ("b", "c"), ("a", "c"))
    sub = r.restrict({"a", "b"})
    assert sub.domain == frozenset({"a", "b"}) and sub.pairs == {("a", "b")}
    assert {b for a, b in r.pairs if a == "a"} == {"b", "c"}
    assert r.predecessors("c") == frozenset({"a", "b"})


def test_total_order_helpers():
    t = TotalOrder(("b", "a", "c"))
    fresh = TotalOrder(("b", "a", "c"))
    assert (t == fresh, hash(t), repr(t)) == (True, hash(fresh), repr(fresh))
    assert t.before("b", "c") and not t.before("c", "b")
    # the position index built by before changes neither eq, hash nor repr
    assert (t == fresh, hash(t), repr(t)) == (True, hash(fresh), repr(fresh))
    assert repr(t) == "TotalOrder(sequence=('b', 'a', 'c'))"
    assert t.as_relation().pairs == {("b", "a"), ("b", "c"), ("a", "c")}
    with pytest.raises(ValueError, match="total order repeats an element"):
        TotalOrder(("a", "a"))
    for order in (t, fresh):
        back = pickle.loads(pickle.dumps(order))
        assert back == order and back.before("a", "c") and not back.before("c", "b")


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
    exts = list(linear_extensions(Relation(frozenset("abc"), frozenset())))
    assert len(exts) == 6
    assert all(isinstance(e, TotalOrder) for e in exts)
    r = Relation(frozenset("abc"), frozenset({("a", "b")}))
    exts = list(linear_extensions(r))
    assert len(exts) == 3
    assert all(e.before("a", "b") for e in exts)


def test_empty_relation_has_one_empty_extension():
    assert [t.sequence for t in linear_extensions(Relation(frozenset(), frozenset()))] == [()]


@pytest.mark.parametrize("build, error, match", [
    (lambda: rel(("a", "z")), ValueError, r"pair \('a', 'z'\) outside domain"),
    (lambda: rel() | Relation(frozenset("ab"), frozenset()), DomainMismatchError,
     "relations over different domains"),
    (lambda: extend_to_total(rel(), tie_break="abc"), ValueError,
     "tie_break must enumerate the domain exactly"),
], ids=["pair-outside-domain", "domain-mismatch", "short-tie-break"])
def test_malformed_relation_inputs_are_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_least_order_takes_the_least_ready_node_and_reports_the_rest():
    succ = {3: [1], 1: [], 2: [0], 0: [], 5: [4], 4: [5, 6], 6: []}
    assert kernel.least_order(succ) == ([2, 0, 3, 1], {4, 5, 6})
    # an edge listed twice is waited for twice
    assert kernel.least_order({"a": ["b", "b"], "b": []}) == (["a", "b"], set())


def test_cyclic_relation_has_no_extension_and_places_nothing():
    # A 2-cycle plus 12 unrelated elements: the walk refuses it before its
    # first placement, where a prefix search would try every ordering of
    # the unrelated elements first.
    dom = frozenset(["a", "b"] + [f"u{i:02}" for i in range(12)])
    r = Relation(dom, frozenset({("a", "b"), ("b", "a")}))
    assert list(linear_extensions(r)) == []
    calls = []

    def place(state, a):
        calls.append(a)
        return state

    with pytest.raises(CycleError, match=r"cycle among \['a', 'b'\]"):
        kernel.extensions(r, place, ())
    assert calls == []


def test_extensions_cut_what_place_refuses():
    # place refuses b right after a, which cuts a b c and c a b
    r = Relation(frozenset("abc"), frozenset())
    got = list(kernel.extensions(r, lambda s, x: None if s[-1:] == "a" and x == "b" else s + x, ""))
    assert got == [(("a", "c", "b"), "acb"), (("b", "a", "c"), "bac"),
                   (("b", "c", "a"), "bca"), (("c", "b", "a"), "cba")]


def test_extensions_walk_a_chain_longer_than_the_recursion_limit():
    # The walk keeps its own stack: a 2,000-element chain has one extension.
    ids = [f"e{i:04d}" for i in range(2000)]
    r = Relation(frozenset(ids), frozenset(zip(ids, ids[1:])))
    assert list(kernel.extensions(r, lambda n, a: n + 1, 0)) == [(tuple(ids), 2000)]


@st.composite
def relations(draw, letters="abcde"):
    dom = draw(st.sets(st.sampled_from(letters), min_size=1).map(frozenset))
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
    strict = r - Relation(r.domain, frozenset()).reflexive()
    assert strict.pairs <= t.as_relation().pairs


def greedy_extension(r, tie_break):
    """extend_to_total's former loop: repeatedly emit the enabled element
    that comes first in tie_break, loops ignored."""
    preds = {a: {x for x, y in r.pairs if y == a and x != a} for a in r.domain}
    out, remaining = [], set(r.domain)
    while remaining:
        pick = next((a for a in tie_break if a in remaining and preds[a] <= set(out)), None)
        if pick is None:
            raise CycleError(f"cycle among {sorted(remaining)}")
        out.append(pick)
        remaining.remove(pick)
    return tuple(out)


@settings(deadline=None, max_examples=200)
@given(relations())
def test_property_acyclic_iff_closure_irreflexive(r):
    assert r.is_acyclic() == r.transitive_closure().is_irreflexive()


@settings(deadline=None, max_examples=200)
@given(relations(), st.randoms(use_true_random=False))
def test_property_extend_to_total_is_the_greedy_order(r, rng):
    order = sorted(r.domain)
    rng.shuffle(order)
    try:
        want = greedy_extension(r, order)
    except CycleError as err:
        with pytest.raises(CycleError) as got:
            extend_to_total(r, order)
        assert str(got.value) == str(err)
    else:
        assert extend_to_total(r, order).sequence == want


@settings(deadline=None, max_examples=200)
@given(relations("abcdef"))
def test_property_linear_extensions_are_the_sorted_respecting_permutations(r):
    want = [p for p in itertools.permutations(sorted(r.domain))
            if all(p.index(a) < p.index(b) for a, b in r.pairs if a != b)]
    assert [t.sequence for t in linear_extensions(r)] == want


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
    s = Relation(rt.domain, frozenset(raw) - inverse(rt).pairs)
    assert not (s & inverse(rt)).pairs
    assert rt.compose(s).compose(rt).pairs <= rt.pairs


def two_plus_two_free(r):
    """The interval order definition, literally: a strict partial order in
    which e1 < e2 and f1 < f2 imply e1 < f2 or f1 < e2."""
    if not r.is_strict_partial_order():
        return False
    return all((e1, f2) in r.pairs or (f1, e2) in r.pairs
               for e1, e2 in r.pairs for f1, f2 in r.pairs)


def random_strict_partial_order(rng, n):
    names = [f"e{i}" for i in range(n)]
    rng.shuffle(names)
    density = rng.uniform(0.1, 0.5)
    pairs = {(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density}
    return Relation(frozenset(names), frozenset(pairs)).transitive_closure()


def test_interval_order_matches_two_plus_two_definition():
    rng = random.Random(7)
    posets = [random_strict_partial_order(rng, rng.randint(4, 8)) for _ in range(600)]
    # not strict partial orders: a non-transitive chain and a cycle
    others = [rel(("a", "b"), ("b", "c")), rel(("a", "b"), ("b", "a"))]
    hrng, wrng, sem = random.Random(8), random.Random(9), get_semantics("sequence")
    rts = [random_history(hrng).rt for _ in range(200)]
    rts += [random_well_fenced_run(wrng, sem, clients=3)[0].rt for _ in range(100)]
    for group in (posets, others, rts):
        assert [r.is_interval_order() for r in group] == [two_plus_two_free(r) for r in group]
    positives = sum(r.is_interval_order() for r in posets)
    assert 100 < positives < 500
    assert not any(r.is_interval_order() for r in others)
    assert all(r.is_interval_order() for r in rts)
