"""Law checker and membership tests: per-law verdicts on known-good and
deliberately broken executions, the frozen verdict table over all fence
presets, refutation narratives, agreement with and without return-value
decoding, the closure's worded derivations as single law steps, an
observer's options against the candidate sets, the law check against its
literal relational definition and against the pair-by-pair reference on
passing and failing executions, and verdicts that do not depend on the
hash seed."""

import dataclasses
import itertools
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from gsclab import (
    AXIOM_NAMES,
    AbstractExecution,
    Event,
    HistoryError,
    Interval,
    Op,
    Relation,
    TotalOrder,
    all_fixtures,
    apply_fence_preset,
    check_axioms,
    check_lin,
    check_osc,
    fixture,
    is_gsc,
    make_history,
    minimal_visibility,
    project,
    validate_history,
)
from gsclab import axioms
from gsclab.generators import random_well_fenced_run
from gsclab.model import MODELS
from gsclab.relations import extend_to_total, linear_extensions

from helpers import (
    candidate_sets,
    fig3a_pull_variant,
    fig3b_push_variant,
    fig3c_fence_variant,
    fold_values,
    misreported_append,
    pairwise_check_axioms,
    product,
    random_history,
    verdict,
)


def three_singletons(vis_pairs, ar_seq, fences=None, rvals=None, kinds=None):
    fences = fences or {}
    rvals = rvals or {}
    kinds = kinds or {}
    events = []
    for i, eid in enumerate(("a", "b", "c")):
        kind, value = kinds.get(eid, ("append", i + 1))
        events.append(Event(eid, f"C{eid}", "x", Op(kind, value),
                            rvals.get(eid), frozenset(fences.get(eid, ()))))
    sessions = {f"C{eid}": [eid] for eid in ("a", "b", "c")}
    intervals = {"a": Interval(0, 1), "b": Interval(2, 3), "c": Interval(4, 5)}
    h = make_history(events, sessions, intervals)
    return AbstractExecution(h, Relation.from_pairs(h.ids, vis_pairs), TotalOrder(ar_seq))


def test_axiom_names_are_stable():
    assert AXIOM_NAMES == (
        "RETVAL", "RYW", "MONOTONICVIEW", "OBSERVEDVIS",
        "PUSHEDVIS", "OBSERVEDAR", "PUSHEDAR", "EVENTUAL",
    )


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig5"])
def test_fixture_witnesses_pass_all_laws(sem, name):
    report = check_axioms(fixture(name).witness, sem)
    assert report.ok
    assert report.failed() == ()
    assert all(verdict(report, n).holds for n in AXIOM_NAMES)


def test_structural_problems_reported(sem):
    w = fixture("fig3a").witness
    broken = AbstractExecution(w.history, w.vis, TotalOrder(tuple(reversed(w.ar.sequence))))
    report = check_axioms(broken, sem)
    assert not report.ok
    assert any("ar" in p for p in report.structural)


def test_retval_failure(sem):
    # b and c read x without seeing the append, but b claims it did.
    x = three_singletons(
        [], ("a", "b", "c"),
        kinds={"b": ("read", None), "c": ("read", None)},
        rvals={"b": (1,), "c": ()},
    )
    report = check_axioms(x, sem)
    assert "RETVAL" in report.failed()
    bad = verdict(report, "RETVAL")
    assert any("b" in pair for pair in bad.counterexamples) or bad.counterexamples


def test_retval_failure_of_a_context_insensitive_event(sem):
    # eval decides e1's return value without a context, once per history,
    # so the failure comes from the index's RETVAL plan, not from a view.
    h = misreported_append()
    x = AbstractExecution(h, Relation.from_pairs(h.ids, [("e1", "r")]), TotalOrder(("e1", "r")))
    assert verdict(check_axioms(x, sem), "RETVAL").counterexamples == (("e1", None),)
    res = is_gsc(h, sem)
    assert not res.member
    assert res.refutations == ("ar ['e1', 'r']: laws violated: RETVAL",)


def test_ryw_failure(sem):
    events = [
        Event("a", "A", "x", Op("append", 1), None, frozenset()),
        Event("b", "A", "x", Op("read"), (), frozenset()),
    ]
    h = make_history(events, {"A": ["a", "b"]},
                     {"a": Interval(0, 1), "b": Interval(2, 3)})
    x = AbstractExecution(h, Relation.from_pairs(h.ids, []), TotalOrder(("a", "b")))
    report = check_axioms(x, sem)
    assert "RYW" in report.failed()
    assert ("a", "b") in verdict(report, "RYW").counterexamples


def test_monotonic_view_failure(sem):
    events = [
        Event("a", "A", "x", Op("append", 1), None, frozenset()),
        Event("b", "B", "x", Op("read"), (1,), frozenset()),
        Event("c", "B", "x", Op("read"), (), frozenset()),
    ]
    h = make_history(events, {"A": ["a"], "B": ["b", "c"]},
                     {"a": Interval(0, 1), "b": Interval(2, 3), "c": Interval(4, 5)})
    x = AbstractExecution(h, Relation.from_pairs(h.ids, [("a", "b"), ("b", "c")]),
                          TotalOrder(("a", "b", "c")))
    report = check_axioms(x, sem)
    assert "MONOTONICVIEW" in report.failed()
    assert ("a", "c") in verdict(report, "MONOTONICVIEW").counterexamples


def test_pushed_vis_failure(sem):
    # g pushes, e pulls after it in real time, yet e does not see g.
    events = [
        Event("g", "A", "x", Op("append", 1), None, frozenset({"push"})),
        Event("e", "B", "x", Op("read"), (), frozenset({"pull"})),
    ]
    h = make_history(events, {"A": ["g"], "B": ["e"]},
                     {"g": Interval(0, 1), "e": Interval(2, 3)})
    x = AbstractExecution(h, Relation.from_pairs(h.ids, []), TotalOrder(("g", "e")))
    report = check_axioms(x, sem)
    assert "PUSHEDVIS" in report.failed()


def test_observed_ar_failure(sem):
    # a is visible to b, b returns before c, yet c is arbitrated before a.
    x = three_singletons([("a", "b")], ("c", "a", "b"))
    h = x.history
    rt = Relation.from_pairs(h.ids, [("a", "b"), ("a", "c"), ("b", "c")])
    x = AbstractExecution(dataclasses.replace(h, rt=rt), x.vis, x.ar)
    report = check_axioms(x, sem)
    assert "OBSERVEDAR" in report.failed()
    assert ("a", "c") in verdict(report, "OBSERVEDAR").counterexamples


def test_pushed_ar_failure(sem):
    x = three_singletons([], ("b", "c", "a"), fences={"a": ("push",)})
    h = x.history
    rt = Relation.from_pairs(h.ids, [("a", "b"), ("a", "c"), ("b", "c")])
    x = AbstractExecution(dataclasses.replace(h, rt=rt), x.vis, x.ar)
    report = check_axioms(x, sem)
    assert "PUSHEDAR" in report.failed()


# -- minimal visibility ----------------------------------------------------------


def test_minimal_visibility_on_witness_ar(sem):
    w = fixture("fig3a").witness
    vis, closure = minimal_visibility(w.history, w.ar)
    # The least closed visibility sits inside the witness's visibility.
    assert vis.pairs <= w.vis.pairs
    for pair in sorted(vis.pairs):
        chain = closure.chain(pair)
        assert chain
        assert all(" -> " in line and " by " in line for line in chain)
        assert chain[-1].startswith(f"{pair[0]} -> {pair[1]} by ")


def test_minimal_visibility_includes_seed(sem):
    w = fixture("fig3b").witness
    seed = Relation.from_pairs(w.history.ids, [("e1", "f2")])
    vis, _ = minimal_visibility(w.history, w.ar, seed)
    assert ("e1", "f2") in vis.pairs


def test_minimal_visibility_with_a_conflicting_seed():
    # r is arbitrated before a, so the seed (a, r) makes the closure
    # reflexive: there is no least visibility, and the relation returned
    # is the pairs derived before the conflict.
    h = make_history([Event("a", "A", "x", Op("append", 1), None),
                      Event("r", "B", "x", Op("read"), (1,))],
                     {"A": ["a"], "B": ["r"]}, Relation(frozenset("ar"), frozenset()))
    vis, closure = minimal_visibility(h, TotalOrder(("r", "a")),
                                      Relation.from_pairs(h.ids, [("a", "r")]))
    assert closure.conflicted
    assert vis.pairs == frozenset(closure.why) == {("a", "r")}


# -- membership: frozen verdict table ----------------------------------------------

VERDICTS = {
    "fig3a": {"gsc": True, "gsp": True, "tso": False, "dual_tso": True,
              "osc": False, "lin": False},
    "fig3b": {"gsc": True, "gsp": True, "tso": True, "dual_tso": False,
              "osc": False, "lin": False},
    "fig3c": {"gsc": True, "gsp": True, "tso": True, "dual_tso": True,
              "osc": False, "lin": False},
    "fig3d": {"gsc": False, "gsp": False, "tso": False, "dual_tso": False,
              "osc": False, "lin": False},
    "fig5": {"gsc": True, "gsp": True, "tso": True, "dual_tso": True,
             "osc": True, "lin": False},
}


def model_verdict(h, model, sem):
    refenced = apply_fence_preset(h, model, sem)
    if model == "lin":
        return bool(check_lin(refenced, sem))
    if model == "osc":
        return bool(check_osc(refenced, sem))
    return bool(is_gsc(refenced, sem))


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_verdict_table_row(sem, name):
    fix = fixture(name)
    assert dict(fix.membership) == VERDICTS[name]
    got = {m: model_verdict(fix.history, m, sem) for m in VERDICTS[name]}
    assert got == VERDICTS[name]


@pytest.mark.parametrize("variant", [fig3a_pull_variant, fig3b_push_variant,
                                     fig3c_fence_variant])
def test_flip_variants_are_non_members(sem, variant):
    assert not is_gsc(variant(), sem)


# -- membership mechanics -----------------------------------------------------------


def test_member_result_is_truthy_with_witness(sem):
    res = is_gsc(fixture("fig3a").history, sem)
    assert res and res.member
    assert check_axioms(res.witness, sem).ok


def test_long_fork_refutation_narrative(sem):
    res = is_gsc(fixture("fig3d").history, sem)
    assert not res
    text = " ".join(res.refutations).lower()
    assert "retval" in text
    assert "observed-visibility" in text
    assert "monotonic-view" in text


def test_refutation_texts_are_pinned(sem):
    # A conflict is worded from the first reflexive pair; a RETVAL failure
    # gets the chain that forced the extra update.
    events = [Event("e1", "A", "x", Op("append", 1), None, frozenset({"push", "pull"})),
              Event("e0", "B", "x", Op("read"), (1,), frozenset({"pull"}))]
    h = make_history(events, {"A": ["e1"], "B": ["e0"]},
                     {"e0": Interval(0, 1), "e1": Interval(2, 3)})
    assert is_gsc(h, sem).refutations == (
        "ar ['e1', 'e0']: law observed-visibility forces e1 to observe itself "
        "(via ('e1', 'e0'))",)
    assert is_gsc(fixture("fig3d").history, sem).refutations[0] == (
        "ar ['a', 'b', 'c1', 'c2', 'd1', 'd2']: d2 must see exactly [] to return () "
        "(RETVAL) but the laws force ['a']: b -> d1 by seed; a -> d1 by "
        "observed-visibility (from b -> d1); a -> d2 by monotonic-view (from a -> d1)")


@pytest.mark.parametrize("rval", [(7,), 5], ids=["missing-value", "not-a-sequence"])
def test_unattainable_read_is_refuted_before_any_search(sem, rval):
    # No subset of the appends evaluates to the read's value, so is_gsc
    # refutes it from the decoded options alone and tries nothing.
    events = [Event("e1", "A", "x", Op("append", 1), None, frozenset()),
              Event("e2", "B", "x", Op("read"), rval, frozenset())]
    h = make_history(events, {"A": ["e1"], "B": ["e2"]},
                     {"e1": Interval(0, 1), "e2": Interval(2, 3)})
    res = is_gsc(h, sem)
    assert not res.member and res.witness is None
    assert res.refutations == (
        f"e2 returned {rval!r} but no subset of the other x updates evaluates "
        f"to that (RETVAL)",)
    assert res.stats == {"ars_tried": 0, "closures": 0, "assignments_tried": 0,
                         "prunes": 0}
    assert not check_lin(apply_fence_preset(h, "lin", sem), sem).member


def test_check_axioms_reports_an_execution_off_its_events(sem):
    w = fixture("fig3a").witness
    h = w.history
    cases = [
        (w.vis.restrict(h.ids - {"f2"}), w.ar, "vis domain differs from the event set"),
        (w.vis, TotalOrder(("e1", "f1", "e2")), "ar does not enumerate the event set"),
        (w.vis, TotalOrder(("e1", "f1", "e2", "zz")), "ar does not enumerate the event set"),
    ]
    for vis, ar, problem in cases:
        report = check_axioms(AbstractExecution(h, vis, ar), sem)
        assert not report.ok
        assert (report.verdicts, report.structural) == ((), (problem,))


def test_membership_event_cap(sem):
    with pytest.raises(HistoryError, match="over the cap"):
        is_gsc(fixture("fig3d").history, sem, max_events=3)


def test_membership_rejects_invalid_history(sem):
    h = fixture("fig3a").history
    bad = dataclasses.replace(h, rt=Relation.from_pairs(h.ids, [("e2", "e1")]))
    with pytest.raises(HistoryError):
        is_gsc(bad, sem)


def test_cycle_text_names_a_cycle_longer_than_the_recursion_limit():
    # The search keeps its own stack: a 2,000-element cycle is named whole,
    # from its least element, each step with its label or "required".
    ids = [f"e{i:04d}" for i in range(2000)]
    steps = list(zip(ids, ids[1:] + ids[:1]))
    text = axioms._find_cycle_text(Relation(frozenset(ids), frozenset(steps)),
                                   {("e1999", "e0000"): "closing"})
    assert text == "arbitration constraints are cyclic: " + ", ".join(
        f"{a} -> {b} ({'closing' if a == 'e1999' else 'required'})" for a, b in steps)


def test_duplicate_values_branch_on_options(sem):
    events = [
        Event("a", "A", "x", Op("append", 1), None, frozenset()),
        Event("b", "B", "x", Op("append", 1), None, frozenset()),
        Event("c", "C", "x", Op("read"), (1,), frozenset()),
    ]
    h = make_history(events, {"A": ["a"], "B": ["b"], "C": ["c"]},
                     {"a": Interval(0, 1), "b": Interval(0, 1), "c": Interval(2, 3)})
    res = is_gsc(h, sem)
    assert res.member
    assert res.stats["assignments_tried"] > 0


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig3d", "fig5"])
def test_decoded_and_enumerative_agree_on_fixtures(sem, name):
    h = fixture(name).history
    slow_sem = dataclasses.replace(sem, decode_visibility=None)
    fast = is_gsc(h, sem)
    slow = is_gsc(h, slow_sem)
    assert fast.member == slow.member
    if slow.member:
        assert check_axioms(slow.witness, sem).ok


def test_witnesses_satisfy_transitivity_and_joint_acyclicity(sem):
    # Accepted executions have transitive visibility, and visibility joined
    # with returned-before stays acyclic.
    for fix in all_fixtures():
        if fix.witness is None:
            continue
        x = fix.witness
        vis = x.vis
        assert vis.compose(vis).pairs <= vis.pairs
        assert (vis | x.history.rt).is_acyclic()


# -- membership: the pruned arbitration search -----------------------------------


def exhaustive_decoded(h, sem):
    """The decoded search without pruning, as a reference: every linear
    extension of the forced arbitration order in lexicographic order, each
    closed from scratch.  None unless every observer decodes uniquely, as
    is_gsc then branches on no options."""
    decoded = axioms.decoded_visibility(h, sem)
    if decoded is None or decoded.unattainable:
        return None
    exact = decoded.exact_map()
    if any(sem.context_sensitive(e.op) and e.id not in exact for e in h.events):
        return None
    seed_ar, _ = axioms._required_ar_seed(h, decoded)
    if not seed_ar.is_acyclic():
        return None
    refutations = []
    for ar in linear_extensions(seed_ar):
        witness, refutation = axioms._try_ar(h, ar, decoded.edges, exact, sem, {})
        if witness is not None:
            return True, witness, ()
        if len(refutations) < axioms.MAX_REFUTATIONS:
            refutations.append(refutation)
    return False, None, tuple(refutations)


def adversarial(events, repeated=False):
    """events - 2 concurrent unfenced appends, one per session, plus a
    session reading ->(1,) then ->(2,): MONOTONICVIEW makes the second read
    see the append of 1, so no arbitration works.  With repeated the last
    append also writes 1, so the first read has two decodings."""
    k = events - 2
    values = [1 if repeated and i == k - 1 else i + 1 for i in range(k)]
    evs = [Event(f"P{i}:0", f"P{i}", "x", Op("append", v), None) for i, v in enumerate(values)]
    evs += [Event("R:0", "R", "x", Op("read"), (1,)), Event("R:1", "R", "x", Op("read"), (2,))]
    sessions = {f"P{i}": [f"P{i}:0"] for i in range(k)}
    sessions["R"] = ["R:0", "R:1"]
    ids = frozenset(e.id for e in evs)
    return make_history(evs, sessions, Relation(ids, frozenset({("R:0", "R:1")})))


def walk_histories(sem, runs, seed=3):
    """Three-client simulator walks under the lin, osc, tso and dual_tso
    presets, each with its per-object projections."""
    rng = random.Random(seed)
    out = []
    for _ in range(runs):
        h, _ = random_well_fenced_run(rng, sem, clients=3, max_ops=3)
        for preset in ("lin", "osc", "tso", "dual_tso"):
            hp = apply_fence_preset(h, preset, sem)
            out.append(hp)
            if len(hp.objects()) == 2:
                out.extend(project(hp, obj) for obj in hp.objects())
    return out


def test_pruned_search_matches_exhaustive_reference(sem):
    histories = [apply_fence_preset(f.history, m, sem)
                 for f in all_fixtures() for m in MODELS]
    histories += walk_histories(sem, 150)
    histories += [adversarial(n) for n in (6, 7, 8)]
    compared = members = 0
    for h in histories:
        want = exhaustive_decoded(h, sem)
        if want is None:
            continue
        got = is_gsc(h, sem)
        compared += 1
        members += got.member
        assert (got.member, got.refutations) == (want[0], want[2])
        if got.member:
            assert got.witness.ar == want[1].ar
            assert got.witness.vis == want[1].vis
    assert compared > 1000 and 0 < members < compared


def test_prefix_closure_inside_every_completion(sem):
    histories = [fixture(n).history for n in ("fig3a", "fig3c", "fig5")]
    histories += walk_histories(sem, 6, seed=4)
    for h in histories:
        decoded = axioms.decoded_visibility(h, sem)
        seed_ar, _ = axioms._required_ar_seed(h, decoded)
        for ar in linear_extensions(seed_ar):
            full, full_cl = minimal_visibility(h, ar, Relation(h.ids, decoded.edges))
            cl = axioms.Closure(h, (), decoded.edges)
            for a in ar.sequence:
                assert cl.relation().pairs <= full.pairs or full_cl.conflicted
                assert not cl.conflicted or full_cl.conflicted
                cl = cl.copy()
                cl.place(a)
            # placing every event one at a time reaches the same closure
            assert cl.conflicted == full_cl.conflicted
            if not cl.conflicted:
                assert cl.relation() == full
                assert cl.vis == full_cl.vis and cl.before == full_cl.before


def closure_cases(sem):
    """(history, arbitration, seed pairs) triples: fixtures under every
    preset and three-client walks, each over its first linear extensions,
    seeded with its decoded edges and with random arbitration-forward
    pairs, which often conflict."""
    rng = random.Random(17)
    histories = [apply_fence_preset(f.history, m, sem) for f in all_fixtures() for m in MODELS]
    histories += walk_histories(sem, 40, seed=6)
    out = []
    for h in histories:
        decoded = axioms.decoded_visibility(h, sem)
        seed_ar, _ = axioms._required_ar_seed(h, None)
        for ar in itertools.islice(linear_extensions(seed_ar), 4):
            forward = list(itertools.combinations(ar.sequence, 2))
            out.append((h, ar, decoded.edges))
            out.append((h, ar, frozenset(rng.sample(forward, min(2, len(forward))))))
    return out


def one_step(h, placed, seed, pair, d, earlier) -> bool:
    """Whether pair follows in one step of d's law over the arbitration
    prefix placed: from d.via, itself derived earlier, or from a ground
    rule (session order, the seed, or a pushed real-time pair into a
    puller, which is d.via)."""
    rank = {a: i for i, a in enumerate(placed)}

    def upto(x, a):  # x in a's reflexive arbitration prefix
        return x == a or x in rank and a in rank and rank[x] < rank[a]

    x, y = pair
    if d.rule in ("session-order", "seed"):
        return d.via is None and pair in (h.so.pairs if d.rule == "session-order" else seed)
    a, b = d.via
    if d.rule == "pushed-visibility":
        return (x != y and y == b and a in h.pushers() and b in h.pullers()
                and ((a, b) in h.rt.pairs or a == b) and upto(x, a))
    if d.via not in earlier:
        return False
    if d.rule == "monotonic-view":
        return a == x and (b, y) in h.so.pairs
    return (d.rule == "observed-visibility" and d.via not in h.so.pairs and upto(x, a)
            and (y == b or (b, y) in h.rt.pairs and y in h.pullers()))


CONFLICT = re.compile(r"law (\S+) forces (\S+) to observe itself \(via \('(\S+)', '(\S+)'\)\)")


def test_closure_words_each_pair_as_one_law_step(sem):
    # Over every arbitration prefix, each pair the closure words, and the
    # reflexive pair its conflict names, is one step of its law from a
    # pair worded before it or from a ground rule; without a conflict the
    # worded pairs are the closure's, and over a full arbitration they
    # keep the monotone laws, so the closure is closed.
    conflicts = compared = 0
    for h, ar, seed in closure_cases(sem):
        for k in (0, len(ar) // 2, len(ar)):
            placed = ar.sequence[:k]
            cl = axioms.Closure(h, placed, seed)
            assert (cl.conflict is None) == (not cl.conflicted)
            earlier = set()
            for pair, d in cl.why.items():
                assert one_step(h, placed, seed, pair, d, earlier), (pair, d)
                earlier.add(pair)
            if cl.conflicted:
                conflicts += 1
                rule, a, *via = CONFLICT.fullmatch(cl.conflict).groups()
                assert one_step(h, placed, seed, (a, a), axioms.Derivation(rule, tuple(via)),
                                earlier), cl.conflict
                continue
            compared += 1
            assert set(cl.why) == cl.relation().pairs
            if k == len(ar):
                report = pairwise_check_axioms(AbstractExecution(h, cl.relation(), ar), sem)
                for law in ("RYW", "MONOTONICVIEW", "OBSERVEDVIS", "PUSHEDVIS"):
                    assert verdict(report, law).holds, law
    assert conflicts > 100 and compared > 1000


def test_forward_seeds_never_escape(sem):
    # Over a full arbitration that holds every seed pair, as every
    # arbitration a refutation narrates holds the forced order, an
    # unconflicted closure stays inside the arbitration.
    cases = 0
    for h, ar, seed in closure_cases(sem):
        if all(ar.before(a, b) for a, b in seed if a != b):
            cl = axioms.Closure(h, ar.sequence, seed)
            cases += not cl.conflicted
            assert cl.conflicted or not cl.escapes()
    assert cases > 2000


def test_options_match_the_candidate_sets(sem):
    # _options over a random arbitration's prefix, from the decoder and by
    # evaluating every subset, equals the test-side enumeration of the
    # candidate sets.  Folding the values of simulator walks onto {1, 2}
    # gives reads several explanations.
    slow = dataclasses.replace(sem, decode_visibility=None)
    rng = random.Random(29)
    histories = [random_history(rng, max_events=6) for _ in range(200)]
    histories += [fold_values(h) for h in walk_histories(sem, 60, seed=9)]
    histories += [adversarial(n, True) for n in (6, 7, 8) for _ in range(5)]
    observers = several = 0
    for h in histories:
        ix = h.index
        for _ in range(6):
            ar = TotalOrder(tuple(rng.sample(sorted(h.ids), len(h.ids))))
            order = [ix.pos[a] for a in ar.sequence]
            for r, i in enumerate(order):
                e = h.events[i]
                if not sem.context_sensitive(e.op):
                    continue
                want = candidate_sets(h, ar, e, sem)
                for semantics in (sem, slow):
                    got = axioms._options(ix, i, order[:r], semantics)
                    assert [frozenset(ix.names(m)) for m in got] == want
                observers += 1
                several += len(want) > 1
    assert observers > 5000 and several > 50


@pytest.mark.parametrize("events,repeated", [
    pytest.param(9, False, id="9"), pytest.param(10, False, id="10"),
    pytest.param(12, False, id="12"), pytest.param(8, True, id="8-repeated")])
def test_adversarial_family_refuted_before_any_arbitration(sem, events, repeated):
    res = is_gsc(adversarial(events, repeated), sem, max_events=12)
    assert not res.member
    assert res.stats["ars_tried"] == 0 and res.stats["prunes"] >= 1
    assert len(res.refutations) == axioms.MAX_REFUTATIONS


# is_gsc's stats as (ars_tried, closures, assignments_tried, prunes), taken
# when the search walked its arbitrations with its own loop.
ADVERSARIAL_STATS = {(8, True): (0, 0, 1044, 1369), (9, True): (0, 0, 6524, 8480),
                     (10, False): (0, 3, 0, 1)}
PRESET_STATS = {
    "fig3a": {"gsc": (1, 0, 0, 0), "gsp": (1, 0, 0, 0), "tso": (0, 2, 0, 1),
              "dual_tso": (1, 0, 0, 0), "osc": (0, 1, 0, 1), "lin": (0, 1, 0, 1)},
    "fig3b": {"gsc": (1, 0, 0, 0), "gsp": (1, 0, 0, 0), "tso": (1, 0, 0, 0),
              "dual_tso": (0, 0, 0, 0), "osc": (0, 0, 0, 0), "lin": (0, 0, 0, 0)},
    "fig3c": {"gsc": (1, 0, 0, 0), "gsp": (1, 0, 0, 0), "tso": (1, 0, 0, 0),
              "dual_tso": (1, 0, 0, 0), "osc": (0, 3, 0, 2), "lin": (0, 3, 0, 1)},
    "fig3d": {"gsc": (0, 3, 0, 6), "gsp": (0, 3, 0, 6), "tso": (0, 3, 0, 1),
              "dual_tso": (0, 3, 0, 2), "osc": (0, 3, 0, 2), "lin": (0, 3, 0, 1)},
    "fig5": {"gsc": (1, 0, 0, 0), "gsp": (1, 0, 0, 0), "tso": (1, 0, 0, 0),
             "dual_tso": (1, 0, 0, 0), "osc": (1, 0, 0, 0), "lin": (0, 2, 0, 1)},
}


def stats_tuple(res):
    return tuple(res.stats[k] for k in ("ars_tried", "closures", "assignments_tried", "prunes"))


@pytest.mark.parametrize("events, repeated", sorted(ADVERSARIAL_STATS))
def test_adversarial_stats_are_pinned(sem, events, repeated):
    res = is_gsc(adversarial(events, repeated), sem, max_events=12)
    assert stats_tuple(res) == ADVERSARIAL_STATS[events, repeated]


def test_preset_stats_are_pinned(sem):
    got = {f.name: {m: stats_tuple(is_gsc(apply_fence_preset(f.history, m, sem), sem))
                    for m in MODELS} for f in all_fixtures()}
    assert got == PRESET_STATS


def test_structural_violations_repeat_on_the_same_history(sem):
    w = fixture("fig3a").witness
    back = Relation.from_pairs(w.history.ids, [("e2", "e1")])
    bad = AbstractExecution(w.history, w.vis | back, w.ar)
    first = bad.structural_violations()
    assert first and first == bad.structural_violations()
    assert validate_history(w.history) == []
    assert validate_history(w.history) is not validate_history(w.history)


# -- the law check against its literal relational definition ---------------------


def reference_structural(x):
    """AbstractExecution.structural_violations, literally."""
    out = validate_history(x.history)
    ids = x.history.ids
    if x.vis.domain != ids:
        return out + ["vis domain differs from the event set"]
    if frozenset(x.ar.sequence) != ids:
        return out + ["ar does not enumerate the event set"]
    if not x.vis.is_acyclic():
        out.append("vis cyclic")
    extra = x.vis.pairs - x.ar.as_relation().pairs
    if extra:
        a, b = min(extra)
        out.append(f"vis not contained in ar: ({a}, {b})")
    return out


def reference_check_axioms(x, semantics):
    """check_axioms as relational algebra over Relation, law by law."""
    structural = tuple(reference_structural(x))
    if structural:
        return axioms.AxiomReport((), structural)
    h = x.history
    ids, by_id = h.ids, h.by_id
    vis, so, rt = x.vis, h.so, h.rt
    ar_rel = x.ar.as_relation()
    ar_refl = ar_rel.reflexive()
    pushers, pullers = h.pushers(), h.pullers()
    limit = axioms._limit
    verdicts = []

    bad = []
    for e in h.events:
        same = [by_id[a] for a in vis.predecessors(e.id) if by_id[a].obj == e.obj]
        same.sort(key=lambda ev: x.ar.sequence.index(ev.id))
        ctx = tuple(ev.op for ev in same)
        if semantics.eval(ctx, e.op) != e.rval:
            bad.append((e.id, semantics.eval(ctx, e.op)))
    verdicts.append(axioms.AxiomVerdict(
        "RETVAL", not bad, limit(bad), "rval must equal eval over visible same-object context"))

    missing = so.pairs - vis.pairs
    verdicts.append(axioms.AxiomVerdict("RYW", not missing, limit(missing)))

    missing = vis.compose(so).pairs - vis.pairs
    verdicts.append(axioms.AxiomVerdict("MONOTONICVIEW", not missing, limit(missing)))

    rt_pull = Relation(ids, frozenset(p for p in rt.pairs if p[1] in pullers))
    lhs = ar_refl.compose(vis - so).compose(rt_pull.reflexive())
    missing = lhs.pairs - vis.pairs
    verdicts.append(axioms.AxiomVerdict("OBSERVEDVIS", not missing, limit(missing)))

    push_pull = rt.reflexive() & product(ids, pushers, pullers)
    lhs = ar_refl.compose(push_pull)
    missing = frozenset(p for p in lhs.pairs if p[0] != p[1]) - vis.pairs
    verdicts.append(axioms.AxiomVerdict("PUSHEDVIS", not missing, limit(missing)))

    missing = (vis - so).compose(rt).pairs - ar_rel.pairs
    verdicts.append(axioms.AxiomVerdict("OBSERVEDAR", not missing, limit(missing)))

    missing = frozenset(p for p in rt.pairs if p[0] in pushers) - ar_rel.pairs
    verdicts.append(axioms.AxiomVerdict("PUSHEDAR", not missing, limit(missing)))

    verdicts.append(axioms.AxiomVerdict("EVENTUAL", True, (),
                                        "vacuously true: histories here are finite"))
    return axioms.AxiomReport(tuple(verdicts))


def perturbed(x, rng):
    """x with visibility pairs dropped, with pairs added forward in
    arbitration, with arbitrary pairs added (cycles included), under another
    linear extension of visibility, and under a shuffled arbitration.  Every
    draw is from a sorted list, so the inputs do not depend on hash order."""
    h, ids = x.history, sorted(x.history.ids)
    vis = sorted(x.vis.pairs)
    every = [(a, b) for a in ids for b in ids]
    forward = [(a, b) for a, b in every if x.ar.before(a, b) and (a, b) not in x.vis]
    out = []
    if vis:
        dropped = set(rng.sample(vis, rng.randint(1, min(3, len(vis)))))
        out.append(Relation(h.ids, frozenset(p for p in vis if p not in dropped)))
    if forward:
        out.append(x.vis | Relation(h.ids, frozenset(rng.sample(forward, min(2, len(forward))))))
    out.append(x.vis | Relation(h.ids, frozenset(rng.sample(every, 2))))
    out = [AbstractExecution(h, v, x.ar) for v in out]
    out.append(AbstractExecution(h, x.vis, extend_to_total(x.vis, rng.sample(ids, len(ids)))))
    out.append(AbstractExecution(h, x.vis, TotalOrder(tuple(rng.sample(ids, len(ids))))))
    return out


def oracle_executions(sem):
    base = []
    for f in all_fixtures():
        for m in MODELS:
            hp = apply_fence_preset(f.history, m, sem)
            res = is_gsc(hp, sem)
            if res.member:
                base.append(res.witness)
            if f.witness is not None:
                base.append(AbstractExecution(hp, f.witness.vis, f.witness.ar))
    rng = random.Random(12)
    for _ in range(300):
        h, x = random_well_fenced_run(rng, sem, clients=3, max_ops=2)
        base.append(x)
        hp = apply_fence_preset(h, rng.choice(MODELS), sem)
        base.append(AbstractExecution(hp, x.vis, x.ar))
    out = list(base)
    for x in base:
        out.extend(perturbed(x, rng))
    return out


def test_check_axioms_matches_relational_reference(sem):
    executions = oracle_executions(sem)
    failed, structural = set(), set()
    for x in executions:
        got = check_axioms(x, sem)
        assert got == reference_check_axioms(x, sem)
        failed.update(got.failed())
        structural.update(s.split(":")[0] for s in got.structural)
    # the inputs reach every law's failure and both ordering problems
    assert failed == set(AXIOM_NAMES) - {"EVENTUAL"}
    assert structural == {"vis cyclic", "vis not contained in ar"}
    assert len(executions) > 2000


def test_check_axioms_matches_pairwise_reference_on_explored_grid(corpus):
    # The corpus checks every execution explore emits for the grid
    # programs with both checkers (criterion 3 asserts that they pass).
    assert corpus.reference_mismatches == []
    assert corpus.reference_checked > 20_000


def test_check_axioms_matches_pairwise_reference_on_perturbed_runs(sem):
    rng = random.Random(3)
    executions = []
    for _ in range(400):
        _, x = random_well_fenced_run(rng, sem, clients=3, max_ops=3)
        executions.append(x)
        executions.extend(perturbed(x, rng))
    failed = set()
    for x in executions:
        got = check_axioms(x, sem)
        assert got == pairwise_check_axioms(x, sem)
        failed.update(got.failed())
    assert failed == set(AXIOM_NAMES) - {"EVENTUAL"}
    assert len(executions) >= 2000


def mutated(x, rng, sem):
    """x with a vis pair dropped, with a pair forward in ar added, with two
    ar neighbours swapped where vis lets them, and under a random preset's
    fences: each keeps vis inside ar, so only the laws can fail."""
    h, seq = x.history, x.ar.sequence
    vis = sorted(x.vis.pairs)
    forward = [p for p in itertools.combinations(seq, 2) if p not in x.vis]
    out = []
    if vis:
        out.append(AbstractExecution(h, x.vis - Relation(h.ids, {rng.choice(vis)}), x.ar))
    if forward:
        out.append(AbstractExecution(h, x.vis | Relation(h.ids, {rng.choice(forward)}), x.ar))
    swaps = [k for k in range(len(seq) - 1) if (seq[k], seq[k + 1]) not in x.vis]
    if swaps:
        k = rng.choice(swaps)
        out.append(AbstractExecution(
            h, x.vis, TotalOrder(seq[:k] + (seq[k + 1], seq[k]) + seq[k + 2:])))
    out.append(AbstractExecution(apply_fence_preset(h, rng.choice(MODELS), sem), x.vis, x.ar))
    return out


def test_check_axioms_matches_pairwise_reference_on_failing_executions(sem):
    # Mutated simulator runs and fixture witnesses: at least 1,000 of them
    # break a law, every law but EVENTUAL among them, and the bitmask check
    # reports what the pair-by-pair reference reports, counterexamples and
    # wording included.
    rng = random.Random(31)
    base = [f.witness for f in all_fixtures() if f.witness is not None]
    base += [random_well_fenced_run(rng, sem, clients=3, max_ops=3)[1] for _ in range(150)]
    failing, failed = 0, set()
    for x in base:
        once = mutated(x, rng, sem)
        for y in once + [z for w in once for z in mutated(w, rng, sem)]:
            got = check_axioms(y, sem)
            assert got == pairwise_check_axioms(y, sem)
            assert not got.structural
            failing += not got.ok
            assert got.ok is not bool(got.failed())  # read again, a failing report stays failing
            failed.update(got.failed())
    assert failing >= 1000
    assert failed == set(AXIOM_NAMES) - {"EVENTUAL"}


FIXTURE_VERDICTS = """
from gsclab import all_fixtures, apply_fence_preset, check_axioms, get_semantics, is_gsc
from gsclab.model import MODELS

sem = get_semantics("sequence")
for f in all_fixtures():
    for m in MODELS:
        res = is_gsc(apply_fence_preset(f.history, m, sem), sem)
        print(f.name, m, res.member, res.refutations)
        if res.member:
            w = res.witness
            print(w.ar.sequence, sorted(w.vis.pairs), check_axioms(w, sem))
"""


def test_fixture_verdicts_do_not_depend_on_hash_seed():
    src = str(pathlib.Path(axioms.__file__).resolve().parents[1])
    children = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        children.append(subprocess.Popen([sys.executable, "-c", FIXTURE_VERDICTS], env=env,
                                         stdout=subprocess.PIPE, text=True))
    outputs = [child.communicate(timeout=60)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") > 30


CONFLICT_WORDINGS = """
from gsclab import axioms, get_semantics
from test_axioms import closure_cases

for h, ar, seed in closure_cases(get_semantics("sequence")):
    cl = axioms.Closure(h, ar.sequence, seed)
    if cl.conflicted:
        print(cl.conflict, list(cl.why.items()))
"""


def test_conflict_wording_does_not_depend_on_hash_seed():
    # A conflict is worded from the first reflexive pair the closure logs,
    # so the log must not follow the hash order of a history's relations.
    paths = [str(pathlib.Path(axioms.__file__).resolve().parents[1]),
             str(pathlib.Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    outputs = [subprocess.run([sys.executable, "-c", CONFLICT_WORDINGS], check=True, text=True,
                              stdout=subprocess.PIPE, env=dict(env, PYTHONHASHSEED=seed),
                              timeout=120).stdout
               for seed in ("0", "1")]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") > 100
