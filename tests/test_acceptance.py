"""Acceptance gate for the workbench: one test per published criterion.

Each test is self-contained and prints exactly one pass/fail line under
``pytest -v``.  The heavyweight corpora are built once per session by the
``corpus`` fixture in conftest.py.
"""

import dataclasses
import itertools
import random
import time

import pytest

from gsclab import (
    Event,
    HistoryError,
    Interval,
    Op,
    PerObjectWitnesses,
    apply_fence_preset,
    check_axioms,
    check_lin,
    check_osc,
    compose,
    erase_fences,
    extract_execution,
    extract_history,
    fixture,
    is_gsc,
    lin_from_osc_execution,
    make_history,
    osc_execution_from_lin,
    project,
    run_to_quiescence,
    synthesize_schedule,
    to_dual_tso,
    to_tso,
)
from gsclab.generators import random_well_fenced_run
from gsclab.semantics import REGISTER

from helpers import (
    fig3a_pull_variant,
    fig3b_push_variant,
    fig3c_fence_variant,
    fig3d_projection_executions,
    enumerative_membership,
    fold_values,
    inverse,
    random_history,
    to_register,
)
from test_composition import assert_identities, witnesses_of
from test_derived import explains_by_prefixes
from test_synthesis import assert_scheduling_facts


def test_criterion_1_litmus_verdicts(sem):
    """Membership verdicts for the four litmus histories, each within one
    second, plus the three fence flips that turn members into non-members."""
    expected = {"fig3a": True, "fig3b": True, "fig3c": True, "fig3d": False}
    for name, member in expected.items():
        start = time.perf_counter()
        res = is_gsc(fixture(name).history, sem)
        elapsed = time.perf_counter() - start
        assert res.member == member, name
        assert elapsed <= 1.0, f"{name} took {elapsed:.2f}s"
    for variant in (fig3a_pull_variant, fig3b_push_variant, fig3c_fence_variant):
        assert not is_gsc(variant(), sem).member


def test_criterion_2_simulator_golden_traces(sem):
    """Replaying the bundled schedules reproduces the tabulated server
    orders and return values exactly."""
    expected = {
        "fig3a": {"e2": (1, 2), "f2": (2,)},
        "fig3b": {"f2": (2, 1)},
        "fig3c": {"e2": (), "f2": ()},
    }
    for name, rvals in expected.items():
        fx = fixture(name)
        run = run_to_quiescence(fx.schedule, sem)
        h = extract_history(run)
        assert h == fx.history, name
        assert extract_execution(run) == fx.witness, name
        for eid, rv in rvals.items():
            assert h.by_id[eid].rval == rv, (name, eid)


def test_criterion_3_protocol_soundness(corpus):
    """Every execution the simulator can produce from the program grid
    passes all eight laws: zero failures over the whole sweep."""
    assert corpus.executions_checked > 25_000
    assert corpus.axiom_failures == []


def test_criterion_4_synthesizer_completeness(corpus, sem):
    """Every member history in the corpus synthesizes back into a schedule
    whose replay reproduces the history exactly (ids, session order,
    returns-before pairs, return values) and realizes the witness
    visibility; zero divergences."""
    divergences = []
    for h in corpus.unique_histories:
        assert is_gsc(h, sem).member
        x = corpus.witnesses[h]
        sched = synthesize_schedule(x, sem)
        run = run_to_quiescence(sched, sem)
        if extract_history(run) != h or extract_execution(run).vis != x.vis:
            divergences.append(h)
    assert divergences == []


def test_criterion_5_fence_transforms(corpus, sem):
    """The all-push and all-pull images of every fence-free member stay
    members, erasing their fences returns to a member, and the pinned
    real-time presets separate the two fenced models on fig3a and fig3b."""
    checked = 0
    for h in corpus.unique_histories:
        if len(h.events) > 5 or any(e.fences for e in h.events):
            continue
        x = corpus.witnesses[h]
        for out in (to_tso(x, sem), to_dual_tso(x, sem)):
            assert check_axioms(out, sem).ok
            assert is_gsc(erase_fences(out.history), sem).member
        checked += 1
    assert checked > 100
    # Pinned real-time orders: all-pull fig3a loses membership while
    # all-push keeps it, and the reverse for fig3b.
    fig3a = fixture("fig3a").history
    fig3b = fixture("fig3b").history
    assert not is_gsc(apply_fence_preset(fig3a, "tso", sem), sem).member
    assert is_gsc(apply_fence_preset(fig3a, "dual-tso", sem), sem).member
    assert is_gsc(apply_fence_preset(fig3b, "tso", sem), sem).member
    assert not is_gsc(apply_fence_preset(fig3b, "dual-tso", sem), sem).member


def test_criterion_6_composition(sem):
    """500 random well-fenced two-object histories compose from per-object
    witnesses into global executions that pass all laws and project back to
    the witness visibilities exactly; the long-fork history is refused."""
    rng = random.Random(20250806)
    composed = 0
    while composed < 500:
        h, _ = random_well_fenced_run(rng, sem)
        if len(h.objects()) != 2:
            continue
        w = witnesses_of(h, sem)
        x = compose(w, sem)
        assert check_axioms(x, sem).ok
        for obj, wx in w.per_object.items():
            assert x.vis.restrict(project(h, obj).ids) == wx.vis
        composed += 1
    bad = PerObjectWitnesses(fixture("fig3d").history, fig3d_projection_executions())
    with pytest.raises(HistoryError, match="not well-fenced"):
        compose(bad, sem)


def test_criterion_7_relational_laws(corpus, sem):
    """The relational identities behind composition hold on generated
    composer instances, and the scheduling-order laws plus the visibility
    transitivity/acyclicity facts hold on every sampled accepted
    execution."""
    rng = random.Random(20250807)
    assert_identities(witnesses_of(fixture("fig3a").history, sem))
    instances = 0
    while instances < 25:
        h, _ = random_well_fenced_run(rng, sem)
        if not h.events:
            continue
        assert_identities(witnesses_of(h, sem))
        instances += 1
    assert corpus.sample_executions
    for x in corpus.sample_executions:
        assert_scheduling_facts(x)
        assert x.vis.is_transitive()
        assert (x.vis | x.history.rt).is_acyclic()
        rt = x.history.rt
        for s in (x.vis, x.vis - x.history.so):
            if not (s.pairs & inverse(rt).pairs):
                assert rt.compose(s).compose(rt) <= rt


def _discipline_histories():
    """All histories up to five events over two-client programs on one
    object, with at most two appends valued 1 and 2, every combination of
    read returns drawn from subsequences of the appended values, and two
    deterministic timing layouts (cross-client overlapping and strictly
    alternating)."""
    rval_pool = {
        0: [()],
        1: [(), (1,)],
        2: [(), (1,), (2,), (1, 2), (2, 1)],
    }
    out = []
    for na, nb in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)):
        for kinds in itertools.product("ar", repeat=na + nb):
            n_appends = kinds.count("a")
            if n_appends > 2:
                continue
            ids = [f"A:{i}" for i in range(na)] + [f"B:{i}" for i in range(nb)]
            clients = ["A"] * na + ["B"] * nb
            values = iter((1, 2))
            ops = [Op("append", next(values)) if k == "a" else Op("read")
                   for k in kinds]
            read_slots = [i for i, k in enumerate(kinds) if k == "r"]
            for rvals in itertools.product(rval_pool[n_appends],
                                           repeat=len(read_slots)):
                for layout in ("overlap", "serial"):
                    if layout == "overlap":
                        starts = {"A": 0.0, "B": 2.0}
                        span, gap = 4.0, 10.0
                    else:
                        starts = {"A": 0.0, "B": 1.0}
                        span, gap = 0.5, 2.0
                    seen = {"A": 0, "B": 0}
                    intervals = {}
                    events = []
                    rv_iter = iter(rvals)
                    for i, eid in enumerate(ids):
                        c = clients[i]
                        rval = next(rv_iter) if kinds[i] == "r" else None
                        events.append(Event(eid, c, "x", ops[i], rval,
                                            frozenset()))
                        lo = starts[c] + seen[c] * gap
                        intervals[eid] = Interval(lo, lo + span)
                        seen[c] += 1
                    sessions = {"A": ids[:na], "B": ids[na:]}
                    out.append(make_history(events, sessions, intervals))
    return out


def _is_osc_witness(h, lin, sem) -> bool:
    """A linearization is a serialized-updates witness when it contains
    session order and every real-time edge into an update, and prefix
    evaluation reproduces all return values."""
    updates = {e.id for e in h.events if sem.is_update(e.op)}
    for a, b in h.so.pairs | {p for p in h.rt.pairs if p[1] in updates}:
        if lin.before(b, a):
            return False
    return explains_by_prefixes(h, lin, sem)


def test_criterion_8_derived_model_agreement(sem):
    """On every small history under each derived fence discipline, the
    dedicated checker agrees with the global membership test, and the
    converters between the two witness shapes land in the other model."""
    histories = _discipline_histories()
    assert len(histories) > 5000
    agreements = 0
    for h in histories:
        for model, checker in (("lin", check_lin), ("osc", check_osc)):
            hd = apply_fence_preset(h, model, sem)
            res = checker(hd, sem)
            assert res.member == is_gsc(hd, sem).member, (model, hd)
            agreements += 1
            if res.member:
                x = osc_execution_from_lin(res.witness, sem)
                assert check_axioms(x, sem).ok
                back = lin_from_osc_execution(x, sem)
                assert _is_osc_witness(hd, back.lin, sem)
    assert agreements == 2 * len(histories)


def test_criterion_9_differential_membership(sem):
    """is_gsc, with and without return-value decoding, agrees with the
    enumerative reference search on 1,000 random histories with distinct
    append values, on the same histories with their values folded onto
    {1, 2}, and on the register translations of both: the same verdicts and
    witnesses, and without a decoder the same refutations."""
    slow_sem = dataclasses.replace(sem, decode_visibility=None)
    rng = random.Random(20250809)
    cases = []
    for _ in range(1000):
        h = random_history(rng, max_events=6)
        for hs in (h, fold_values(h)):
            cases += [(hs, sem, sem), (hs, slow_sem, sem),
                      (to_register(hs), REGISTER, REGISTER)]
    members = 0
    for h, semantics, reference_sem in cases:
        got = is_gsc(h, semantics)
        member, witness, refutations = enumerative_membership(h, reference_sem)
        assert got.member == member, h
        members += member
        if member:
            assert (got.witness.ar, got.witness.vis) == (witness.ar, witness.vis), h
        elif semantics.decode_visibility is None:
            assert got.refutations == refutations, h
    assert len(cases) == 6000 and 0 < members < len(cases)
