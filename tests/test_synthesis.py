"""Schedule synthesis: the scheduling precedence relation, the body order,
the call/return interleaving, witness-to-schedule compilation with replay
verification, an exhaustive schedule search as its oracle, and the
relational facts the construction relies on."""

import random

import pytest

from gsclab import (
    AbstractExecution,
    Event,
    HistoryError,
    Op,
    Relation,
    SynthesisError,
    TotalOrder,
    body_order,
    check_axioms,
    extract_execution,
    fixture,
    is_gsc,
    make_history,
    Schedule,
    run_to_quiescence,
    scheduling_precedence,
    synthesize_schedule,
)
from gsclab import protocol, synthesis
from gsclab.axioms import _required_ar_seed, minimal_visibility
from gsclab.generators import random_well_fenced_run
from gsclab.relations import linear_extensions
from gsclab.synthesis import _topological_order

from helpers import producible, search_runs


def pull_race_execution():
    """One pulling reader that missed an append another reader saw."""
    events = [
        Event("e", "A", "x", Op("read"), (), frozenset({"pull"})),
        Event("g", "B", "x", Op("append", 1), None, frozenset()),
        Event("f", "C", "x", Op("read"), (1,), frozenset()),
    ]
    h = make_history(
        events,
        {"A": ["e"], "B": ["g"], "C": ["f"]},
        Relation.from_pairs(["e", "g", "f"], []),
    )
    return AbstractExecution(h, Relation.from_pairs(h.ids, [("g", "f")]),
                             TotalOrder(("g", "e", "f")))


# -- scheduling precedence ---------------------------------------------------------


def test_precedence_empty_without_pullers(sem):
    for name in ("fig3a", "fig3b", "fig3c"):
        assert scheduling_precedence(fixture(name).witness).pairs == frozenset()


def test_precedence_pull_race(sem):
    # The puller e returned () even though g's append was arbitrated before
    # its snapshot, so e's body must run before anything that observes g.
    x = pull_race_execution()
    assert scheduling_precedence(x).pairs == {("e", "f")}


def test_precedence_on_handoff_witness(sem):
    # The puller g missed only f, but nothing observes f and nothing
    # pushes, so neither arm of the precedence definition fires.
    assert scheduling_precedence(fixture("fig5").witness).pairs == frozenset()


# -- body order --------------------------------------------------------------------


def test_body_order_contains_required_relations(sem):
    x = fixture("fig5").witness
    h = x.history
    lt = scheduling_precedence(x)
    q = body_order(x, lt)
    qrel = q.as_relation()
    pushers = h.pushers()
    arbar = Relation(h.ids, frozenset(
        p for p in x.ar.as_relation().pairs if p[1] in pushers))
    for r in (h.rt, x.vis, arbar, lt):
        assert r.pairs <= qrel.pairs


def test_body_order_deterministic(sem):
    x = fixture("fig3a").witness
    assert body_order(x) == body_order(x)


# -- interleaving ------------------------------------------------------------------


def event_positions(sched):
    """(kind, event id) -> index of that call, body or ret token."""
    pos, open_event = {}, {}
    for i, tok in enumerate(sched):
        if tok.kind == "call":
            open_event[tok.client] = tok.id
        if tok.kind in ("call", "body", "ret"):
            pos[(tok.kind, open_event[tok.client])] = i
    return pos


def test_interleave_respects_grammar_and_rt(sem):
    for name in ("fig3a", "fig3b", "fig3c", "fig5"):
        x = fixture(name).witness
        h = x.history
        pos = event_positions(synthesize_schedule(x, sem))
        for e in h.ids:
            assert pos[("call", e)] < pos[("body", e)] < pos[("ret", e)]
        for e in h.ids:
            for f in h.ids:
                if e == f:
                    continue
                if (e, f) in h.rt:
                    assert pos[("ret", e)] < pos[("call", f)]
                else:
                    assert pos[("call", f)] < pos[("ret", e)]


# -- full synthesis ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig5"])
def test_fixture_witness_round_trip(sem, name):
    x = fixture(name).witness
    sched = synthesize_schedule(x, sem)
    # Pulls no body needs come last, so pull-fenced bodies fetch all they can.
    assert len(sched) == {"fig3a": 24, "fig3b": 18, "fig3c": 24, "fig5": 27}[name]
    run = run_to_quiescence(sched, sem)
    got = extract_execution(run)
    assert got.history.canonical() == x.history.canonical()
    canon = dict(zip(x.ar.sequence, got.ar.sequence))
    assert {(canon[a], canon[b]) for a, b in x.vis.pairs} == got.vis.pairs


def test_pull_race_is_member_but_not_schedulable(sem):
    # f observes g across clients without a returned-before edge: g's
    # entry reaches f's client between f's call and body, which a schedule
    # may do.  ``explore`` offers pushes and pulls only to idle clients, so
    # it still cannot produce the history (ROADMAP item 1).
    x = pull_race_execution()
    assert is_gsc(x.history, sem).member
    assert realizes(synthesize_schedule(x, sem), x, sem)
    assert not producible(x.history, sem)


def test_synthesis_rejects_lawless_witness(sem):
    w = fixture("fig3a").witness
    broken = AbstractExecution(
        w.history, w.vis - Relation.from_pairs(w.history.ids, [("e1", "e2")]), w.ar)
    with pytest.raises(HistoryError, match="fails axioms"):
        synthesize_schedule(broken, sem)


def test_synthesis_rejects_vis_outside_ar(sem):
    w = fixture("fig3a").witness
    back = Relation.from_pairs(w.history.ids, [("f2", "e2")])
    with pytest.raises(HistoryError) as err:
        synthesize_schedule(AbstractExecution(w.history, w.vis | back, w.ar), sem)
    assert str(err.value) == "vis not contained in ar: (f2, e2)"


def test_synthesis_pushes_and_pulls_inside_windows(sem):
    # The reader saw the append, but with no returned-before pair the
    # reader is called before the append returns: the append is pushed
    # inside its own window and the reader pulls it inside its window.
    events = [
        Event("g", "A", "x", Op("append", 1), None, frozenset()),
        Event("e", "B", "x", Op("read"), (1,), frozenset()),
    ]
    h = make_history(events, {"A": ["g"], "B": ["e"]},
                     Relation.from_pairs(["g", "e"], []))
    x = AbstractExecution(h, Relation.from_pairs(h.ids, [("g", "e")]),
                          TotalOrder(("g", "e")))
    sched = synthesize_schedule(x, sem)
    assert realizes(sched, x, sem)
    pos = event_positions(sched)
    kinds = [(tok.kind, tok.client) for tok in sched]
    assert pos[("call", "g")] < kinds.index(("push", "A")) < pos[("ret", "g")]
    assert pos[("call", "e")] < kinds.index(("pull", "B")) < pos[("body", "e")]


def test_cyclic_token_graph_is_a_synthesis_error():
    # ret(ar[0]) and body(ar[0]) wait on each other; pull(A, 0) waits on
    # the body.
    succ = {(0, 0, ""): [(1, 0, "")], (1, 0, ""): [(0, 0, ""), (4, 0, "A")],
            (4, 0, "A"): []}
    unplaced = r"ret\(ar\[0\]\), body\(ar\[0\]\), pull\(A, 0\)"
    with pytest.raises(SynthesisError, match=f"cyclic; unplaced: {unplaced}"):
        _topological_order(succ)
    assert isinstance(SynthesisError("x"), AssertionError)


def two_appends(ar, vis):
    """Two concurrent appends on x, with the given arbitration and visibility."""
    events = [Event("a", "A", "x", Op("append", 1), None, frozenset()),
              Event("b", "B", "x", Op("append", 2), None, frozenset())]
    h = make_history(events, {"A": ["a"], "B": ["b"]}, Relation.from_pairs(["a", "b"], []))
    return AbstractExecution(h, Relation.from_pairs(h.ids, vis), TotalOrder(ar))


@pytest.mark.parametrize("other, message", [
    (fixture("fig3b").witness, "replay produced a different history"),
    (two_appends(("a", "b"), [("a", "b")]), r"replay visibility differs: \[\('a', 'b'\)\]"),
    (two_appends(("b", "a"), []), "replay arbitration differs"),
], ids=["history", "visibility", "arbitration"])
def test_replay_divergence_is_a_synthesis_error(monkeypatch, sem, other, message):
    # The replay check compares history, visibility and arbitration; a
    # replay that reproduces another witness fails on the part that differs.
    replay = protocol.run_schedule(synthesize_schedule(other, sem), sem)
    monkeypatch.setattr(synthesis, "run_schedule", lambda schedule, semantics: replay)
    with pytest.raises(SynthesisError, match=message):
        synthesize_schedule(two_appends(("a", "b"), []), sem)


def test_synthesis_round_trips_generated_runs(sem):
    rng = random.Random(23)
    for _ in range(15):
        h, x = random_well_fenced_run(rng, sem)
        if not h.events:
            continue
        sched = synthesize_schedule(x, sem)
        got = extract_execution(run_to_quiescence(sched, sem))
        assert got.history.canonical() == x.history.canonical()


def open_moves(world, programs):
    """``protocol._moves`` plus a push or pull of a client with an open
    event, which ``step`` accepts and ``explore`` does not offer."""
    out = protocol._moves(world, programs)
    for c, st in zip(world.names, world.states):
        if st.frame is not None:
            if st.pending:
                out.append(protocol.push(c))
            if st.known_len < len(world.server):
                out.append(protocol.pull(c))
    return out


def schedule_oracle(x, sem, moves=protocol._moves):
    """Exhaustive search for a schedule whose run realizes the witness ``x``
    exactly (history, visibility and arbitration, ids renamed to the
    client:index form the simulator gives).  Returns its tokens, or None
    when no schedule over ``moves`` realizes ``x``.

    The search (``search_runs``) keeps a push or body only while the server
    stays a prefix of the arbitration, a body only if its view is the
    event's visibility, and a call or body only if it fits the target;
    after the programs end it keeps pushing until the server holds every
    event."""
    h = x.history
    name = {eid: f"{c}:{i}" for c, ids in h.sessions for i, eid in enumerate(ids)}
    ar = tuple(name[e] for e in x.ar.sequence)
    sees = {name[e]: frozenset(name[v] for v in x.vis.predecessors(e)) for e in h.ids}

    def keep(run, token):
        log = tuple(eid for eid, _, _ in run.world.server)
        if log != ar[:len(log)]:
            return False
        fr = run.world.client(token.client).frame
        return token.kind != "body" or fr.view == sees[fr.id]

    def done(run, programs):
        return len(run.world.server) == len(ar) and protocol._terminal(run.world, programs)

    return search_runs(h.renamed(name), sem, done, keep, moves)


def realizes(tokens, x, sem):
    got = extract_execution(run_to_quiescence(Schedule(tokens), sem))
    canon = dict(zip(x.ar.sequence, got.ar.sequence))
    return (got.history == x.history.renamed(canon)
            and got.vis.pairs == {(canon[a], canon[b]) for a, b in x.vis.pairs})


def test_oracle_bounds_synthesis_on_two_client_walks(sem):
    # Every simulator witness has a schedule, and synthesis succeeds
    # exactly where the oracle over every move finds one.
    rng = random.Random(1)
    idle = scheduled = synthesized = 0
    for _ in range(200):
        h, x = random_well_fenced_run(rng, sem, clients=2, max_ops=3)
        for w in (x, is_gsc(h, sem).witness):
            idle += schedule_oracle(w, sem) is not None
            tokens = schedule_oracle(w, sem, open_moves)
            assert tokens is not None or w is not x
            if tokens is not None:
                assert realizes(tokens, w, sem)
                scheduled += 1
            try:
                synthesize_schedule(w, sem)
            except SynthesisError:
                assert tokens is None
                continue
            assert tokens is not None
            synthesized += 1
    # The 11 witnesses that only the open moves schedule are least
    # witnesses that need a push or pull inside an event's window, which
    # ``explore`` does not yet walk (ROADMAP item 1).
    assert (idle, scheduled, synthesized) == (389, 400, 400)


def completeness_gap_run(sem):
    """The 121st two-client run of ``random.Random(1)``: A reads y then
    appends y; B reads x under a push fence, then reads x again."""
    rng = random.Random(1)
    for _ in range(121):
        h, x = random_well_fenced_run(rng, sem, clients=2, max_ops=3)
    return h, x


def test_completeness_gap_history_is_producible(sem):
    h, _ = completeness_gap_run(sem)
    assert len(h.events) == 4
    assert producible(h, sem)
    assert is_gsc(h, sem).member


def test_completeness_gap_least_witness_has_no_schedule(sem):
    # Under this witness's visibility and arbitration A:1 is pushed inside
    # its own call..ret window: synthesis does so, while no schedule over
    # the idle-only moves of ``explore`` exists (ROADMAP item 1).
    h, _ = completeness_gap_run(sem)
    x = is_gsc(h, sem).witness
    assert realizes(synthesize_schedule(x, sem), x, sem)
    assert schedule_oracle(x, sem) is None


@pytest.mark.parametrize("witness", ["simulator", "least"])
def test_completeness_gap_synthesizes(sem, witness):
    h, x = completeness_gap_run(sem)
    if witness == "least":
        x = is_gsc(h, sem).witness
    got = extract_execution(run_to_quiescence(synthesize_schedule(x, sem), sem))
    assert got.history.canonical() == h.canonical()
    assert got.vis == x.vis


def test_synthesis_covers_least_witnesses_of_every_arbitration(sem):
    # Every arbitration extending the required seed whose least visibility
    # passes the laws is a witness, and each one synthesizes and replays.
    rng = random.Random(5)
    witnesses = 0
    for _ in range(100):
        h, _ = random_well_fenced_run(rng, sem, clients=3)
        if len(h.events) > 6:
            continue
        for ar in linear_extensions(_required_ar_seed(h, {})):
            w = AbstractExecution(h, minimal_visibility(h, ar)[0], ar)
            if check_axioms(w, sem).ok:
                assert realizes(synthesize_schedule(w, sem), w, sem)
                witnesses += 1
    assert witnesses == 1409


def test_synthesis_carries_pending_through_flush(sem):
    # The unfenced append A:0 must land on the server after B:0's entry.
    # With pushes only between events, B:0's window (which overlaps both
    # of A's) leaves A:0 no idle point late enough, and only the flush
    # inside A:1's push-fenced body can carry it.
    events = [
        Event("A:0", "A", "x", Op("append", 1), None, frozenset()),
        Event("A:1", "A", "x", Op("read"), (2, 1), frozenset({"push", "pull"})),
        Event("B:0", "B", "x", Op("append", 2), None, frozenset()),
    ]
    h = make_history(events, {"A": ["A:0", "A:1"], "B": ["B:0"]},
                     Relation.from_pairs(["A:0", "A:1", "B:0"], [("A:0", "A:1")]))
    res = is_gsc(h, sem)
    assert res.member
    sched = synthesize_schedule(res.witness, sem)
    got = extract_execution(run_to_quiescence(sched, sem))
    assert got.history == h
    assert got.vis == res.witness.vis


# -- relational facts behind the construction ----------------------------------------


def relations_of(x):
    h = x.history
    lt = scheduling_precedence(x)
    arbar = Relation(h.ids, frozenset(
        p for p in x.ar.as_relation().pairs if p[1] in h.pushers()))
    return h, x.vis, arbar, lt


def assert_scheduling_facts(x):
    h, vis, arbar, lt = relations_of(x)
    rt = h.rt
    vns = vis - h.so

    # Real-time absorbs visibility and arbitration-into-pushers hops.
    assert rt.compose(vis).compose(rt).pairs <= rt.pairs
    assert rt.compose(arbar).compose(rt).pairs <= rt.pairs

    # The precedence guard is a strict partial order...
    assert lt.is_strict_partial_order()
    # ...absorbing arbitration-into-pushers and observed edges on the right,
    assert lt.compose(arbar).pairs <= lt.pairs
    assert lt.compose(vns).pairs <= lt.pairs
    # ...and closed over real-time bridges between guard edges.
    bridge = rt.compose((vns | arbar).reflexive())
    assert lt.compose(bridge).compose(lt).pairs <= lt.pairs

    # Everything the body order must include is jointly acyclic.
    union = rt | vis | arbar | lt
    assert union.is_acyclic()

    # The closure of the union stays within the bounded-path cover.
    s = (rt | vns | arbar | rt.compose(vns) | vns.compose(rt)
         | rt.compose(arbar) | arbar.compose(rt))
    assert s.compose(s).pairs <= s.pairs
    cover = (s | lt | s.compose(lt) | lt.compose(s)
             | s.compose(lt).compose(s))
    assert union.transitive_closure().pairs <= cover.pairs


def test_scheduling_facts_on_fixture_witnesses(sem):
    for name in ("fig3a", "fig3b", "fig3c", "fig5"):
        assert_scheduling_facts(fixture(name).witness)


def test_scheduling_facts_on_pull_race(sem):
    assert_scheduling_facts(pull_race_execution())


def test_scheduling_facts_on_generated_runs(sem):
    rng = random.Random(29)
    for _ in range(20):
        _, x = random_well_fenced_run(rng, sem)
        assert_scheduling_facts(x)
