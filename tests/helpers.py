"""Builders that only the tests use: hand-made witnesses, fence-flipped
variants of the litmus histories, an append that misreports its return
value, a seeded generator of unconstrained
histories with its value-folded and register translations, the
four-loop well-fencing check the one-pass scan is checked against, the
enumerative membership search that criterion 9 checks is_gsc against, the
pair-by-pair law check that the bitmask check_axioms is checked against,
the token-run search with its fit rules that the schedule and
producibility oracles share, and three helpers the package does not need:
a relation's inverse, the product of two sets as a relation and a
report's verdict by law name."""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Mapping

from gsclab import (
    AbstractExecution,
    Event,
    History,
    Interval,
    Op,
    PULL,
    PUSH,
    Relation,
    TotalOrder,
    World,
    fixture,
    make_history,
    project,
    validate_history,
)
from gsclab import axioms, protocol
from gsclab.generators import FENCE_CHOICES
from gsclab.model import refenced
from gsclab.relations import linear_extensions


def inverse(r: Relation) -> Relation:
    """The converse relation: (b, a) for every pair (a, b) of r."""
    return Relation(r.domain, frozenset((b, a) for a, b in r.pairs))


def product(domain, left, right) -> Relation:
    """The full rectangle left × right inside ``domain``."""
    return Relation(frozenset(domain), frozenset((a, b) for a in left for b in right))


def verdict(report: axioms.AxiomReport, name: str) -> axioms.AxiomVerdict:
    """The verdict a law check reports for the law called ``name``."""
    return next(v for v in report.verdicts if v.name == name)


def with_fences(h: History, assignment: Mapping[str, frozenset[str] | set[str]]) -> History:
    """A copy of ``h`` with the fences of selected events replaced."""
    unknown = set(assignment) - set(h.ids)
    if unknown:
        raise KeyError(f"unknown event ids {sorted(unknown)}")
    return refenced(h, lambda e: assignment.get(e.id, e.fences))


# Each flip variant turns a member into a non-member.


def fig3a_pull_variant() -> History:
    """Stale read with a pull fence on the stale reader: the pull would have
    fetched both appends, so returning just one is no longer allowed."""
    return with_fences(fixture("fig3a").history, {"f2": {PULL}})


def fig3b_push_variant() -> History:
    """Reordered appends with a push fence on the earlier append: the push
    pins it to the server first, so the log can no longer reorder them."""
    return with_fences(fixture("fig3b").history, {"e1": {PUSH}})


def fig3c_fence_variant() -> History:
    """Store buffering with pushed appends and pulling reads: each read
    would then have to see the other client's append."""
    return with_fences(
        fixture("fig3c").history,
        {"e1": {PUSH}, "f1": {PUSH}, "e2": {PULL}, "f2": {PULL}},
    )


def fig3d_projection_executions() -> dict[str, AbstractExecution]:
    """Member witnesses for both object projections of the long fork.

    The full history is a non-member, but each projection is fine: the
    witness simply arbitrates the append before the reader that saw it and
    after the reader that did not.
    """
    h = fixture("fig3d").history
    hx = project(h, "x")
    hy = project(h, "y")
    return {
        "x": AbstractExecution(
            hx,
            Relation.from_pairs(hx.ids, [("a", "c1")]),
            TotalOrder(("a", "c1", "d2")),
        ),
        "y": AbstractExecution(
            hy,
            Relation.from_pairs(hy.ids, [("b", "d1")]),
            TotalOrder(("b", "d1", "c2")),
        ),
    }


def misreported_append() -> History:
    """One session that appends 1 as e1 but reports the return value 7,
    then reads (1,) as r.  An append's return value needs no context, so
    RETVAL fails on e1 under every visibility and arbitration."""
    events = [Event("e1", "A", "x", Op("append", 1), 7),
              Event("r", "A", "x", Op("read"), (1,))]
    return make_history(events, {"A": ["e1", "r"]},
                        Relation.from_pairs({"e1", "r"}, [("e1", "r")]))


def random_history(rng: random.Random, max_events: int = 6) -> History:
    """A random single-object history: distinct append values, read returns
    drawn as shuffled subsequences of them (frequently unrealizable), random
    fences, and random interval-assigned returns-before."""
    n = rng.randint(2, max_events)
    n_clients = rng.randint(1, min(3, n))
    names = [chr(ord("A") + i) for i in range(n_clients)]
    owners = [names[i] if i < n_clients else rng.choice(names) for i in range(n)]
    rng.shuffle(owners)
    counter = itertools.count(1)
    kinds = [rng.choice("aar") for _ in range(n)]
    values = [next(counter) if k == "a" else None for k in kinds]
    all_values = [v for v in values if v is not None]
    events = []
    sessions: dict[str, list[str]] = {c: [] for c in names}
    intervals: dict[str, Interval] = {}
    clock = 0.0
    last_end = {c: -10.0 for c in names}
    for i in range(n):
        eid = f"e{i}"
        client = owners[i]
        if kinds[i] == "a":
            op, rval = Op("append", values[i]), None
        else:
            subset = [v for v in all_values if rng.random() < 0.5]
            if rng.random() < 0.3:
                rng.shuffle(subset)
            op, rval = Op("read"), tuple(subset)
        fences = rng.choice(FENCE_CHOICES)
        start = max(clock + rng.uniform(-1.5, 0.5), last_end[client] + 0.1)
        end = start + rng.uniform(0.5, 3.0)
        last_end[client] = end
        clock = max(clock, start) + rng.uniform(0.1, 1.0)
        intervals[eid] = Interval(start, end)
        events.append(Event(eid, client, "x", op, rval, fences))
        sessions[client].append(eid)
    h = make_history(events, {c: ids for c, ids in sessions.items() if ids}, intervals)
    assert not validate_history(h)
    return h


def well_fenced_reference(h: History) -> tuple[bool, tuple[str, str] | None]:
    """model.is_well_fenced by its definition: for each cross-object
    session pair e before f, try every push k of e's object at or after e
    and every pull m of f's object after k up to f.  The one-pass scan is
    checked against this."""
    by_id = h.by_id
    for _, ids in h.sessions:
        n = len(ids)
        for i in range(n):
            e = by_id[ids[i]]
            for j in range(i + 1, n):
                f = by_id[ids[j]]
                if e.obj == f.obj:
                    continue
                ok = False
                for k in range(i, n):
                    ek = by_id[ids[k]]
                    if not (PUSH in ek.fences and ek.obj == e.obj):
                        continue
                    for m in range(k + 1, j + 1):
                        fm = by_id[ids[m]]
                        if PULL in fm.fences and fm.obj == f.obj:
                            ok = True
                            break
                    if ok:
                        break
                if not ok:
                    return False, (e.id, f.id)
    return True, None


def fold_values(h: History) -> History:
    """h with every append value, and every value a read returns, folded
    onto {1, 2}: reads then decode ambiguously wherever two appends share a
    value."""
    def fold(v):
        return 1 + (v - 1) % 2
    events = [dataclasses.replace(e, op=Op("append", fold(e.op.value)))
              if e.op.kind == "append" else
              dataclasses.replace(e, rval=tuple(fold(v) for v in e.rval))
              for e in h.events]
    return make_history(events, dict(h.sessions), h.rt)


def to_register(h: History) -> History:
    """A sequence history as a register history: each append writes its
    value and each read returns the last value it returned (None for
    none)."""
    events = [dataclasses.replace(e, op=Op("write", e.op.value))
              if e.op.kind == "append" else
              dataclasses.replace(e, rval=e.rval[-1] if e.rval else None)
              for e in h.events]
    return make_history(events, dict(h.sessions), h.rt)


def candidate_sets(h: History, ar: TotalOrder, e: Event, semantics) -> list[frozenset[str]]:
    """Visible-update candidates for one observer under a fixed arbitration:
    subsets of same-object updates arbitrated before it, containing its
    same-object session predecessors, consistent with its rval."""
    by_id = h.by_id
    pool_ids = {f.id for f in h.events if f.obj == e.obj and f.id != e.id
                and semantics.is_update(f.op) and ar.before(f.id, e.id)}
    must = {a for a in h.so.predecessors(e.id) if a in pool_ids}
    optional = sorted(pool_ids - must)
    out = []
    for k in range(len(optional) + 1):
        for combo in itertools.combinations(optional, k):
            chosen = must | set(combo)
            ctx = tuple(by_id[a].op for a in sorted(chosen, key=ar.sequence.index))
            if semantics.eval(ctx, e.op) == e.rval:
                out.append(frozenset(chosen))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def enumerative_membership(h: History, semantics):
    """Membership by enumeration, without return-value decoding: every
    linear extension of the forced arbitration order in lexicographic
    order, and over each the product of every context-sensitive event's
    candidate sets (events in arbitration order), each closed from scratch.
    Returns (member, witness, refutations), refutations narrating the first
    axioms.MAX_REFUTATIONS arbitrations."""
    seed_ar, labels = axioms._required_ar_seed(h, None)
    if not seed_ar.is_acyclic():
        return False, None, (axioms._find_cycle_text(seed_ar, labels),)
    observers = [e for e in h.events if semantics.context_sensitive(e.op)]
    refutations = []
    for ar in linear_extensions(seed_ar):
        menus = []
        for e in sorted(observers, key=lambda e: ar.sequence.index(e.id)):
            sets = candidate_sets(h, ar, e, semantics)
            if not sets:
                refutations.append(
                    f"ar {list(ar.sequence)}: no visible-update set under "
                    f"this arbitration lets {e.id} return {e.rval!r} (RETVAL)")
                break
            menus.append((e.id, sets))
        else:
            for choice in itertools.product(*(sets for _, sets in menus)):
                exact = {obs: chosen for (obs, _), chosen in zip(menus, choice)}
                seed_vis = frozenset((u, obs) for obs, chosen in exact.items() for u in chosen)
                witness, _ = axioms._try_ar(h, ar, seed_vis, exact, semantics, {})
                if witness is not None:
                    return True, witness, ()
            refutations.append(
                f"ar {list(ar.sequence)}: every RETVAL-consistent visibility "
                f"assignment breaks the laws")
    return False, None, tuple(refutations[:axioms.MAX_REFUTATIONS])


def _successors(pairs) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return out


def _unseen(reach: dict[str, int], seq, vis) -> set[tuple[str, str]]:
    """The pairs (a, b) outside vis with a at or before position reach[b]
    of the arbitration seq."""
    return {(a, b) for b, i in reach.items() for a in seq[: i + 1] if (a, b) not in vis}


def pairwise_check_axioms(x: AbstractExecution, semantics) -> axioms.AxiomReport:
    """check_axioms law by law, pair by pair over id-keyed tables:
    arbitration positions, visibility predecessors, session and real-time
    successors."""
    structural = tuple(x.structural_violations())
    if structural:
        return axioms.AxiomReport((), structural)
    h = x.history
    by_id = h.by_id
    seq = x.ar.sequence
    pos = {a: i for i, a in enumerate(seq)}
    vis, so, rt = x.vis.pairs, h.so.pairs, h.rt.pairs
    pushers, pullers = h.pushers(), h.pullers()
    preds: dict[str, list[str]] = {e.id: [] for e in h.events}
    for a, b in vis:
        preds[b].append(a)
    so_succ, rt_succ = _successors(so), _successors(rt)
    rt_pull_succ = _successors(p for p in rt if p[1] in pullers)
    vis_not_so = [p for p in vis if p not in so]
    limit, verdict = axioms._limit, axioms.AxiomVerdict
    verdicts = []

    bad = []
    for e in h.events:
        same = sorted((by_id[a] for a in preds[e.id] if by_id[a].obj == e.obj),
                      key=lambda ev: pos[ev.id])
        got = semantics.eval(tuple(ev.op for ev in same), e.op)
        if got != e.rval:
            bad.append((e.id, got))
    verdicts.append(verdict("RETVAL", not bad, limit(bad),
                            "rval must equal eval over visible same-object context"))

    missing = so - vis
    verdicts.append(verdict("RYW", not missing, limit(missing)))

    # vis ; so <= vis
    missing = {(a, c) for a, b in vis for c in so_succ.get(b, ()) if (a, c) not in vis}
    verdicts.append(verdict("MONOTONICVIEW", not missing, limit(missing)))

    # ar? ; (vis \ so) ; (rt & E x EPull)? <= vis: for (a, b) in vis \ so,
    # the arbitration prefix up to a must see b and b's pulling rt successors
    reach: dict[str, int] = {}
    for a, b in vis_not_so:
        for right in (b, *rt_pull_succ.get(b, ())):
            if pos[a] > reach.get(right, -1):
                reach[right] = pos[a]
    missing = _unseen(reach, seq, vis)
    verdicts.append(verdict("OBSERVEDVIS", not missing, limit(missing)))

    # ar? ; (rt? & EPush x EPull) <= vis?: a puller b must see every other
    # event up to the last-arbitrated pusher at or rt-before it
    reach = {b: pos[b] for b in pushers & pullers}
    for a, b in rt:
        if a in pushers and b in pullers and pos[a] > reach.get(b, -1):
            reach[b] = pos[a]
    missing = {p for p in _unseen(reach, seq, vis) if p[0] != p[1]}
    verdicts.append(verdict("PUSHEDVIS", not missing, limit(missing)))

    # (vis \ so) ; rt <= ar
    missing = {(a, c) for a, b in vis_not_so for c in rt_succ.get(b, ())
               if pos[a] >= pos[c]}
    verdicts.append(verdict("OBSERVEDAR", not missing, limit(missing)))

    # rt & (EPush x E) <= ar
    missing = {(a, b) for a, b in rt if a in pushers and pos[a] >= pos[b]}
    verdicts.append(verdict("PUSHEDAR", not missing, limit(missing)))

    verdicts.append(verdict("EVENTUAL", True, (), "vacuously true: histories here are finite"))
    return axioms.AxiomReport(tuple(verdicts))


def target_tables(target: History):
    """The target's return values, rt pairs and rt predecessors by id."""
    rvals = {e.id: e.rval for e in target.events}
    preds = {e.id: target.rt.predecessors(e.id) for e in target.events}
    return rvals, target.rt.pairs, preds


def call_fits(tables, event_id, rt, events):
    """Whether a call of ``event_id`` that gives the run ``rt`` can still
    lead to the target.  Returned-before pairs only ever get added when an
    event is called, so a call whose required predecessors have not all
    returned, or that pairs up with something the target does not, cannot."""
    rvals, rt_pairs, preds = tables
    return (event_id in rvals and rt <= rt_pairs
            and preds[event_id] <= {r.id for r in events})


def body_fits(tables, fr):
    rvals = tables[0]
    return fr.event_id in rvals and fr.rval == rvals[fr.event_id]


def search_runs(target: History, semantics, done, keep=None, moves=protocol._moves):
    """Depth-first search, deduplicated by run, over the token runs of the
    programs of ``target`` (client:index ids) for a run ``done(run,
    programs)`` accepts.  A move is kept only if the fit rules allow it (a
    call adds exactly the target's rt predecessors of its event, a body
    returns the target's value) and ``keep(run, token)``, when given,
    accepts the run it reaches.  Returns the tokens of the first accepted
    run, or None when ``moves`` reach none."""
    programs = protocol.programs_of(target)
    tables = target_tables(target)
    init = protocol.Run(World.initial(programs), (), frozenset())
    seen = {init}
    stack = [(init, ())]
    while stack:
        run, path = stack.pop()
        if done(run, programs):
            return path
        for token in moves(run.world, programs):
            nxt = protocol._apply(run, token, semantics)
            if keep is not None and not keep(nxt, token):
                continue
            fr = nxt.world.client(token.client).frame
            if token.kind == "call" and not call_fits(tables, fr.event_id, nxt.rt, nxt.events):
                continue
            if token.kind == "body" and not body_fits(tables, fr):
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + (token,)))
    return None


def producible(h: History, semantics) -> bool:
    """Whether some run over ``protocol._moves`` of h's own programs
    reproduces h exactly (canonical ids).  Programs fix ids, clients,
    sessions, operations and fences; the fit rules fix every return value
    and every rt pair, which calls alone add; so the first run in which
    every client has returned its last event is the target.  The search
    steps tokens through ``step`` and shares nothing with ``explore``'s
    compact walk, so it checks that walk's reductions."""
    return search_runs(h.canonical(), semantics,
                       lambda run, programs: protocol._terminal(run.world, programs)
                       ) is not None
