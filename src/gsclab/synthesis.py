"""Turning a witness execution back into a concrete schedule.

Given a history plus visibility and arbitration satisfying the axioms, this
module builds a schedule of the log protocol whose replay reproduces the
history exactly (ids, return values, fences, returns-before pairs) and
extracts the same visibility and arbitration.  The schedule is the
least_order (Kahn's algorithm, CACM 1962) of a token graph:

  - nodes call(e), body(e) and ret(e) per event, push(g) per event without
    a push fence (a push-fenced body is its own push node), and pull(c, k)
    per client c and server position k;
  - call(e) < body(e) < ret(e), body(g) < push(g), and pushes in
    arbitration order, so the server is always an arbitration prefix (a
    client's pushes follow its session, since so is inside ar);
  - push(ar[k]) < pull(c, k) < pull(c, k+1);
  - ret(e) < call(f) if (e, f) is returns-before, else call(f) < ret(e);
  - for e of client c and g of another client, pull(c, pos g) < body(e) if
    g is visible to e, else body(e) < pull(c, pos g); a pull-fenced body
    reads the whole server, so push(g) replaces pull(c, pos g) there.  A
    client's own entries need no edge: pending and unacked keep them in
    view.

Every schedule that realizes the witness is an order of this graph, once a
push-fenced body's flush and a pull-fenced body's pulls are written as
tokens just before it; so a cycle means no schedule exists.  Ties break
ret, body, push, call, then pulls, each by arbitration position; a pull
that a pull-fenced body already fetched writes no token.  The replay of
the result through the simulator must reproduce the witness.
"""

from __future__ import annotations

from .axioms import check_axioms
from .model import PULL, PUSH, AbstractExecution, HistoryError
from .protocol import Schedule, Token, body, call, pull, push, ret
from .protocol import extract_execution, run_schedule
from .relations import Relation, TotalOrder, extend_to_total, least_order
from .semantics import ObjectSemantics


class SynthesisError(AssertionError):
    """No schedule realizes the witness, or the replay of a synthesized
    schedule failed verification."""


def scheduling_precedence(x: AbstractExecution) -> Relation:
    """Pairs (e, f) whose executions must be ordered e before f because
    running f first would push an entry onto the server that a pull by e
    (or by a later event of e's session) is not allowed to observe.

    Literally: e < f iff there are e' and g' with e' pulling, e same-session
    before or equal to e', g' distinct from e' and not visible to e', such
    that either g' is an arbitration predecessor (or equal) of some g''
    with (g'', f) in visibility minus session order, or f pushes and g' is
    an arbitration predecessor of f (or f itself)."""
    h = x.history
    ids = h.ids
    pushers, pullers = h.pushers(), h.pullers()
    arq = x.ar.as_relation().reflexive()
    vis_not_so = x.vis - h.so
    soq = h.so.reflexive()
    pushed_for = arq.compose(vis_not_so)
    pairs: set[tuple[str, str]] = set()
    for f in ids:
        gset = set(pushed_for.predecessors(f))
        if f in pushers:
            gset |= set(arq.predecessors(f))
        if not gset:
            continue
        for e_prime in pullers:
            if not any(g != e_prime and (g, e_prime) not in x.vis for g in gset):
                continue
            pairs.update((e, f) for e in soq.predecessors(e_prime))
    return Relation(ids, frozenset(pairs))


def body_order(x: AbstractExecution, prec: Relation | None = None) -> TotalOrder:
    """A total order on executions extending real-time order, visibility,
    arbitration into pushing events, and the scheduling precedence.  The
    union is acyclic for every execution satisfying the axioms; on a cycle,
    which means the witness is invalid, it raises CycleError."""
    h = x.history
    lt = scheduling_precedence(x) if prec is None else prec
    pushers = h.pushers()
    ar_push = Relation(
        h.ids,
        frozenset(p for p in x.ar.as_relation().pairs if p[1] in pushers),
    )
    return extend_to_total(h.rt | x.vis | ar_push | lt)


# A token-graph node is (kind, position, client): the event's arbitration
# position (a pull's server position), and a client on pulls only.  Kinds
# are ranked so that the node is its own tie-break key.
Node = tuple[int, int, str]
_RET, _BODY, _PUSH, _CALL, _PULL = range(5)


def _token_graph(x: AbstractExecution) -> dict[Node, list[Node]]:
    """The token graph of the module docstring, as successor lists."""
    h, seq = x.history, x.ar.sequence
    by, n = h.by_id, len(seq)
    succ: dict[Node, list[Node]] = {}
    pushes = []
    for k, e in enumerate(seq):
        succ[(_CALL, k, "")] = [(_BODY, k, "")]
        succ[(_RET, k, "")] = []
        if PUSH in by[e].fences:
            succ[(_BODY, k, "")] = [(_RET, k, "")]
            pushes.append((_BODY, k, ""))
        else:
            succ[(_BODY, k, "")] = [(_RET, k, ""), (_PUSH, k, "")]
            succ[(_PUSH, k, "")] = []
            pushes.append((_PUSH, k, ""))
    for a, b in zip(pushes, pushes[1:]):
        succ[a].append(b)
    for c in {by[e].client for e in seq}:
        for k in range(n):
            succ[pushes[k]].append((_PULL, k, c))
            succ[(_PULL, k, c)] = [(_PULL, k + 1, c)] if k + 1 < n else []
    rt, vis = h.rt.pairs, x.vis.pairs
    for k, e in enumerate(seq):
        c, pulls = by[e].client, PULL in by[e].fences
        for j, f in enumerate(seq):
            if j == k:
                continue
            if (e, f) in rt:
                succ[(_RET, k, "")].append((_CALL, j, ""))
            else:
                succ[(_CALL, j, "")].append((_RET, k, ""))
            if by[f].client != c:
                src = pushes[j] if pulls else (_PULL, j, c)
                if (f, e) in vis:
                    succ[src].append((_BODY, k, ""))
                else:
                    succ[(_BODY, k, "")].append(src)
    return succ


def _topological_order(succ: dict[Node, list[Node]]) -> list[Node]:
    """least_order over the token graph; unplaced nodes mean no schedule."""
    order, unplaced = least_order(succ)
    if unplaced:
        kinds = ("ret", "body", "push", "call", "pull")
        stuck = [f"{kinds[kind]}({c}, {k})" if c else f"{kinds[kind]}(ar[{k}])"
                 for kind, k, c in sorted(unplaced)]
        raise SynthesisError("no schedule realizes the witness: its token "
                             f"constraints are cyclic; unplaced: {', '.join(stuck[:6])}")
    return order


def synthesize_schedule(x: AbstractExecution, semantics: ObjectSemantics) -> Schedule:
    """Compile a witness execution into a replayable schedule and verify it.

    Raises HistoryError for invalid witnesses (structure or axioms),
    SynthesisError when no schedule realizes the witness or when the
    replay does not reproduce it."""
    h = x.history
    rep = check_axioms(x, semantics)
    if rep.structural:
        raise HistoryError("; ".join(rep.structural))
    if not rep.ok:
        raise HistoryError(f"witness fails axioms: {', '.join(rep.failed())}")
    ar_seq, by_id = x.ar.sequence, h.by_id
    tokens: list[Token] = []
    known = {c: 0 for c, _ in h.sessions}
    on_server = 0
    for kind, k, c in _topological_order(_token_graph(x)):
        if kind == _PULL:
            if k >= known[c]:
                tokens.append(pull(c))
                known[c] = k + 1
            continue
        ev = by_id[ar_seq[k]]
        c = ev.client
        if kind == _CALL:
            tokens.append(call(c, ev.obj, ev.op, fences=ev.fences, id=ev.id))
        elif kind == _BODY:
            tokens.append(body(c))
            if PULL in ev.fences:
                known[c] = on_server
            if PUSH in ev.fences:
                on_server = k + 1
        elif kind == _PUSH:
            tokens.append(push(c))
            on_server = k + 1
        else:
            tokens.append(ret(c))
    sched = tuple(tokens)

    got_x = extract_execution(run_schedule(sched, semantics))
    if got_x.history.canonical() != h.canonical():
        raise SynthesisError("replay produced a different history")
    if got_x.vis != x.vis:
        raise SynthesisError(
            f"replay visibility differs: {sorted(got_x.vis.pairs ^ x.vis.pairs)}"
        )
    if tuple(got_x.ar.sequence) != tuple(ar_seq):
        raise SynthesisError("replay arbitration differs")
    return sched
