"""Turning a witness execution back into a concrete schedule.

Given a history plus visibility and arbitration satisfying the axioms, this
module builds a schedule of the log protocol whose replay reproduces the
history exactly (ids, return values, fences, returns-before pairs) and
extracts the same visibility and arbitration.  The construction layers:

  1. a body order: a total order on operation executions extending
     real-time order, visibility, arbitration into pushing events, and a
     scheduling precedence that keeps a pulling event's execution ahead of
     any push it must not observe;
  2. an interleaving of call and return tokens around the bodies realizing
     returns-before exactly: return(e) precedes call(f) in the schedule if
     and only if (e, f) is a real-time pair;
  3. communication placement: pushes happen strictly in arbitration order
     (the server is an arbitration prefix at every moment and ends equal to
     it), each placed at an idle point of its client after the entries it
     must not leak past and before the first event whose view needs it;
     pulls bring a client's known prefix up to exactly the entries the
     event's visibility prescribes.  An entry with no idle point of its own
     can instead ride the pending-queue flush of its session's next
     push-fenced event, which the protocol performs inside that event's
     body; the planner falls back to this placement when a standalone push
     has no legal slot.

Replay verification is mandatory: synthesize_schedule re-runs the result
through the simulator and fails loudly on any mismatch.  Witnesses whose
dependencies cannot be serialized under the schedule grammar (a client's
own pushes and pulls are forbidden between an event's call and return) are
rejected with SynthesisError rather than silently approximated.
"""

from __future__ import annotations

from .axioms import check_axioms
from .model import AbstractExecution, History, HistoryError
from .protocol import Schedule, Token, body, call, pull, push, ret
from .protocol import extract_execution, extract_history, run_schedule
from .relations import CycleError, Relation, TotalOrder, extend_to_total
from .semantics import ObjectSemantics


class SynthesisError(AssertionError):
    """The witness cannot be realized under the schedule grammar, or the
    replay of a synthesized schedule failed verification."""


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
    union is acyclic for every execution satisfying the axioms; a cycle
    means the witness is invalid."""
    h = x.history
    lt = scheduling_precedence(x) if prec is None else prec
    pushers = h.pushers()
    ar_push = Relation(
        h.ids,
        frozenset(p for p in x.ar.as_relation().pairs if p[1] in pushers),
    )
    q_rel = h.rt | x.vis | ar_push | lt
    try:
        return extend_to_total(q_rel, tie_break=sorted(h.ids))
    except CycleError as err:
        raise AssertionError(
            f"scheduling constraints cyclic; the witness is invalid: {err}"
        ) from err


def _anchor_order(
    h: History, q: TotalOrder, extra: set[tuple[str, str]]
) -> list[tuple[str, str]]:
    """Total order over call/body/ret tokens: call < body < ret per event,
    bodies follow q, and return(e) precedes call(f) iff (e, f) is a
    real-time pair (both directions encoded as hard edges).  ``extra``
    adds dependency edges between named tokens."""
    seq = q.sequence
    nodes = [f"{k}:{e}" for e in seq for k in ("call", "body", "ret")]
    edges: set[tuple[str, str]] = set(extra)
    for e in seq:
        edges.add((f"call:{e}", f"body:{e}"))
        edges.add((f"body:{e}", f"ret:{e}"))
    for a, b in zip(seq, seq[1:]):
        edges.add((f"body:{a}", f"body:{b}"))
    rt = h.rt.pairs
    for e in seq:
        for f in seq:
            if e == f:
                continue
            if (e, f) in rt:
                edges.add((f"ret:{e}", f"call:{f}"))
            else:
                edges.add((f"call:{f}", f"ret:{e}"))
    tie = ([f"ret:{e}" for e in seq] + [f"body:{e}" for e in seq]
           + [f"call:{e}" for e in seq])
    rel = Relation(frozenset(nodes), frozenset(edges))
    try:
        total = extend_to_total(rel, tie_break=tie)
    except CycleError as err:
        raise SynthesisError(
            "the witness cannot be serialized under the schedule grammar: "
            f"{err}"
        ) from err
    out = []
    for node in total.sequence:
        kind, eid = node.split(":", 1)
        out.append((kind, eid))
    return out


class _CarryHint(Exception):
    """Internal: a standalone push for ``event`` has no legal slot, but the
    entry can ride the pending flush of ``pusher`` instead."""

    def __init__(self, event: str, pusher: str) -> None:
        super().__init__(event, pusher)
        self.event = event
        self.pusher = pusher


def synthesize_schedule(x: AbstractExecution, semantics: ObjectSemantics) -> Schedule:
    """Compile a witness execution into a replayable schedule and verify it.

    Raises HistoryError for invalid witnesses (structure or axioms),
    SynthesisError when no schedule exists under the grammar or when the
    replay does not reproduce the witness."""
    h = x.history
    errs = x.structural_violations()
    if errs:
        raise HistoryError("; ".join(errs))
    rep = check_axioms(x, semantics)
    if not rep.ok:
        raise HistoryError(f"witness fails axioms: {', '.join(rep.failed())}")
    carried: dict[str, str] = {}
    while True:
        try:
            return _assemble(x, semantics, carried)
        except _CarryHint as hint:
            carried[hint.event] = hint.pusher


def _assemble(x: AbstractExecution, semantics: ObjectSemantics,
              carried: dict[str, str]) -> Schedule:
    h = x.history
    ids = h.ids
    by = h.by_id
    pushers, pullers = h.pushers(), h.pullers()
    owner = {eid: by[eid].client for eid in ids}
    ar_seq = x.ar.sequence
    ar_pos = {eid: i for i, eid in enumerate(ar_seq)}
    vis_not_so = x.vis - h.so

    # The body of a push-fenced event flushes its client's pending entries
    # (in session order) before appending its own, so an entry that is
    # still pending then cannot sit after that event in arbitration.
    next_flusher: dict[str, str | None] = {}
    for _client, sids in h.sessions:
        nxt: str | None = None
        for eid in reversed(sids):
            next_flusher[eid] = nxt
            if eid in pushers:
                nxt = eid
    for g in ids:
        p = next_flusher[g]
        if g not in pushers and p is not None and ar_pos[g] > ar_pos[p]:
            raise SynthesisError(
                f"the flush at {p} puts {g} on the server first, "
                f"contradicting arbitration order"
            )

    def entry_src(g: str) -> str:
        """The token after which g's entry is on the server."""
        if g in pushers:
            return f"body:{g}"
        if g in carried:
            return f"body:{carried[g]}"
        return f"ret:{g}"

    prec = scheduling_precedence(x)
    q = body_order(x, prec)

    # Entries each event needs on the server: the whole arbitration prefix
    # up to its last cross-session visibility predecessor (the server can
    # only be pulled as a prefix), plus, for pushing events, everything
    # arbitrated before them (the server must stay an arbitration prefix).
    vneed: dict[str, list[str]] = {}
    pneed: dict[str, list[str]] = {}
    vcut: dict[str, int] = {}
    for e in ids:
        vs = vis_not_so.predecessors(e)
        cut = max((ar_pos[v] for v in vs), default=-1)
        vcut[e] = cut
        vneed[e] = [g for g in ar_seq[: cut + 1] if g != e]
        if e in pushers:
            pneed[e] = [g for g in ar_seq[: ar_pos[e]] if g not in set(vneed[e])]
        else:
            pneed[e] = []

    extra: set[tuple[str, str]] = set()
    for e in ids:
        v_anchor = f"body:{e}" if e in pullers else f"call:{e}"
        for g in vneed[e]:
            src = entry_src(g)
            if src != v_anchor and g != e:
                extra.add((src, v_anchor))
        for g in pneed[e]:
            src = entry_src(g)
            if src != f"body:{e}":
                extra.add((src, f"body:{e}"))
    # A carried entry reaches the server inside its flusher's body, so any
    # pulling event of another client that must not observe it has to run
    # before that body.
    for g, p in carried.items():
        for e_prime in pullers:
            if owner[e_prime] == owner[g]:
                continue
            if (g, e_prime) not in x.vis:
                extra.add((f"body:{e_prime}", f"body:{p}"))
    # A pull-fenced event observes everything pushed by the time it runs,
    # so anything pushed ahead of a call must wait for every pulling event
    # that must not see it.
    for f in ids:
        if f in pullers or not vneed[f]:
            continue
        for e_prime in pullers:
            if e_prime == f:
                continue
            if any(g != e_prime and (g, e_prime) not in x.vis for g in vneed[f]):
                extra.add((f"body:{e_prime}", f"call:{f}"))

    anchors = _anchor_order(h, q, extra)
    aidx = {t: i for i, t in enumerate(anchors)}
    n = len(anchors)

    # Push placement: slot s means "immediately before anchors[s]" (s = n is
    # the trailing flush).  Push-fenced events are pushed by their own body;
    # everything else needs a slot at an idle point of its client, after its
    # return and after every pulling body that must not see it, before the
    # first anchor that needs it, all in arbitration order.
    windows: dict[str, list[tuple[int, int]]] = {}
    for e in ids:
        windows.setdefault(owner[e], []).append((aidx[("call", e)], aidx[("ret", e)]))

    def idle(client: str, s: int) -> bool:
        return not any(c < s <= r for c, r in windows[client])

    needed_by: dict[str, int] = {}
    for e in ids:
        v_anchor = aidx[("body", e)] if e in pullers else aidx[("call", e)]
        for g in vneed[e]:
            needed_by[g] = min(needed_by.get(g, n), v_anchor)
        for g in pneed[e]:
            needed_by[g] = min(needed_by.get(g, n), aidx[("body", e)])

    slot_of: dict[str, int] = {}
    cursor: tuple[int, int] = (-1, 1)
    for g in ar_seq:
        if g in pushers or g in carried:
            flusher = g if g in pushers else carried[g]
            pos = (aidx[("body", flusher)], 1)
            if pos < cursor:
                raise SynthesisError(
                    f"push of {g} cannot respect arbitration order under "
                    f"the schedule grammar"
                )
            cursor = pos
            continue
        lower = aidx[("ret", g)] + 1
        for e_prime in pullers:
            if e_prime != g and (g, e_prime) not in x.vis:
                lower = max(lower, aidx[("body", e_prime)] + 1)
        if cursor[1] == 0:
            lower = max(lower, cursor[0])
        else:
            lower = max(lower, cursor[0] + 1)
        upper = needed_by.get(g, n)
        nf = next_flusher[g]
        if nf is not None:
            upper = min(upper, aidx[("body", nf)])
        s = lower
        while s <= upper and not idle(owner[g], s):
            s += 1
        if s > upper:
            if nf is not None:
                raise _CarryHint(g, nf)
            raise SynthesisError(
                f"no legal point to push {g} before it is needed under "
                f"the schedule grammar"
            )
        slot_of[g] = s
        cursor = (s, 0)

    pushes_at: dict[int, list[str]] = {}
    for g in ar_seq:
        if g in slot_of:
            pushes_at.setdefault(slot_of[g], []).append(g)

    # Emission, mirroring the server and per-client state.
    tokens: list[Token] = []
    server: list[str] = []
    known = {c: 0 for c in windows}
    pending = {c: [] for c in windows}

    def emit_push(g: str) -> None:
        c = owner[g]
        if not pending[c] or pending[c][0] != g:
            raise SynthesisError(f"push of {g} out of session order at {c}")
        tokens.append(push(c))
        pending[c].pop(0)
        server.append(g)
        if server != list(ar_seq[: len(server)]):
            raise SynthesisError("server left arbitration order")

    for i, (kind, e) in enumerate(anchors):
        for g in pushes_at.get(i, ()):
            emit_push(g)
        c = owner[e]
        if kind == "call":
            if e not in pullers and vcut[e] >= 0:
                target = vcut[e] + 1
                if len(server) < target:
                    raise SynthesisError(f"entries needed by {e} not pushed in time")
                while known[c] < target:
                    tokens.append(pull(c))
                    known[c] += 1
            tokens.append(call(c, by[e].obj, by[e].op, fences=by[e].fences, id=e))
        elif kind == "body":
            tokens.append(body(c))
            if e in pullers:
                known[c] = len(server)
            if e in pushers:
                server.extend(pending[c])
                pending[c].clear()
                server.append(e)
                if server != list(ar_seq[: len(server)]):
                    raise SynthesisError("server left arbitration order")
            else:
                pending[c].append(e)
        else:
            tokens.append(ret(c))
    for g in pushes_at.get(n, ()):
        emit_push(g)
    for c in sorted(known):
        while known[c] < len(server):
            tokens.append(pull(c))
            known[c] += 1

    sched = Schedule(tuple(tokens))

    run = run_schedule(sched, semantics)
    got_h = extract_history(run)
    if got_h.canonical() != h.canonical():
        raise SynthesisError("replay produced a different history")
    got_x = extract_execution(run)
    if got_x.vis != x.vis:
        raise SynthesisError(
            f"replay visibility differs: {sorted(got_x.vis.pairs ^ x.vis.pairs)}"
        )
    if tuple(got_x.ar.sequence) != tuple(ar_seq):
        raise SynthesisError("replay arbitration differs")
    return sched
