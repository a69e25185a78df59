"""Stronger models obtained by fixing fences: linearizability and ordered
sequential consistency (OSC).

When every event both pushes and pulls, the log behaves like a single copy:
membership is equivalent to the existence of a linearization, a total order
containing session order and real-time order in which every event's return
value equals the sequential evaluation of the same-object prefix before it.
When every event pushes and every update also pulls, reads may trail behind
but updates still serialize: the real-time requirement weakens to edges that
end in an update.

Both checkers walk the linear extensions of that order (relations.extensions,
desk scale), so they can serve as independent cross-checks of the axiomatic
membership test under the corresponding fence presets.  The converters
translate between the two witness shapes: a linearization of an all-fenced
history and a full visibility/arbitration execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import DEFAULT_MAX_EVENTS, minimal_visibility, require_searchable
from .model import PULL, PUSH, AbstractExecution, History, HistoryError
from .relations import Relation, TotalOrder, extend_to_total, extensions
from .semantics import ObjectSemantics


@dataclass(frozen=True)
class Linearization:
    """A history together with a single total order explaining it."""

    history: History
    lin: TotalOrder


@dataclass(frozen=True)
class LinearizationResult:
    member: bool
    witness: Linearization | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.member


def _require_classifier(semantics: ObjectSemantics) -> None:
    if semantics.classify is None:
        raise HistoryError(f"semantics {semantics.name!r} cannot classify updates")


def _linearized(h: History, semantics: ObjectSemantics, base: Relation,
                note: str) -> LinearizationResult:
    """A member with the smallest (by id at each step) linear extension of
    ``base`` in which every event's return value matches evaluation of the
    same-object prefix placed before it, or a non-member with ``note``.
    The walk's state is that prefix's operations per object, exactly the
    evaluation context, so a mismatch cuts the branch.  ``base`` lies in
    h's rt, which ``require_searchable`` has checked to be an interval
    order, so it is acyclic."""
    events = h.by_id

    def place(prefix_ops: dict, eid: str) -> dict | None:
        e = events[eid]
        ctx = prefix_ops.get(e.obj, ())
        if semantics.eval(ctx, e.op) != e.rval:
            return None
        return {**prefix_ops, e.obj: ctx + (e.op,)}

    seq = next((seq for seq, _ in extensions(base, place, {})), None)
    if seq is None:
        return LinearizationResult(False, note=note)
    return LinearizationResult(True, Linearization(h, TotalOrder(seq)))


def check_lin(h: History, semantics: ObjectSemantics,
              max_events: int = DEFAULT_MAX_EVENTS) -> LinearizationResult:
    """Membership under the single-copy model: requires every event to push
    and pull, and searches for a linearization containing session order and
    real-time order whose prefix evaluation reproduces every return value.
    Histories over ``max_events`` events are refused, as by ``is_gsc``."""
    require_searchable(h, max_events)
    for e in h.events:
        if PUSH not in e.fences or PULL not in e.fences:
            raise HistoryError(
                f"fence preset violated: event {e.id} must both push and pull"
            )
    return _linearized(h, semantics, h.so | h.rt,
                       "no total order contains session order and real-time order "
                       "while reproducing every return value by prefix evaluation")


def check_osc(h: History, semantics: ObjectSemantics,
              max_events: int = DEFAULT_MAX_EVENTS) -> LinearizationResult:
    """Membership under the serialized-updates model: requires every event
    to push and every update to also pull.  Reads may linearize before
    events that finished earlier, so only real-time edges into updates are
    enforced.  Histories over ``max_events`` events are refused."""
    require_searchable(h, max_events)
    _require_classifier(semantics)
    for e in h.events:
        if PUSH not in e.fences:
            raise HistoryError(f"fence preset violated: event {e.id} must push")
        if semantics.is_update(e.op) and PULL not in e.fences:
            raise HistoryError(
                f"fence preset violated: update event {e.id} must pull"
            )
    updates = {e.id for e in h.events if semantics.is_update(e.op)}
    rt_into_updates = Relation(
        h.ids, frozenset((a, b) for (a, b) in h.rt.pairs if b in updates)
    )
    return _linearized(h, semantics, h.so | rt_into_updates,
                       "no total order contains session order and real-time edges "
                       "into updates while reproducing every return value")


def lin_from_osc_execution(
    x: AbstractExecution, semantics: ObjectSemantics
) -> Linearization:
    """Collapse a visibility/arbitration witness (with serialized updates)
    into one total order: updates keep their arbitration order and each read
    goes right after the last update it observed (reads that observed none
    go first).  Reads sharing an anchor stay in arbitration order, which
    also respects session order since session order is contained in it."""
    h = x.history
    _require_classifier(semantics)
    by_id = h.by_id
    rank = {u: k for k, u in enumerate(
        (i for i in x.ar.sequence if semantics.is_update(by_id[i].op)), 1)}

    def slot(eid: str) -> tuple[int, int]:  # a read sorts after the last update it saw
        if eid in rank:
            return rank[eid], 0
        return max((k for u, k in rank.items() if (u, eid) in x.vis), default=0), 1

    return Linearization(h, TotalOrder(tuple(sorted(x.ar.sequence, key=slot))))


def osc_execution_from_lin(
    l: Linearization, semantics: ObjectSemantics
) -> AbstractExecution:
    """Expand a linearization with serialized updates into a full witness.

    Arbitration extends (update-to-anything linearization edges) united with
    real-time order, breaking ties by linearization position.  Visibility is
    the least closure of those update edges under the visibility laws
    (``axioms.minimal_visibility``): an event sees the updates linearized
    before it, closed under session order on both sides, and every
    pull-fenced event additionally sees the pushed work arbitrated up to it.
    With every update push- and pull-fenced that last part makes each update
    see all its arbitration predecessors; with all events fully fenced it
    makes visibility the whole arbitration order."""
    h = l.history
    _require_classifier(semantics)
    ids, by_id = h.ids, h.by_id
    upd = {i for i in ids if semantics.is_update(by_id[i].op)}
    r_upd = Relation(ids, frozenset(p for p in l.lin.as_relation().pairs if p[0] in upd))
    ar = extend_to_total(r_upd | h.rt, tie_break=l.lin.sequence)
    vis, _ = minimal_visibility(h, ar, seed=r_upd)
    return AbstractExecution(h, vis, ar)
