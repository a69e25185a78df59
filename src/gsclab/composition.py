"""Combining per-object witnesses into one global execution.

Membership is closed under composition for well-fenced histories: if every
object projection of a history has a visibility/arbitration witness, the
whole history does too, provided each session separates its object switches
with a push of the object it leaves followed by a pull of the object it
enters.  Without that fence discipline two objects may disagree about the
relative order of two sessions (the long-fork fixture), which no single
shared log can explain.

The construction below builds the global witness directly: it seeds
arbitration with every ordering the axioms force (pushed real-time edges,
session order, the per-object arbitrations, observed-then-finished edges,
and a precedence relation guarding against arbitration choices that would
force an unread same-object event into a reader's view), extends the seed
to a total order, and derives visibility by the least closure of the
per-object union under the visibility laws, computed by the same bitmask
closure (``axioms.minimal_visibility``) the membership search uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .axioms import check_axioms, minimal_visibility
from .model import (
    AbstractExecution,
    History,
    HistoryError,
    is_well_fenced,
    project,
    validate_history,
)
from .relations import Relation, extend_to_total
from .semantics import ObjectSemantics


@dataclass(frozen=True)
class PerObjectWitnesses:
    """A global history plus one witness execution per object.

    Each witness must be an execution over exactly ``project(history, x)``
    and pass the axioms; :func:`compose` checks both.
    """

    history: History
    per_object: Mapping[str, AbstractExecution]


def union_relations(w: PerObjectWitnesses) -> tuple[Relation, Relation, Relation]:
    """The pairwise unions (session order, visibility, arbitration) of the
    per-object witnesses, lifted to the global event set."""
    h = w.history
    ids = h.ids
    so0: set[tuple[str, str]] = set()
    vis0: set[tuple[str, str]] = set()
    ar0: set[tuple[str, str]] = set()
    for obj in sorted(w.per_object):
        x = w.per_object[obj]
        expected = frozenset(e.id for e in h.events if e.obj == obj)
        if x.history.ids != expected:
            raise HistoryError(
                f"witness for object {obj!r} covers events "
                f"{sorted(x.history.ids)} but the projection has {sorted(expected)}"
            )
        so0 |= x.history.so.pairs
        vis0 |= x.vis.pairs
        ar0 |= x.ar.as_relation().pairs
    return (Relation(ids, frozenset(so0)),
            Relation(ids, frozenset(vis0)),
            Relation(ids, frozenset(ar0)))


def composition_precedence(h: History, vis0: Relation, so0: Relation) -> Relation:
    """The guard relation over arbitration choices.

    ``e`` precedes ``f`` when arbitrating ``f`` before ``e`` would force a
    same-object visibility edge ``f -> g`` that the per-object witness does
    not have: there is a ``g`` with ``obj(f) = obj(g)`` and ``(f, g)`` not
    in the visibility union such that ``e`` reaches ``g`` through
    ``(vis0 \\ so); (rt into pullers); so0?`` or
    ``(rt from pushers into pullers); so0?``.
    """
    ids = h.ids
    by = h.by_id
    pushers, pullers = h.pushers(), h.pullers()
    rt_pull = Relation(ids, frozenset(p for p in h.rt.pairs if p[1] in pullers))
    rt_push_pull = Relation(ids, frozenset(p for p in rt_pull.pairs if p[0] in pushers))
    so0q = so0.reflexive()
    vis_not_so = vis0 - h.so
    reach = vis_not_so.compose(rt_pull).compose(so0q) | rt_push_pull.compose(so0q)
    pairs: set[tuple[str, str]] = set()
    by_obj: dict[str, list[str]] = {}
    for e in h.events:
        by_obj.setdefault(e.obj, []).append(e.id)
    for (e, g) in reach.pairs:
        for f in by_obj[by[g].obj]:
            if (f, g) not in vis0:
                pairs.add((e, f))
    return Relation(ids, frozenset(pairs))


def arbitration_constraints(
    h: History, vis0: Relation, ar0: Relation, prec: Relation
) -> Relation:
    """Everything the axioms force into global arbitration: pushed real-time
    edges, session order, the per-object arbitrations, observed-then-finished
    edges, and the precedence guard."""
    pushers = h.pushers()
    rt_pushed = Relation(h.ids, frozenset(p for p in h.rt.pairs if p[0] in pushers))
    return rt_pushed | h.so | ar0 | (vis0 - h.so).compose(h.rt) | prec


def compose(w: PerObjectWitnesses, semantics: ObjectSemantics) -> AbstractExecution:
    """Build a global witness from per-object witnesses of a well-fenced
    history.

    Refuses histories that are not well-fenced and witnesses that are not
    over the projections or fail the axioms (input errors).  On valid
    inputs the constraint relation is acyclic, the composed execution
    passes all axioms, and its visibility restricted to each object equals
    that object's witness visibility exactly.  These are theorems, not
    re-checked here: test_criterion_6_composition and
    test_compose_random_two_object_runs check the output,
    test_identities_on_random_instances the acyclicity and
    test_closed_visibility_is_least_closure the unconflicted closure."""
    h = w.history
    errs = validate_history(h)
    if errs:
        raise HistoryError("; ".join(errs))
    ok, pair = is_well_fenced(h)
    if not ok:
        raise HistoryError(
            f"not well-fenced: session pair {pair} switches objects without "
            f"a push of the first object followed by a pull of the second"
        )
    objs = set(h.objects())
    if set(w.per_object) != objs:
        raise HistoryError(
            f"witness objects {sorted(w.per_object)} differ from history "
            f"objects {sorted(objs)}"
        )
    for obj in sorted(w.per_object):
        x = w.per_object[obj]
        if x.history != project(h, obj):
            raise HistoryError(f"witness for object {obj!r} is not over the projection")
        rep = check_axioms(x, semantics)
        if not rep.ok:
            reasons = "; ".join(rep.structural) or ", ".join(rep.failed())
            raise HistoryError(f"witness for object {obj!r} fails {reasons}")
    so0, vis0, ar0 = union_relations(w)
    prec = composition_precedence(h, vis0, so0)
    ar = extend_to_total(arbitration_constraints(h, vis0, ar0, prec))
    vis, _ = minimal_visibility(h, ar, seed=vis0)
    return AbstractExecution(h, vis, ar)
