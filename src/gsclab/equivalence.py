"""All-push and all-pull forms of fence-free executions.

A fence-free execution satisfying the axioms stays valid when every event
is made pushing and returns-before is strengthened to the arbitration
order, and when every event is made pulling and returns-before is
strengthened to a total order containing visibility and the scheduling
precedence of the all-pull image.  Together with fence erasure, membership
is preserved across the three fencing disciplines as long as the
returns-before order may be re-chosen; the flip fixtures show it is not
preserved when returns-before is pinned.
"""

from __future__ import annotations

from .axioms import check_axioms
from .model import (
    PULL,
    PUSH,
    AbstractExecution,
    HistoryError,
    erase_fences,
    refenced,
)
from .relations import extend_to_total
from .semantics import ObjectSemantics
from .synthesis import scheduling_precedence

__all__ = ["to_dual_tso", "to_tso", "erase_fences"]


def _checked_fence_free(x: AbstractExecution, semantics: ObjectSemantics) -> None:
    fenced = sorted(e.id for e in x.history.events if e.fences)
    if fenced:
        raise HistoryError(
            f"transformation requires a fence-free history; fenced: {fenced}"
        )
    rep = check_axioms(x, semantics)
    if rep.structural:
        raise HistoryError("; ".join(rep.structural))
    if not rep.ok:
        raise HistoryError(f"input fails axioms: {', '.join(rep.failed())}")


def _refenced(x: AbstractExecution, fences: frozenset[str], rt) -> AbstractExecution:
    return AbstractExecution(refenced(x.history, lambda e: fences, rt), x.vis, x.ar)


def to_dual_tso(x: AbstractExecution, semantics: ObjectSemantics) -> AbstractExecution:
    """The all-push form: every event push-fenced, returns-before set to the
    arbitration order, visibility and arbitration unchanged.  That it
    passes the axioms is a theorem, checked by test_all_push_form and
    test_criterion_5_fence_transforms rather than here."""
    _checked_fence_free(x, semantics)
    return _refenced(x, frozenset({PUSH}), x.ar.as_relation())


def to_tso(x: AbstractExecution, semantics: ObjectSemantics) -> AbstractExecution:
    """The all-pull form: every event pull-fenced, returns-before set to a
    deterministic total extension of visibility joined with the scheduling
    precedence of the all-pull image (lexicographic tie-break).  That the
    union is acyclic and the form passes the axioms are theorems, checked
    by test_all_pull_form and test_criterion_5_fence_transforms rather
    than here."""
    _checked_fence_free(x, semantics)
    image = _refenced(x, frozenset({PULL}), x.history.rt)
    rt = extend_to_total(x.vis | scheduling_precedence(image)).as_relation()
    return _refenced(x, frozenset({PULL}), rt)
