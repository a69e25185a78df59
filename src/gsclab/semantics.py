"""Sequential object semantics.

An object's behaviour is a pure function from the sequence of operations
already applied to it to the return value of the next operation.  Two
built-ins are provided: an append/read sequence object (reads return the
full list of appended values) and a last-writer-wins register.  The sequence
object additionally knows how to decode visibility from a read's return
value, which lets the membership search seed a read's visible appends up
front instead of branching on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .model import Op, Rval

UPDATE = "update"
READ_ONLY = "read-only"

Decoder = Callable[[Op, Rval, Sequence[tuple[str, Op]]], tuple[tuple[str, ...], ...] | None]


@dataclass(frozen=True)
class ObjectSemantics:
    """A named object type.

    eval(context, op) -> rval, where context is the same-object operation
    sequence before op.  classify labels operations update / read-only (and
    promises eval ignores read-only context entries).  context_sensitive
    says whether an operation's rval depends on its context at all;
    context-insensitive operations never constrain visibility.
    decode_visibility, when present, inverts eval: given an operation, its
    rval and the candidate (event id, op) pairs on the same object, it
    returns every update subset + order that evaluates to the rval, as a
    tuple of id tuples (empty tuple = no explanation, i.e. unattainable).
    """

    name: str
    eval: Callable[[Sequence[Op], Op], Rval]
    classify: Callable[[Op], str] | None = None
    context_sensitive: Callable[[Op], bool] = lambda op: True
    decode_visibility: Decoder | None = None

    def is_update(self, op: Op) -> bool:
        if self.classify is None:
            return True
        return self.classify(op) == UPDATE


# -- sequence object ---------------------------------------------------------


def eval_sequence(context: Sequence[Op], op: Op) -> Rval:
    if op.kind == "append":
        return None
    if op.kind == "read":
        return tuple([c.value for c in context if c.kind == "append"])
    raise ValueError(f"sequence object does not implement {op.kind!r}")


def classify_sequence(op: Op) -> str:
    if op.kind == "append":
        return UPDATE
    if op.kind == "read":
        return READ_ONLY
    raise ValueError(f"sequence object does not implement {op.kind!r}")


def _decode_sequence(op: Op, rval: Rval, candidates: Sequence[tuple[str, Op]]
                     ) -> tuple[tuple[str, ...], ...] | None:
    """Invert a read: the appends whose values the read returned, in order.

    With distinct append values per object the explanation is unique; with
    duplicates every matching assignment is returned.  None for non-reads
    (no constraint); empty tuple when the rval names a value with no
    matching append (unattainable).
    """
    if op.kind != "read":
        return None
    if not isinstance(rval, tuple):
        return ()
    want = rval
    appends = [(eid, o) for eid, o in candidates if o.kind == "append"]
    by_value: dict[int, list[str]] = {}
    for eid, o in appends:
        by_value.setdefault(o.value, []).append(eid)

    out: list[tuple[str, ...]] = []

    def assign(i: int, chosen: list[str]) -> None:
        if i == len(want):
            out.append(tuple(chosen))
            return
        for eid in by_value.get(want[i], ()):
            if eid not in chosen:
                chosen.append(eid)
                assign(i + 1, chosen)
                chosen.pop()

    assign(0, [])
    return tuple(out)


SEQUENCE = ObjectSemantics(
    name="sequence",
    eval=eval_sequence,
    classify=classify_sequence,
    context_sensitive=lambda op: op.kind == "read",
    decode_visibility=_decode_sequence,
)


# -- last-writer-wins register -----------------------------------------------


def eval_register(context: Sequence[Op], op: Op) -> Rval:
    if op.kind == "write":
        return None
    if op.kind == "read":
        value = None
        for c in context:
            if c.kind == "write":
                value = c.value
        return value
    raise ValueError(f"register does not implement {op.kind!r}")


def classify_register(op: Op) -> str:
    if op.kind == "write":
        return UPDATE
    if op.kind == "read":
        return READ_ONLY
    raise ValueError(f"register does not implement {op.kind!r}")


REGISTER = ObjectSemantics(
    name="register",
    eval=eval_register,
    classify=classify_register,
    context_sensitive=lambda op: op.kind == "read",
)


SEMANTICS: dict[str, ObjectSemantics] = {s.name: s for s in (SEQUENCE, REGISTER)}


def get_semantics(name: str) -> ObjectSemantics:
    try:
        return SEMANTICS[name]
    except KeyError:
        raise ValueError(f"unknown semantics {name!r}; expected one of {sorted(SEMANTICS)}")
