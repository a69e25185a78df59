"""Histories and abstract executions for the shared-log consistency models.

A history records what clients observed: per-session sequences of events,
each event an operation on a named object together with its return value and
its fence requests, plus a returns-before relation ``rt`` (an interval order
containing session order).  An abstract execution adds the two explanatory
relations: visibility (which events an event's client had in its logs) and
arbitration (the order the shared log ends up in).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .relations import Relation, TotalOrder

PUSH = "push"
PULL = "pull"
FENCE_KINDS = frozenset({PUSH, PULL})

# Each model's fences for an update and for a read-only op.  gsc fixes
# none: its events keep the fences they carry.  A preset whose two entries
# differ needs semantics that classify updates.
_PRESETS: dict[str, tuple[frozenset[str], frozenset[str]] | None] = {
    "gsc": None,
    "gsp": (frozenset(), frozenset()),
    "tso": (frozenset({PULL}), frozenset({PULL})),
    "dual_tso": (frozenset({PUSH}), frozenset({PUSH})),
    "osc": (FENCE_KINDS, frozenset({PUSH})),
    "lin": (FENCE_KINDS, FENCE_KINDS),
}
MODELS = tuple(_PRESETS)


class HistoryError(ValueError):
    """A structurally invalid history or execution was supplied."""


Rval = None | int | tuple[int, ...]


class Op(NamedTuple):
    """An operation descriptor: a kind plus an optional integer argument.

    A named tuple, so that states and events holding it hash in C."""

    kind: str
    value: int | None = None

    def __str__(self) -> str:
        return self.kind if self.value is None else f"{self.kind}({self.value})"


@dataclass(frozen=True)
class Event:
    id: str
    client: str
    obj: str
    op: Op
    rval: Rval
    fences: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.fences <= FENCE_KINDS:
            raise HistoryError(f"unknown fences {set(self.fences) - FENCE_KINDS}")
        if isinstance(self.rval, list):
            object.__setattr__(self, "rval", tuple(self.rval))

    def with_fences(self, fences: Iterable[str]) -> "Event":
        return Event(self.id, self.client, self.obj, self.op, self.rval, frozenset(fences))


@dataclass(frozen=True)
class Interval:
    """A real-time activity span; ``rt`` holds between disjoint spans."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise HistoryError(f"interval must have start < end, got [{self.start}, {self.end}]")


def rt_from_intervals(assignment: Mapping[str, Interval]) -> Relation:
    """e before f iff e's interval ends strictly before f's begins."""
    ids = frozenset(assignment)
    pairs = frozenset(
        (a, b)
        for a in ids
        for b in ids
        if a != b and assignment[a].end < assignment[b].start
    )
    return Relation(ids, pairs)


@dataclass(frozen=True)
class History:
    """Events grouped into per-client sessions plus a returns-before order.

    ``sessions`` is canonically sorted by client name; ``events`` follows the
    session layout.  ``so`` (session order) is derived and stored for
    convenience.  Use :func:`make_history`; the raw constructor does not
    validate.

    A history caches what it derives from its fields alone, once, in its
    instance dict: the structure verdict (``_violations``), whether it is in
    the client:index layout (``_in_client_index_layout``, read by
    ``canonical``) and the law index (``index``).  None of them is pickled.
    """

    events: tuple[Event, ...]
    sessions: tuple[tuple[str, tuple[str, ...]], ...]
    rt: Relation
    so: Relation

    # -- access helpers ----------------------------------------------------

    @property
    def ids(self) -> frozenset[str]:
        return frozenset(e.id for e in self.events)

    @property
    def by_id(self) -> dict[str, Event]:
        return {e.id: e for e in self.events}

    @property
    def clients(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.sessions)

    def objects(self) -> tuple[str, ...]:
        return tuple(sorted({e.obj for e in self.events}))

    def pushers(self) -> frozenset[str]:
        return frozenset(e.id for e in self.events if PUSH in e.fences)

    def pullers(self) -> frozenset[str]:
        return frozenset(e.id for e in self.events if PULL in e.fences)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        # cached_property writes the instance dict, which frozen allows
        return tuple(_check_structure(self))

    def __getstate__(self) -> dict:
        """The fields alone: the cached verdicts and index are rebuilt when
        read, and the index may hold a semantics that does not pickle."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def index(self) -> "EventIndex":
        """The rows every law decision reads, built once per history; only
        meaningful for a history without structural violations."""
        return EventIndex(self)

    def renamed(self, mapping: Mapping[str, str]) -> "History":
        """Rename event ids (bijectively) without touching anything else."""
        if sorted(mapping) != sorted(self.ids) or len(set(mapping.values())) != len(mapping):
            raise HistoryError("renaming must be a bijection on the event ids")
        events = tuple(
            Event(mapping[e.id], e.client, e.obj, e.op, e.rval, e.fences) for e in self.events
        )
        sessions = {c: [mapping[i] for i in ids] for c, ids in self.sessions}
        dom = frozenset(mapping.values())
        rt = Relation(dom, frozenset((mapping[a], mapping[b]) for a, b in self.rt.pairs))
        return make_history(events, sessions, rt)

    @cached_property
    def _in_client_index_layout(self) -> bool:
        """Clients increasing (so the ids are distinct), session c listing
        c:0, c:1, ..., the events in that order, and rt over exactly them:
        make_history's layout of a canonical history, checked without a set
        and once per history."""
        events, domain, last = iter(self.events), self.rt.domain, ""
        for client, ids in self.sessions:
            if client <= last:
                return False
            last = client
            for i, eid in enumerate(ids):
                e = next(events, None)
                if e is None or e.id != eid or eid != f"{client}:{i}" or eid not in domain:
                    return False
        return next(events, None) is None and len(domain) == len(self.events)

    def canonical(self) -> "History":
        """Rename ids to the deterministic client:index scheme.  A history
        already in that layout is returned as it is, since renaming would
        rebuild an equal history; every explored history is one.  The
        layout verdict is cached, so the executions that share a history
        check it once."""
        if self._in_client_index_layout:
            return self
        return self.renamed({eid: f"{client}:{i}"
                             for client, ids in self.sessions for i, eid in enumerate(ids)})

    def sort_key(self):
        """A total, deterministic ordering key (events then rt pairs)."""
        return (
            tuple(
                (e.id, e.client, e.obj, e.op.kind, repr(e.op.value),
                 repr(e.rval), tuple(sorted(e.fences)))
                for e in self.events
            ),
            sorted(self.rt.pairs),
        )


class EventIndex:
    """A history's events as bit positions, in their order in ``events``,
    with the rows the law engines read.  so[i] and rt[i] are the masks of
    event i's session-order and real-time predecessors, so_pairs and
    rt_pairs the same relations as the positions of their sources and of
    their targets (``zip(*so_pairs)`` lists the pairs), same[i] the mask
    of the events on i's object, and pushers and pullers the masks of the
    events with each fence.  Fences are part of it, so a refenced history
    gets an index of its own.  retval is where ``axioms`` keeps the part
    of the return-value law that depends on the history and the semantics
    only."""

    __slots__ = ("events", "ids", "pos", "domain", "so", "rt", "so_pairs", "rt_pairs",
                 "same", "pushers", "pullers", "retval")

    def __init__(self, h: History) -> None:
        self.events = events = h.events
        self.ids = ids = tuple(e.id for e in events)
        self.pos = pos = {a: i for i, a in enumerate(ids)}
        self.domain = h.rt.domain  # the ids, in a valid history
        # pairs as a tuple of sources and one of targets: a third of the
        # memory of a tuple per pair, on an index every history keeps
        self.so_pairs = so_pairs = (tuple(pos[a] for a, _ in h.so.pairs),
                                    tuple(pos[b] for _, b in h.so.pairs))
        self.rt_pairs = rt_pairs = (tuple(pos[a] for a, _ in h.rt.pairs),
                                    tuple(pos[b] for _, b in h.rt.pairs))
        self.so, self.rt = so, rt = [0] * len(ids), [0] * len(ids)
        for i, j in zip(*so_pairs):
            so[j] |= 1 << i
        for i, j in zip(*rt_pairs):
            rt[j] |= 1 << i
        objects: dict[str, int] = {}
        pushers = pullers = 0
        for i, e in enumerate(events):
            objects[e.obj] = objects.get(e.obj, 0) | 1 << i
            if e.fences:
                if PUSH in e.fences:
                    pushers |= 1 << i
                if PULL in e.fences:
                    pullers |= 1 << i
        self.pushers, self.pullers = pushers, pullers
        self.same = [objects[e.obj] for e in events]
        self.retval = None

    def mask(self, ids: Iterable[str]) -> int:
        """The mask of the positions of ids."""
        pos = self.pos
        return sum(1 << pos[a] for a in ids)

    def names(self, mask: int) -> list[str]:
        """The ids at the set bits of mask, sorted."""
        return sorted(a for i, a in enumerate(self.ids) if mask >> i & 1)


def session_order(sessions: Mapping[str, Sequence[str]], domain: Iterable[str]) -> Relation:
    """Each session's ordered pairs; an id outside ``domain`` gets none, for
    :func:`validate_history` to name with its session."""
    domain = frozenset(domain)
    return Relation(domain, frozenset(
        p for ids in sessions.values() for p in combinations([i for i in ids if i in domain], 2)))


def make_history(
    events: Iterable[Event],
    sessions: Mapping[str, Sequence[str]],
    rt: Relation | Mapping[str, Interval],
) -> History:
    """Assemble a history in canonical layout.  Does not validate; see
    :func:`validate_history`."""
    evs = list(events)
    sess = tuple(
        (client, tuple(sessions[client])) for client in sorted(sessions) if sessions[client]
    )
    order = {eid: (ci, i) for ci, (_, ids) in enumerate(sess) for i, eid in enumerate(ids)}
    evs.sort(key=lambda e: order.get(e.id, (len(sess), e.id)))
    if not isinstance(rt, Relation):
        rt = rt_from_intervals(rt)
    ids = frozenset(e.id for e in evs)
    so = session_order(dict(sess), ids)
    return History(tuple(evs), sess, rt, so)


def validate_history(h: History) -> list[str]:
    """Structural checks; returns human-readable violations (empty = valid).
    The checks run once per history; each call returns a fresh list."""
    return list(h._violations)


def _check_structure(h: History) -> list[str]:
    out: list[str] = []
    ids = [e.id for e in h.events]
    first = {e.id: e for e in reversed(h.events)}  # the first event of each id
    if len(ids) != len(first):
        out.append("duplicate event ids")
    listed: list[str] = []
    for client, sess_ids in h.sessions:
        listed.extend(sess_ids)
        for eid in sess_ids:
            if eid not in first:
                out.append(f"session {client} lists unknown event {eid}")
            elif first[eid].client != client:
                out.append(f"event {eid} filed under session {client} but carries "
                           f"client {first[eid].client}")
    if sorted(listed) != sorted(ids):
        out.append("sessions do not partition the event set")
    if h.rt.domain != frozenset(first):
        out.append("rt domain differs from the event set")
        return out
    if not h.rt.is_interval_order():
        out.append("rt not interval order")
    missing = h.so.pairs - h.rt.pairs
    if missing:
        a, b = min(missing)
        out.append(f"so not contained in rt: ({a}, {b})")
    return out


def project(h: History, obj: str) -> History:
    """The sub-history of events on one object (sessions restricted, empty
    sessions dropped, rt induced)."""
    keep = [e for e in h.events if e.obj == obj]
    keep_ids = {e.id for e in keep}
    sessions = {
        client: [i for i in ids if i in keep_ids]
        for client, ids in h.sessions
        if any(i in keep_ids for i in ids)
    }
    return make_history(keep, sessions, h.rt.restrict(keep_ids))


def refenced(h: History, fences_of: Callable[[Event], Iterable[str]],
             rt: Relation | Mapping[str, Interval] | None = None) -> History:
    """h with each event e's fences replaced by ``fences_of(e)``, and its
    returns-before order by ``rt`` when given.  Without a new ``rt`` the
    result keeps h's layout, so it keeps h's structure and layout verdicts
    too, since neither reads a fence; the index is not kept, as its push
    and pull masks are the fences."""
    events = tuple(e.with_fences(fences_of(e)) for e in h.events)
    if rt is not None:
        return make_history(events, dict(h.sessions), rt)
    out = History(events, h.sessions, h.rt, h.so)
    out.__dict__["_violations"] = h._violations
    out.__dict__["_in_client_index_layout"] = h._in_client_index_layout
    return out


def set_all_fences(h: History, fences: Iterable[str]) -> History:
    fen = frozenset(fences)
    return refenced(h, lambda e: fen)


def erase_fences(h: History) -> History:
    return set_all_fences(h, ())


def is_well_fenced(h: History) -> tuple[bool, tuple[str, str] | None]:
    """Whether every cross-object session pair is separated by a push of the
    first object followed by a pull of the second, within the session.

    Returns (verdict, offending pair or None).  The offending pair is the
    first (in session order) e before f on different objects with no such
    fence pair between them.  Only the earliest push of e's object at or
    after e needs trying: it leaves the widest window for the pull.
    """
    by_id = h.by_id
    for _, ids in h.sessions:
        session = [by_id[i] for i in ids]
        for i, e in enumerate(session):
            pushed, pulled = False, set()
            for f in session[i:]:
                if pushed and PULL in f.fences:
                    pulled.add(f.obj)
                if f.obj != e.obj and f.obj not in pulled:
                    return False, (e.id, f.id)
                pushed = pushed or (PUSH in f.fences and f.obj == e.obj)
    return True, None


@dataclass(frozen=True)
class AbstractExecution:
    """A history together with acyclic visibility and total arbitration."""

    history: History
    vis: Relation
    ar: TotalOrder

    def structural_violations(self) -> list[str]:
        out = validate_history(self.history)
        ids = self.history.ids
        if self.vis.domain != ids:
            out.append("vis domain differs from the event set")
            return out
        if frozenset(self.ar.sequence) != ids:
            out.append("ar does not enumerate the event set")
            return out
        before = self.ar.before
        extra = [p for p in self.vis.pairs if not before(*p)]
        # inside a strict total order vis is acyclic
        if extra and not self.vis.is_acyclic():
            out.append("vis cyclic")
        if extra:
            a, b = min(extra)
            out.append(f"vis not contained in ar: ({a}, {b})")
        return out


# -- fence presets ---------------------------------------------------------


def normalize_model(model: str) -> str:
    """The preset name a model is spelled as (any case, ``-`` or ``_``)."""
    m = model.replace("-", "_").lower()
    if m not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    return m


def _preset(model: str, semantics) -> Callable[[Event], frozenset[str]] | None:
    """Each event's fences under the model's preset; None under gsc."""
    m = normalize_model(model)
    if _PRESETS[m] is None:
        return None
    update, read_only = _PRESETS[m]
    if update == read_only:
        return lambda e: update
    if semantics is None or semantics.classify is None:
        raise ValueError(f"{m} preset needs semantics with a classifier")
    return lambda e: update if semantics.is_update(e.op) else read_only


def check_fence_preset(h: History, model: str, semantics=None) -> bool:
    """Whether every event carries the fences its model preset mandates.

    An empty preset entry (gsp) demands exactly no fences; the others
    demand at least the tabled fences.  gsc demands nothing.
    """
    fences_of = _preset(model, semantics)
    return fences_of is None or all(
        need <= e.fences if (need := fences_of(e)) else not e.fences for e in h.events)


def apply_fence_preset(h: History, model: str, semantics=None) -> History:
    """Rewrite every event's fences to the model's canonical preset; under
    gsc, ``h`` itself."""
    fences_of = _preset(model, semantics)
    return h if fences_of is None else refenced(h, fences_of)
