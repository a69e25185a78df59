"""Canonical litmus histories with frozen verdicts, shared by every suite.

Each fixture is a small multi-client history over append/read sequence
objects whose membership verdict under every fence preset is known and
pinned here.  The five canonical names are part of the tool's interface:

  fig3a  stale read: both appends propagate late; each reader sees its own
         client's append but only one sees both
  fig3b  reordered appends: the shared log orders two appends against their
         real-time order
  fig3c  store buffering: two clients each miss the other's unpushed append
  fig3d  long fork: two observers disagree on the order of two independent
         appends (never allowed, though both per-object projections are)
  fig5   unfenced handoff: a client reads one object then another with only
         a pull fence, missing an append it transitively depends on

Behavioural aliases (stale_read, reordered_appends, store_buffering,
long_fork, unfenced_handoff) resolve to the same fixtures.

fig3a, fig3b and fig3c are defined by their golden schedules, each a
prefix and its ``flush_suffix``: the history, the witness execution and
the server order of each are those of the schedule's replay through the
log protocol (sequence semantics), so the protocol produces each of them
by construction.  fig3d and fig5 are
stated as interval histories, fig5 with a hand-written witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import (
    PULL,
    AbstractExecution,
    Event,
    History,
    Interval,
    Op,
    make_history,
)
from .protocol import (
    Schedule,
    body,
    call,
    extract_execution,
    flush_suffix,
    pull,
    push,
    ret,
    run_schedule,
)
from .relations import Relation, TotalOrder
from .semantics import SEQUENCE

FIXTURE_NAMES = ("fig3a", "fig3b", "fig3c", "fig3d", "fig5")

ALIASES = {
    "stale_read": "fig3a",
    "reordered_appends": "fig3b",
    "store_buffering": "fig3c",
    "long_fork": "fig3d",
    "unfenced_handoff": "fig5",
}


@dataclass(frozen=True)
class Fixture:
    """A named history plus its pinned verdict per fence preset.

    ``membership[model]`` is the expected membership verdict after applying
    that model's fence preset.  ``schedule`` (when present) defines the
    fixture: ``history`` and ``witness`` are its replay's, and
    ``server_order`` is the server log the replay leaves.
    """

    name: str
    alias: str
    history: History
    membership: Mapping[str, bool]
    witness: AbstractExecution | None = None
    schedule: Schedule | None = None
    server_order: tuple[str, ...] | None = None
    description: str = ""


def _append(val: int) -> Op:
    return Op("append", val)


_READ = Op("read")


def _ev(eid: str, client: str, obj: str, op: Op, rval, fences=()) -> Event:
    return Event(eid, client, obj, op, rval, frozenset(fences))


# --- histories -------------------------------------------------------------


def _long_fork_history() -> History:
    events = [
        _ev("a", "C1", "x", _append(1), None),
        _ev("b", "C2", "y", _append(1), None),
        _ev("c1", "C3", "x", _READ, (1,)),
        _ev("c2", "C3", "y", _READ, ()),
        _ev("d1", "C4", "y", _READ, (1,)),
        _ev("d2", "C4", "x", _READ, ()),
    ]
    sessions = {"C1": ["a"], "C2": ["b"], "C3": ["c1", "c2"], "C4": ["d1", "d2"]}
    intervals = {
        "a": Interval(0, 1),
        "b": Interval(0, 1),
        "c1": Interval(2, 3),
        "d1": Interval(2, 3),
        "c2": Interval(4, 5),
        "d2": Interval(4, 5),
    }
    return make_history(events, sessions, intervals)


def _unfenced_handoff_history() -> History:
    events = [
        _ev("f", "C1", "x", _append(1), None),
        _ev("e", "C2", "y", _append(2), None),
        _ev("p", "C3", "y", _READ, (2,)),
        _ev("g", "C3", "x", _READ, (), fences={PULL}),
    ]
    sessions = {"C1": ["f"], "C2": ["e"], "C3": ["p", "g"]}
    intervals = {
        "f": Interval(0, 1),
        "e": Interval(0, 1),
        "p": Interval(2, 3),
        "g": Interval(4, 5),
    }
    return make_history(events, sessions, intervals)


# --- golden schedules ------------------------------------------------------


def _stale_read_prefix() -> Schedule:
    return Schedule((
        call("A", "x", _append(1), id="e1"),
        call("B", "x", _append(2), id="f1"),
        body("A"),
        body("B"),
        ret("A"),
        ret("B"),
        push("A"),
        push("B"),
        pull("A"),
        pull("A"),
        call("A", "x", _READ, id="e2"),
        body("A"),
        ret("A"),
        call("B", "x", _READ, id="f2"),
        body("B"),
        ret("B"),
    ))


def _reordered_appends_prefix() -> Schedule:
    return Schedule((
        call("A", "x", _append(1), id="e1"),
        body("A"),
        ret("A"),
        call("B", "x", _append(2), id="f1"),
        body("B"),
        ret("B"),
        push("B"),
        push("A"),
        pull("B"),
        pull("B"),
        call("B", "x", _READ, id="f2"),
        body("B"),
        ret("B"),
    ))


def _store_buffering_prefix() -> Schedule:
    return Schedule((
        call("A", "x", _append(1), id="e1"),
        call("B", "y", _append(1), id="f1"),
        body("A"),
        body("B"),
        ret("A"),
        ret("B"),
        call("A", "y", _READ, id="e2"),
        call("B", "x", _READ, id="f2"),
        body("A"),
        body("B"),
        ret("A"),
        ret("B"),
    ))


# --- assembly --------------------------------------------------------------


def _golden(name: str, alias: str, prefix: Schedule, membership: Mapping[str, bool],
            description: str) -> Fixture:
    """The fixture its golden schedule defines: the schedule is ``prefix``
    followed by the ``flush_suffix`` of the world it reaches, and history,
    witness and server order are those of the schedule's replay."""
    tail = flush_suffix(run_schedule(prefix, SEQUENCE).world)
    schedule = Schedule(prefix.steps + tuple(tail))
    x = extract_execution(run_schedule(schedule, SEQUENCE))
    return Fixture(name, alias, x.history, membership, x, schedule, x.ar.sequence,
                   description)


def _handoff_witness(h: History) -> AbstractExecution:
    vis = Relation.from_pairs(h.ids, [("p", "g"), ("e", "p"), ("e", "g")])
    ar = TotalOrder(("e", "p", "f", "g"))
    return AbstractExecution(h, vis, ar)


def _build() -> dict[str, Fixture]:
    out: dict[str, Fixture] = {}
    out["fig3a"] = _golden(
        "fig3a", "stale_read", _stale_read_prefix(),
        {
            "gsc": True, "gsp": True, "tso": False,
            "dual_tso": True, "osc": False, "lin": False,
        },
        "two racing appends; one reader sees both, the other only its own",
    )
    out["fig3b"] = _golden(
        "fig3b", "reordered_appends", _reordered_appends_prefix(),
        {
            "gsc": True, "gsp": True, "tso": True,
            "dual_tso": False, "osc": False, "lin": False,
        },
        "the log orders two appends against their real-time order",
    )
    out["fig3c"] = _golden(
        "fig3c", "store_buffering", _store_buffering_prefix(),
        {
            "gsc": True, "gsp": True, "tso": True,
            "dual_tso": True, "osc": False, "lin": False,
        },
        "both clients read the other object before either append lands",
    )

    h = _long_fork_history()
    out["fig3d"] = Fixture(
        name="fig3d",
        alias="long_fork",
        history=h,
        membership={
            "gsc": False, "gsp": False, "tso": False,
            "dual_tso": False, "osc": False, "lin": False,
        },
        description="two observers disagree on the order of independent appends",
    )

    h = _unfenced_handoff_history()
    out["fig5"] = Fixture(
        name="fig5",
        alias="unfenced_handoff",
        history=h,
        membership={
            "gsc": True, "gsp": True, "tso": True,
            "dual_tso": True, "osc": True, "lin": False,
        },
        witness=_handoff_witness(h),
        description="a pull-fenced read crosses objects; well-fencing fails on (p, g)",
    )
    return out


_REGISTRY: dict[str, Fixture] | None = None


def _registry() -> dict[str, Fixture]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build()
    return _REGISTRY


def fixture(name: str) -> Fixture:
    """Look up a fixture by canonical name or behavioural alias."""
    key = ALIASES.get(name, name)
    reg = _registry()
    if key not in reg:
        known = ", ".join(list(FIXTURE_NAMES) + sorted(ALIASES))
        raise KeyError(f"unknown fixture {name!r}; known: {known}")
    return reg[key]


def all_fixtures() -> tuple[Fixture, ...]:
    return tuple(_registry()[n] for n in FIXTURE_NAMES)
