"""Simulator for the shared-log client/server protocol.

One server holds a totally ordered log of (event id, object, operation)
entries.  Each client keeps three local logs: ``known`` (a prefix of the
server log it has pulled), ``unacked`` (entries it pushed but has not seen
echoed back), and ``pending`` (entries not yet pushed).  Executing an
operation evaluates it against the concatenation known+unacked+pending
restricted to the operation's object, then appends a fresh entry to pending.
A push fence flushes pending inside the execution; a pull fence first runs
pulls until known covers the whole server log.

Schedules are explicit token sequences: call/body/ret triples per event and
push/pull transitions per client, where a client's own push/pull never sits
between its call and ret.  Disabled transitions are errors, never no-ops.

``run_schedule`` and ``explore`` fold tokens the same way: each ``ret``
yields an ``EventRecord`` and each ``call`` adds its returned-before pairs,
and one builder turns the records into a history and an execution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .model import (
    PULL,
    PUSH,
    AbstractExecution,
    Event,
    History,
    HistoryError,
    Op,
    Rval,
    make_history,
)
from .relations import Relation, TotalOrder
from .semantics import ObjectSemantics

Entry = tuple[str, str, Op]  # (event id, object, operation)


class ScheduleError(ValueError):
    """Malformed schedule or disabled transition."""


class EnumerationCapError(RuntimeError):
    """The bounded exploration exceeded its configured budget."""


# -- tokens and schedules ----------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str
    client: str
    obj: str | None = None
    op: Op | None = None
    fences: frozenset[str] = frozenset()
    id: str | None = None


def call(client: str, obj: str, op: Op, fences: Iterable[str] = (), id: str | None = None) -> Token:
    return Token("call", client, obj, op, frozenset(fences), id)


def body(client: str) -> Token:
    return Token("body", client)


def ret(client: str) -> Token:
    return Token("ret", client)


def push(client: str) -> Token:
    return Token("push", client)


def pull(client: str) -> Token:
    return Token("pull", client)


@dataclass(frozen=True)
class Schedule:
    steps: tuple[Token, ...]

    def __iter__(self) -> Iterator[Token]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def validate_schedule(schedule: Schedule) -> list[str]:
    """Grammar check: per client (call body ret)* with push/pull outside the
    call..ret window; call tokens complete; event ids unique, where a call
    without an explicit id takes ``client:index`` with index its client's
    call count so far."""
    out: list[str] = []
    phase: dict[str, str] = {}
    calls: dict[str, int] = {}
    ids_seen: set[str] = set()
    for i, t in enumerate(schedule):
        p = phase.get(t.client, "idle")
        if t.kind == "call":
            if t.obj is None or t.op is None:
                out.append(f"step {i}: call without obj/op")
            index = calls.get(t.client, 0)
            calls[t.client] = index + 1
            eid = t.id if t.id is not None else f"{t.client}:{index}"
            if eid in ids_seen:
                kind = "explicit event id" if t.id is not None else "event id"
                out.append(f"step {i}: duplicate {kind} {eid}")
            ids_seen.add(eid)
            if p != "idle":
                out.append(f"step {i}: call({t.client}) while an exec is in progress")
            phase[t.client] = "called"
        elif t.kind == "body":
            if p != "called":
                out.append(f"step {i}: body({t.client}) without a pending call")
            phase[t.client] = "evaluated"
        elif t.kind == "ret":
            if p != "evaluated":
                out.append(f"step {i}: ret({t.client}) without an evaluated body")
            phase[t.client] = "idle"
        elif t.kind in ("push", "pull"):
            if p != "idle":
                out.append(f"step {i}: {t.kind}({t.client}) between call and ret")
        else:
            out.append(f"step {i}: unknown token kind {t.kind!r}")
    for c, p in sorted(phase.items()):
        if p != "idle":
            out.append(f"client {c} left mid-execution")
    return out


# -- world state -------------------------------------------------------------


class Frame(NamedTuple):
    event_id: str
    obj: str
    op: Op
    fences: frozenset[str]
    done: bool = False
    rval: Rval = None
    view: frozenset[str] = frozenset()


class ClientState(NamedTuple):
    known_len: int = 0
    unacked: tuple[Entry, ...] = ()
    pending: tuple[Entry, ...] = ()
    frame: Frame | None = None
    next_index: int = 0


class World(NamedTuple):
    """The server log and each client's state, by sorted client name.

    The state types are named tuples so that the explorer's ``seen`` set
    hashes and compares them in C."""

    server: tuple[Entry, ...]
    clients: tuple[tuple[str, ClientState], ...]

    @staticmethod
    def initial(client_names: Iterable[str]) -> "World":
        return World((), tuple((c, ClientState()) for c in sorted(client_names)))

    def client(self, name: str) -> ClientState:
        for c, st in self.clients:
            if c == name:
                return st
        raise KeyError(name)

    def replace_client(self, name: str, st: ClientState) -> "World":
        return World(self.server, tuple((c, st if c == name else old) for c, old in self.clients))

    def quiescent(self) -> bool:
        return all(
            st.frame is None and not st.pending and st.known_len == len(self.server)
            for _, st in self.clients
        )


def _push(world: World, c: str) -> World:
    st = world.client(c)
    if not st.pending:
        raise ScheduleError(f"push({c}) not enabled: pending empty")
    entry, rest = st.pending[0], st.pending[1:]
    return World(world.server + (entry,), world.clients).replace_client(
        c, ClientState(st.known_len, st.unacked + (entry,), rest, st.frame, st.next_index)
    )


def _pull(world: World, c: str) -> World:
    st = world.client(c)
    if st.known_len >= len(world.server):
        raise ScheduleError(f"pull({c}) not enabled: known equals server log")
    entry = world.server[st.known_len]
    unacked = st.unacked
    if unacked and unacked[0] == entry:
        unacked = unacked[1:]
    elif entry in unacked:
        raise AssertionError("pulled own entry out of push order")
    return world.replace_client(
        c, ClientState(st.known_len + 1, unacked, st.pending, st.frame, st.next_index)
    )


class EventRecord(NamedTuple):
    """A returned event: what its body evaluated and saw, and ``index``, its
    position in its client's session."""

    id: str
    client: str
    obj: str
    op: Op
    fences: frozenset[str]
    rval: Rval
    view: frozenset[str]
    index: int


def _body(world: World, c: str, semantics: ObjectSemantics) -> World:
    st = world.client(c)
    if st.frame is None or st.frame.done:
        raise ScheduleError(f"body({c}) not enabled")
    fr = st.frame
    if PULL in fr.fences:
        while world.client(c).known_len < len(world.server):
            world = _pull(world, c)
        st = world.client(c)
    logs = world.server[: st.known_len] + st.unacked + st.pending
    view = frozenset(eid for eid, _, _ in logs)
    context = tuple(op for _, obj, op in logs if obj == fr.obj)
    rval = semantics.eval(context, fr.op)
    entry: Entry = (fr.event_id, fr.obj, fr.op)
    st = ClientState(st.known_len, st.unacked, st.pending + (entry,),
                     Frame(fr.event_id, fr.obj, fr.op, fr.fences, True, rval, view),
                     st.next_index)
    world = world.replace_client(c, st)
    if PUSH in fr.fences:
        while world.client(c).pending:
            world = _push(world, c)
    return world


def step(world: World, token: Token, semantics: ObjectSemantics
         ) -> tuple[World, EventRecord | None]:
    """Apply one token; a ``ret`` also gives the record of the event it
    returns.  Raises ScheduleError when the transition is disabled."""
    c = token.client
    if token.kind == "push":
        return _push(world, c), None
    if token.kind == "pull":
        return _pull(world, c), None
    if token.kind == "body":
        return _body(world, c, semantics), None
    st = world.client(c)
    if token.kind == "call":
        if st.frame is not None:
            raise ScheduleError(f"call({c}) while an exec is in progress")
        event_id = token.id if token.id is not None else f"{c}:{st.next_index}"
        fr = Frame(event_id, token.obj, token.op, token.fences)
        return world.replace_client(
            c, ClientState(st.known_len, st.unacked, st.pending, fr, st.next_index + 1)
        ), None
    if token.kind == "ret":
        fr = st.frame
        if fr is None or not fr.done:
            raise ScheduleError(f"ret({c}) not enabled")
        record = EventRecord(fr.event_id, c, fr.obj, fr.op, fr.fences, fr.rval, fr.view,
                             st.next_index - 1)
        return world.replace_client(
            c, ClientState(st.known_len, st.unacked, st.pending, None, st.next_index)
        ), record
    raise ScheduleError(f"unknown token kind {token.kind!r}")


# -- runs and their output -----------------------------------------------------


class _State(NamedTuple):
    """A run so far: the world, the returned events sorted by id, and the
    returned-before pairs, each added when its later event is called."""

    world: World
    done: tuple[EventRecord, ...]
    rt: frozenset[tuple[str, str]]


def _apply(state: _State, token: Token, semantics: ObjectSemantics) -> _State:
    world, record = step(state.world, token, semantics)
    done, rt = state.done, state.rt
    if token.kind == "call":
        new_id = world.client(token.client).frame.event_id
        rt = rt | frozenset((d.id, new_id) for d in done)
    elif record is not None:
        # Ids are unique, so the records sort by id alone.
        done = tuple(sorted(done + (record,)))
    return _State(world, done, rt)


def _history(events: tuple[EventRecord, ...], rt: frozenset[tuple[str, str]]) -> History:
    sessions: dict[str, list[str]] = {}
    for r in sorted(events, key=lambda r: r.index):
        sessions.setdefault(r.client, []).append(r.id)
    return make_history(
        [Event(r.id, r.client, r.obj, r.op, r.rval, r.fences) for r in events],
        sessions, Relation(frozenset(r.id for r in events), rt))


def _execution(h: History, events: tuple[EventRecord, ...],
               server: tuple[Entry, ...]) -> AbstractExecution:
    vis = Relation(h.ids, frozenset(
        (seen, r.id) for r in events for seen in r.view if seen != r.id
    ))
    return AbstractExecution(h, vis, TotalOrder(tuple(eid for eid, _, _ in server)))


@dataclass(frozen=True)
class SimRun:
    """A schedule's run: its returned events sorted by id, the final world,
    and the returned-before pairs (a ret earlier in the schedule than a
    call)."""

    schedule: Schedule
    events: tuple[EventRecord, ...]
    world: World
    rt: frozenset[tuple[str, str]]


def run_schedule(schedule: Schedule, semantics: ObjectSemantics,
                 clients: Iterable[str] = ()) -> SimRun:
    """Fold a schedule over the initial world.

    ``clients`` may add idle clients beyond those mentioned by the tokens.
    Grammar violations and disabled transitions raise ScheduleError with the
    offending step index.
    """
    problems = validate_schedule(schedule)
    if problems:
        raise ScheduleError("; ".join(problems))
    names = set(itertools.chain((t.client for t in schedule), clients))
    state = _State(World.initial(names), (), frozenset())
    for i, token in enumerate(schedule):
        try:
            state = _apply(state, token, semantics)
        except ScheduleError as exc:
            raise ScheduleError(f"step {i}: {exc}") from None
    return SimRun(schedule, state.done, state.world, state.rt)


def extract_history(run: SimRun) -> History:
    return _history(run.events, run.rt)


def extract_execution(run: SimRun) -> AbstractExecution:
    """History plus the visibility witnessed by each body and the final
    server-log arbitration.  Requires a quiescent final world."""
    if not run.world.quiescent():
        raise HistoryError("run not quiescent: flush pushes/pulls before extracting")
    return _execution(extract_history(run), run.events, run.world.server)


def flush_suffix(world: World) -> list[Token]:
    """Tokens that drive a world to quiescence: round-robin pushes over the
    sorted clients (FIFO within each), then pulls client by client."""
    out: list[Token] = []
    pend = {c: len(st.pending) for c, st in world.clients}
    while any(pend.values()):
        for c in sorted(pend):
            if pend[c]:
                out.append(push(c))
                pend[c] -= 1
    total = len(world.server) + sum(len(st.pending) for _, st in world.clients)
    for c, st in world.clients:
        for _ in range(total - st.known_len):
            out.append(pull(c))
    return out


def run_to_quiescence(schedule: Schedule, semantics: ObjectSemantics,
                      clients: Iterable[str] = ()) -> SimRun:
    """``run_schedule`` followed by the ``flush_suffix`` of its final world;
    the run's schedule includes the flush tokens."""
    run = run_schedule(schedule, semantics, clients)
    extra = flush_suffix(run.world)
    if not extra:
        return run
    world = run.world
    for token in extra:
        world, _ = step(world, token, semantics)
    return SimRun(Schedule(schedule.steps + tuple(extra)), run.events, world, run.rt)


# -- bounded exhaustive exploration --------------------------------------------

Program = tuple[tuple[str, Op, frozenset[str]], ...]  # (obj, op, fences) per event


def programs_of(h: History) -> dict[str, Program]:
    """The per-client programs a history's sessions spell out."""
    by_id = h.by_id
    return {
        client: tuple((by_id[i].obj, by_id[i].op, by_id[i].fences) for i in ids)
        for client, ids in h.sessions
    }


def _finished(world: World, programs: Mapping[str, Program]) -> set[str]:
    """The clients that have returned their last program event."""
    return {c for c, st in world.clients
            if st.frame is None and st.next_index == len(programs[c])}


def _terminal(world: World, programs: Mapping[str, Program]) -> bool:
    """Whether every client has returned its last program event."""
    return len(_finished(world, programs)) == len(world.clients)


def _moves(world: World, programs: Mapping[str, Program]) -> list[Token]:
    """The enabled tokens, client by client: the open event's body or
    return, else the next call, a push of pending work and a pull of unseen
    server entries."""
    out: list[Token] = []
    for c, st in world.clients:
        if st.frame is not None:
            out.append(body(c) if not st.frame.done else ret(c))
            continue
        if st.next_index < len(programs[c]):
            obj, op, fences = programs[c][st.next_index]
            out.append(call(c, obj, op, fences))
        if st.pending:
            out.append(push(c))
        if st.known_len < len(world.server):
            out.append(pull(c))
    return out


def _finish(state: _State, semantics: ObjectSemantics) -> tuple[History, AbstractExecution]:
    world = state.world
    for token in flush_suffix(world):
        if token.kind == "push":
            world, _ = step(world, token, semantics)
    h = _history(state.done, state.rt)
    return h, _execution(h, state.done, world.server)


def _target_tables(target: History | None):
    if target is None:
        return None
    rvals = {e.id: e.rval for e in target.events}
    rt_pairs = target.rt.pairs
    preds = {e.id: target.rt.predecessors(e.id) for e in target.events}
    return rvals, rt_pairs, preds


def explore(programs: Mapping[str, Program], semantics: ObjectSemantics,
            max_states: int = 2_000_000, target: History | None = None
            ) -> Iterator[tuple[History, AbstractExecution]]:
    """Depth-first walk of every schedule of the given programs, deduplicated
    by reachable state.  Each terminal state is driven to quiescence by a
    deterministic flush; yields one (history, execution) pair per distinct
    execution, in the order the walk first reaches it.

    The walk takes no pull of a finished client (no open event, program
    exhausted).  Such a client runs no more bodies, so nothing that reaches
    the output reads its known prefix or its unacked entries.  States keep
    only what the output and the future moves read:

    - a finished client is reset to its pending entries after each of its
      moves, since no body and no enabled move reads its other logs;
    - the returned events are kept sorted by id, since the rt rule and the
      output read them as a set.

    A terminal state then holds exactly what its output reads (server log,
    pending entries, returned events and rt), so deduplication by state
    flushes each distinct terminal once.  The flush applies only the pushes
    of ``flush_suffix``: the output reads the flushed server log alone, and
    pulls never change it.

    With ``target`` (canonical client:index ids) the walk prunes branches
    that provably cannot reproduce the target history: a wrong return value,
    an rt pair outside the target's, or a required rt pair already missed.
    All three conditions are monotone along a run, so pruning is sound.

    Raises EnumerationCapError, with the states seen, (distinct) terminal
    states reached and pairs emitted so far, once more than ``max_states``
    states are seen.
    """
    for c, prog in programs.items():
        for _, op, fences in prog:
            if not frozenset(fences) <= frozenset({PUSH, PULL}):
                raise ValueError(f"bad fences in program for {c}")
    tables = _target_tables(target)
    init = _State(World.initial(programs.keys()), (), frozenset())
    seen: set[_State] = {init}
    stack: list[_State] = [init]
    terminals = 0
    emitted: set[tuple[History, AbstractExecution]] = set()
    while stack:
        state = stack.pop()
        world = state.world
        finished = _finished(world, programs)
        if len(finished) == len(world.clients):
            terminals += 1
            pair = _finish(state, semantics)
            if pair not in emitted:
                emitted.add(pair)
                yield pair
            continue
        for token in _moves(world, programs):
            if token.kind == "pull" and token.client in finished:
                continue
            nxt = _apply(state, token, semantics)
            c = token.client
            st = nxt.world.client(c)
            if st.frame is None and st.next_index == len(programs[c]):
                reset = ClientState(0, (), st.pending, None, st.next_index)
                nxt = _State(nxt.world.replace_client(c, reset), nxt.done, nxt.rt)
            if tables is not None and not _target_compatible(nxt, token, tables):
                continue
            if nxt in seen:
                continue
            seen.add(nxt)
            if len(seen) > max_states:
                raise EnumerationCapError(
                    f"exploration exceeded {max_states} states: {len(seen)} states seen, "
                    f"{terminals} terminal states reached, {len(emitted)} distinct "
                    f"executions emitted")
            stack.append(nxt)


def _target_compatible(state: _State, token: Token, tables) -> bool:
    """Check the state right after ``token`` against the target tables.

    Returned-before pairs only ever get added when an event is called, so a
    call whose required predecessors have not all returned, or that pairs up
    with something the target does not, can never lead to the target."""
    rvals, rt_pairs, preds = tables
    if token.kind == "call":
        fr = state.world.client(token.client).frame
        if fr.event_id not in rvals:
            return False
        if not state.rt <= rt_pairs:
            return False
        returned = {d.id for d in state.done}
        if not preds[fr.event_id] <= returned:
            return False
    elif token.kind == "body":
        fr = state.world.client(token.client).frame
        if fr.event_id not in rvals or fr.rval != rvals[fr.event_id]:
            return False
    return True


def enumerate_histories(programs: Mapping[str, Program], semantics: ObjectSemantics,
                        max_states: int = 2_000_000) -> list[History]:
    """Distinct histories reachable from the programs, in a deterministic
    order (canonical ids sorted by their event tuples and rt)."""
    out = {h for h, _ in explore(programs, semantics, max_states)}
    return sorted(out, key=History.sort_key)


def can_produce(h: History, semantics: ObjectSemantics, max_states: int = 2_000_000) -> bool:
    """Whether some schedule of h's own programs reproduces h exactly
    (canonical ids).  Exhaustive up to the state cap."""
    target = h.canonical()
    programs = programs_of(target)
    for hist, _ in explore(programs, semantics, max_states, target=target):
        if (hist.events == target.events and hist.rt == target.rt
                and hist.sessions == target.sessions):
            return True
    return False
