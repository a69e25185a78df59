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
push/pull transitions per client.  A client may push or pull at any point,
also between an event's call and return.  ``step`` alone judges each token:
a malformed call, a phase out of order and a disabled transition are all
ScheduleErrors, never no-ops.  ``run_schedule`` adds the two run-level
checks: event ids are unique and no client ends with an open event.

``explore`` walks fewer schedules than ``step`` accepts: a client pushes
and pulls only while it has no open event (ROADMAP item 1), and its pulls
are folded into its next call, which may pull any number of unseen server
entries first.

``run_schedule``, ``explore`` and the random walk of ``generators`` fold
into one run type, ``Run(world, events, rt)``: each ``ret`` adds an
``EventRecord`` and each ``call`` adds its returned-before pairs, and one
builder turns the records into a history and an execution.  Each walk is
flushed once, at its end, with the pushes of ``flush_suffix`` made on the
world itself (``_flushed``; ``_quiesce`` adds the pulls).

Every state type (``Token``, ``Frame``, ``ClientState``, ``World``,
``EventRecord`` and ``Run``) is a named tuple, so the explorer hashes and
compares states in C.  A ``World`` is the server log, the sorted client
names (one tuple shared by a whole run) and the client states by
position: ``step`` finds its client with ``names.index`` and replaces one
slot of ``states``.  ``explore`` names its moves by position and applies
the transitions ``step`` is made of (``_called``, ``_body``,
``_returned``, ``_pushed``, ``_pulled``) without building tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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

_FENCES = frozenset({PUSH, PULL})


class ScheduleError(ValueError):
    """Malformed schedule or disabled transition."""


class EnumerationCapError(RuntimeError):
    """The bounded exploration exceeded its configured budget."""


# -- tokens and schedules ----------------------------------------------------


class Token(NamedTuple):
    kind: str
    client: str
    obj: str | None = None
    op: Op | None = None
    fences: frozenset[str] = frozenset()
    id: str | None = None


def call(client: str, obj: str, op: Op, fences: Iterable[str] = (), id: str | None = None) -> Token:
    return Token("call", client, obj, op, frozenset(fences), id)


# Tokens are immutable, so every body, ret, push and pull of a client is one
# shared object: a schedule of any length holds four tokens per client.


@cache
def body(client: str) -> Token:
    return Token("body", client)


@cache
def ret(client: str) -> Token:
    return Token("ret", client)


@cache
def push(client: str) -> Token:
    return Token("push", client)


@cache
def pull(client: str) -> Token:
    return Token("pull", client)


@dataclass(frozen=True)
class Schedule:
    steps: tuple[Token, ...]

    def __iter__(self) -> Iterator[Token]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


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
    """The server log and the client states: ``states[i]`` belongs to
    ``names[i]``, and ``names`` is sorted and shared by a whole run."""

    server: tuple[Entry, ...]
    names: tuple[str, ...]
    states: tuple[ClientState, ...]

    @staticmethod
    def initial(client_names: Iterable[str]) -> "World":
        names = tuple(sorted(client_names))
        return World((), names, (ClientState(),) * len(names))

    def client(self, name: str) -> ClientState:
        return self.states[self.names.index(name)]

    def quiescent(self) -> bool:
        return all(
            st.frame is None and not st.pending and st.known_len == len(self.server)
            for st in self.states
        )


def _with(world: World, server: tuple[Entry, ...], i: int, st: ClientState) -> World:
    """``world`` with server log ``server`` and ``st`` as client ``i``'s state."""
    states = world.states
    return World(server, world.names, states[:i] + (st,) + states[i + 1:])


def _pushed(server: tuple[Entry, ...], st: ClientState
            ) -> tuple[tuple[Entry, ...], ClientState]:
    entry, rest = st.pending[0], st.pending[1:]
    return server + (entry,), ClientState(st.known_len, st.unacked + (entry,), rest,
                                          st.frame, st.next_index)


def _pulled(server: tuple[Entry, ...], st: ClientState) -> ClientState:
    entry = server[st.known_len]
    unacked = st.unacked
    if unacked and unacked[0] == entry:
        unacked = unacked[1:]
    elif entry in unacked:
        raise AssertionError("pulled own entry out of push order")
    return ClientState(st.known_len + 1, unacked, st.pending, st.frame, st.next_index)


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


def _body(server: tuple[Entry, ...], st: ClientState, semantics: ObjectSemantics
          ) -> tuple[tuple[Entry, ...], ClientState]:
    fr = st.frame
    if PULL in fr.fences:
        while st.known_len < len(server):
            st = _pulled(server, st)
    logs = server[: st.known_len] + st.unacked + st.pending
    view = frozenset(eid for eid, _, _ in logs)
    context = tuple(op for _, obj, op in logs if obj == fr.obj)
    rval = semantics.eval(context, fr.op)
    entry: Entry = (fr.event_id, fr.obj, fr.op)
    st = ClientState(st.known_len, st.unacked, st.pending + (entry,),
                     Frame(fr.event_id, fr.obj, fr.op, fr.fences, True, rval, view),
                     st.next_index)
    if PUSH in fr.fences:
        while st.pending:
            server, st = _pushed(server, st)
    return server, st


def _check_fences(client: str, fences: frozenset[str]) -> None:
    if not fences <= _FENCES:
        raise ScheduleError(f"call({client}) with unknown fences {sorted(fences - _FENCES)}")


def _called(st: ClientState, event_id: str, obj: str, op: Op, fences: frozenset[str]
            ) -> ClientState:
    return ClientState(st.known_len, st.unacked, st.pending,
                       Frame(event_id, obj, op, fences), st.next_index + 1)


def _returned(st: ClientState, client: str) -> tuple[ClientState, EventRecord]:
    fr = st.frame
    record = EventRecord(fr.event_id, client, fr.obj, fr.op, fr.fences, fr.rval, fr.view,
                         st.next_index - 1)
    return ClientState(st.known_len, st.unacked, st.pending, None, st.next_index), record


def step(world: World, token: Token, semantics: ObjectSemantics
         ) -> tuple[World, EventRecord | None]:
    """Apply one token; a ``ret`` also gives the record of the event it
    returns.  This is the one judge of the schedule grammar: it raises
    ScheduleError for a malformed token and for a disabled transition.  A
    push or pull is judged only by whether it is enabled, whether or not
    its client has an open event."""
    c = token.client
    try:
        i = world.names.index(c)
    except ValueError:
        raise ScheduleError(f"{token.kind}({c}): unknown client") from None
    st = world.states[i]
    server = world.server
    kind = token.kind
    if kind == "push":
        if not st.pending:
            raise ScheduleError(f"push({c}) not enabled: pending empty")
        server, st = _pushed(server, st)
        return _with(world, server, i, st), None
    if kind == "pull":
        if st.known_len >= len(server):
            raise ScheduleError(f"pull({c}) not enabled: known equals server log")
        return _with(world, server, i, _pulled(server, st)), None
    if kind == "body":
        if st.frame is None or st.frame.done:
            raise ScheduleError(f"body({c}) without a pending call")
        server, st = _body(server, st, semantics)
        return _with(world, server, i, st), None
    if kind == "call":
        if st.frame is not None:
            raise ScheduleError(f"call({c}) while an exec is in progress")
        if token.obj is None or token.op is None:
            raise ScheduleError("call without obj/op")
        _check_fences(c, token.fences)
        event_id = token.id if token.id is not None else f"{c}:{st.next_index}"
        st = _called(st, event_id, token.obj, token.op, token.fences)
        return _with(world, server, i, st), None
    if kind == "ret":
        if st.frame is None or not st.frame.done:
            raise ScheduleError(f"ret({c}) without an evaluated body")
        st, record = _returned(st, c)
        return _with(world, server, i, st), record
    raise ScheduleError(f"unknown token kind {kind!r}")


# -- runs and their output -----------------------------------------------------


class Run(NamedTuple):
    """A run so far: the world, the returned events sorted by id, and the
    returned-before pairs, each added when its later event is called."""

    world: World
    events: tuple[EventRecord, ...]
    rt: frozenset[tuple[str, str]]


def _apply(run: Run, token: Token, semantics: ObjectSemantics) -> Run:
    world, record = step(run.world, token, semantics)
    events, rt = run.events, run.rt
    if token.kind == "call":
        new_id = world.client(token.client).frame.event_id
        rt = rt | frozenset((r.id, new_id) for r in events)
    elif record is not None:
        # Ids are unique, so the records sort by id alone.
        events = tuple(sorted(events + (record,)))
    return Run(world, events, rt)


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


def run_schedule(schedule: Schedule, semantics: ObjectSemantics) -> Run:
    """Fold a schedule over the initial world of the clients its tokens name.

    Raises ScheduleError with the offending step index at the first token
    ``step`` rejects and at the first call that repeats an event id (a call
    without an explicit id takes ``client:index``), and names any client
    the schedule leaves with an open event.
    """
    run = Run(World.initial({t.client for t in schedule}), (), frozenset())
    ids: set[str] = set()
    for i, token in enumerate(schedule):
        try:
            run = _apply(run, token, semantics)
        except ScheduleError as exc:
            raise ScheduleError(f"step {i}: {exc}") from None
        if token.kind == "call":
            eid = run.world.client(token.client).frame.event_id
            if eid in ids:
                kind = "explicit event id" if token.id is not None else "event id"
                raise ScheduleError(f"step {i}: duplicate {kind} {eid}")
            ids.add(eid)
    for c, st in zip(run.world.names, run.world.states):
        if st.frame is not None:
            raise ScheduleError(f"client {c} left mid-execution")
    return run


def extract_history(run: Run) -> History:
    return _history(run.events, run.rt)


def extract_execution(run: Run) -> AbstractExecution:
    """History plus the visibility witnessed by each body and the final
    server-log arbitration.  Requires a quiescent final world."""
    if not run.world.quiescent():
        raise HistoryError("run not quiescent: flush pushes/pulls before extracting")
    return _execution(extract_history(run), run.events, run.world.server)


def flush_suffix(world: World) -> list[Token]:
    """Tokens that drive a world to quiescence: round-robin pushes over the
    sorted clients (FIFO within each), then pulls client by client."""
    pending = [len(st.pending) for st in world.states]
    out = [push(c) for k in range(max(pending, default=0))
           for c, n in zip(world.names, pending) if k < n]
    total = len(world.server) + sum(pending)
    for c, st in zip(world.names, world.states):
        out.extend([pull(c)] * (total - st.known_len))
    return out


def _flushed(world: World) -> tuple[Entry, ...]:
    """The server log after the pushes of ``flush_suffix``: pending entries
    appended round-robin over the clients by position, FIFO within each."""
    pending = [st.pending for st in world.states]
    server = list(world.server)
    for k in range(max(map(len, pending), default=0)):
        server.extend(p[k] for p in pending if k < len(p))
    return tuple(server)


def _quiesce(run: Run) -> Run:
    """``run`` after the ``flush_suffix`` of its world: every client has
    pushed its pending entries and pulled the whole server log, which holds
    its own pushed entries too, so none is left unacked."""
    world = run.world
    server = _flushed(world)
    states = tuple(ClientState(len(server), (), (), st.frame, st.next_index)
                   for st in world.states)
    return Run(World(server, world.names, states), run.events, run.rt)


def run_to_quiescence(schedule: Schedule, semantics: ObjectSemantics) -> Run:
    """``run_schedule`` followed by the ``flush_suffix`` of its final world.
    The quiescent schedule itself is ``schedule`` plus that suffix."""
    return _quiesce(run_schedule(schedule, semantics))


# -- bounded exhaustive exploration --------------------------------------------

Program = tuple[tuple[str, Op, frozenset[str]], ...]  # (obj, op, fences) per event


def programs_of(h: History) -> dict[str, Program]:
    """The per-client programs a history's sessions spell out."""
    by_id = h.by_id
    return {
        client: tuple((by_id[i].obj, by_id[i].op, by_id[i].fences) for i in ids)
        for client, ids in h.sessions
    }


def _terminal(world: World, programs: Mapping[str, Program]) -> bool:
    """Whether every client has returned its last program event."""
    return all(st.frame is None and st.next_index == len(programs[c])
               for c, st in zip(world.names, world.states))


def _moves(world: World, programs: Mapping[str, Program]) -> list[Token]:
    """The unreduced token-level moves, client by client: the open event's
    body or return, else the next call, a push of pending work and a pull
    of unseen server entries.  A client with an open event is offered no
    push or pull, although ``step`` accepts them, so a walk over these
    moves covers only schedules whose clients communicate between events
    (ROADMAP item 1).  ``generators._random_walk`` and the reference walks
    of the tests draw from it; ``explore`` walks the same executions with
    moves of its own (``_explore_moves``)."""
    out: list[Token] = []
    for c, st in zip(world.names, world.states):
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


def _explore_moves(world: World, programs: tuple[Program, ...]
                   ) -> list[tuple[int, str, int]]:
    """The moves ``explore`` takes from a world, as (client position, kind,
    j) with ``programs`` by position; none when every client has returned
    its last program event (a terminal world).  When some client's open
    event is unfenced and its body has not run, the body of the first such
    client is the only move.  Otherwise, client by client: the open event's
    body or ret; or, for an idle client, its next call after pulling j
    unseen server entries (only j = 0 before a pull-fenced call), and a push
    of its pending work."""
    server_len = len(world.server)
    out: list[tuple[int, str, int]] = []
    terminal = True
    for i, st in enumerate(world.states):
        fr = st.frame
        if fr is not None:
            if fr.done:
                out.append((i, "ret", 0))
            elif fr.fences:
                out.append((i, "body", 0))
            else:
                return [(i, "body", 0)]
            terminal = False
            continue
        program = programs[i]
        if st.next_index < len(program):
            terminal = False
            if PULL in program[st.next_index][2]:
                out.append((i, "call", 0))
            else:
                out.extend((i, "call", j) for j in range(server_len - st.known_len + 1))
        if st.pending:
            out.append((i, "push", 0))
    return [] if terminal else out


def _finish(run: Run, histories: dict[tuple, History], emitted: set[tuple]
            ) -> tuple[History, AbstractExecution] | None:
    """Flush a terminal run's pushes and give its (history, execution)
    pair, or None when ``emitted`` already holds its key (returned events,
    rt, flushed server log).  The key and the pair determine each other:
    ids are client:index, no view holds its own event, and the server log
    is the arbitration.  ``histories`` keeps the history of each (returned
    events, rt) already built."""
    _, events, rt = run
    server = _flushed(run.world)
    key = (events, rt, server)
    if key in emitted:
        return None
    emitted.add(key)
    h = histories.get((events, rt))
    if h is None:
        h = histories[events, rt] = _history(events, rt)
    return h, _execution(h, events, server)


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
    """Depth-first walk of the schedules of the given programs in which
    each client pushes and pulls only between its events, deduplicated by
    reachable state.  Each terminal state is driven to quiescence by a
    deterministic flush; yields one (history, execution) pair per distinct
    execution, in the order the walk first reaches it.

    The walk takes the moves of ``_explore_moves`` and applies them to the
    position-indexed ``World`` through the transitions ``step`` is made of
    (``_called``, ``_body``, ``_returned``, ``_pushed``, ``_pulled``), and
    its flush appends entries to the server log directly: the walk builds
    no token and calls neither ``_apply``, ``step`` nor ``flush_suffix``.
    Program fences are checked once, before the walk.

    Pulls are not moves: an idle client's call is "pull j entries, then
    call", for j from 0 to the server entries the client has not pulled.
    This loses no execution of the walk with pull moves (``_moves``).  A
    pull changes only its own client's known prefix and unacked entries,
    and unacked is fixed by the known prefix and the server log (the
    client's own entries past that prefix).  Only the client's next body
    reads them, and no pull is offered between a call and its body.  The
    server log only grows, so a pull reads the same entry however late it
    runs, and any pull can wait until just before its client's next call:
    every move it passes commutes with it (Godefroid 1996).  A pull-fenced
    body pulls to the end of the server log itself, so its call is offered
    with j = 0 only; a finished client has no next call, so its pulls reach
    no output and are never taken.

    States keep only what the output and the future moves read:

    - a finished client is reset to its pending entries after each of its
      moves, since no body and no move reads its other logs;
    - the returned events are kept sorted by id, since the rt rule and the
      output read them as a set.

    A terminal state then holds exactly what its output reads (server log,
    pending entries, returned events and rt), so deduplication by state
    flushes each distinct terminal once.  The flush makes only the pushes
    of ``flush_suffix`` (``_flushed``): the output reads the flushed server
    log alone, and pulls never change it.  A flushed terminal is then
    deduplicated by its key (returned events, rt, flushed server log),
    which hashes in C and determines its pair, before anything is built; a
    new key builds only its execution, since the walk builds one history
    per (returned events, rt) and shares it between the executions that
    have it.

    Where some client's open event is unfenced and its body has not run,
    that body (of the first such client by name) is the state's only move,
    a singleton persistent set.  The body reads only its own client's logs,
    including the server prefix it has already pulled, and writes only its
    own pending log and frame, so every other client's move commutes with
    it and none disables it; its client has no other move, and a state
    with an open event is never terminal.  Fenced bodies read or write the
    server and stay interleaved.

    With ``target`` (canonical client:index ids) the walk prunes branches
    that provably cannot reproduce the target history: a wrong return value,
    an rt pair outside the target's, or a required rt pair already missed.
    All three conditions are monotone along a run, so pruning is sound, and
    both reductions keep it so: a call's pairs do not depend on the pulls
    folded into it, and a body's return value is fixed by the state it is
    taken from.

    Raises EnumerationCapError, with the states seen, (distinct) terminal
    states reached and pairs emitted so far, once more than ``max_states``
    states are seen, and ScheduleError when a program call has fences other
    than push and pull.
    """
    init = Run(World.initial(programs), (), frozenset())
    names = init.world.names
    progs = tuple(programs[c] for c in names)
    for c, program in zip(names, progs):
        for _, _, fences in program:
            _check_fences(c, fences)
    ids = tuple(tuple(f"{c}:{k}" for k in range(len(p))) for c, p in zip(names, progs))
    tables = _target_tables(target)
    seen: set[Run] = {init}
    stack: list[Run] = [init]
    terminals = 0
    histories: dict[tuple, History] = {}
    emitted: set[tuple] = set()
    while stack:
        run = stack.pop()
        world, events, rt = run
        moves = _explore_moves(world, progs)
        if not moves:
            terminals += 1
            pair = _finish(run, histories, emitted)
            if pair is not None:
                yield pair
            continue
        server, states = world.server, world.states
        for i, kind, j in moves:
            st = states[i]
            nserver, nevents, nrt = server, events, rt
            if kind == "call":
                for _ in range(j):
                    st = _pulled(server, st)
                eid = ids[i][st.next_index]
                obj, op, fences = progs[i][st.next_index]
                st = _called(st, eid, obj, op, fences)
                if events:
                    nrt = rt | frozenset((r.id, eid) for r in events)
                if tables is not None and not _call_fits(tables, eid, nrt, events):
                    continue
            elif kind == "body":
                nserver, st = _body(server, st, semantics)
                if tables is not None and not _body_fits(tables, st.frame):
                    continue
            else:
                if kind == "ret":
                    st, record = _returned(st, names[i])
                    # Ids are unique, so the records sort by id alone.
                    nevents = tuple(sorted(events + (record,)))
                else:
                    nserver, st = _pushed(server, st)
                if st.frame is None and st.next_index == len(progs[i]):
                    st = ClientState(0, (), st.pending, None, st.next_index)
            nxt = Run(_with(world, nserver, i, st), nevents, nrt)
            before = len(seen)
            seen.add(nxt)
            if len(seen) == before:
                continue
            if before >= max_states:
                raise EnumerationCapError(
                    f"exploration exceeded {max_states} states: {len(seen)} states seen, "
                    f"{terminals} terminal states reached, {len(emitted)} distinct "
                    f"executions emitted")
            stack.append(nxt)


def _call_fits(tables, event_id: str, rt: frozenset[tuple[str, str]],
               events: tuple[EventRecord, ...]) -> bool:
    """Whether a call of ``event_id`` that gives the run ``rt`` can still
    lead to the target.  Returned-before pairs only ever get added when an
    event is called, so a call whose required predecessors have not all
    returned, or that pairs up with something the target does not, cannot."""
    rvals, rt_pairs, preds = tables
    return (event_id in rvals and rt <= rt_pairs
            and preds[event_id] <= {r.id for r in events})


def _body_fits(tables, fr: Frame) -> bool:
    rvals = tables[0]
    return fr.event_id in rvals and fr.rval == rvals[fr.event_id]


def enumerate_histories(programs: Mapping[str, Program], semantics: ObjectSemantics,
                        max_states: int = 2_000_000) -> list[History]:
    """Distinct histories reachable from the programs, in a deterministic
    order (canonical ids sorted by their event tuples and rt)."""
    out = {h for h, _ in explore(programs, semantics, max_states)}
    return sorted(out, key=History.sort_key)


def can_produce(h: History, semantics: ObjectSemantics, max_states: int = 2_000_000) -> bool:
    """Whether some schedule of h's own programs that ``explore`` walks
    (pushes and pulls only between a client's events, pulls folded into
    the next call) reproduces h exactly (canonical ids).  Exhaustive up to
    the state cap.  ``explore``'s target pruning judges a call by the rt
    pairs it adds, which the pulls folded into it do not change, and a body
    by its return value."""
    target = h.canonical()
    programs = programs_of(target)
    for hist, _ in explore(programs, semantics, max_states, target=target):
        if (hist.events == target.events and hist.rt == target.rt
                and hist.sessions == target.sessions):
            return True
    return False
