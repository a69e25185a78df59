"""Simulator for the shared-log client/server protocol.

One server holds a totally ordered log of (event id, object, operation)
entries.  Each client keeps three local logs: ``known`` (a prefix of the
server log it has pulled), ``unacked`` (entries it pushed but has not seen
echoed back), and ``pending`` (entries not yet pushed).  Executing an
operation evaluates it against the concatenation known+unacked+pending
restricted to the operation's object, then appends a fresh entry to pending.
A push fence flushes pending inside the execution; a pull fence first runs
pulls until known covers the whole server log.

Schedules are plain tuples of tokens: call/body/ret triples per event and
push/pull transitions per client.  A client may push or pull at any point,
also between an event's call and return.  ``step`` alone judges each token:
a malformed call, a phase out of order and a disabled transition are all
ScheduleErrors, never no-ops.  ``run_schedule`` adds the two run-level
checks: event ids are unique and no client ends with an open event.

``explore`` walks fewer schedules than ``step`` accepts: a client pushes
and pulls only while it has no open event (ROADMAP item 1), and its pulls
are folded into its next call, which may pull any number of unseen server
entries first.

``run_schedule`` and the random walk of ``generators`` fold tokens into
one run type, ``Run(world, events, rt)``: each ``call`` opens an
``EventRecord`` on its client and adds its returned-before pairs, its
``body`` fills in the record's return value and view, its ``ret`` hands
the record to the run, and one builder (``_history``, ``_execution``)
turns the records into a history and an execution.  Each run is flushed
once, at its end, with the pushes of ``flush_suffix`` made on the world
itself (``_flushed``; ``_quiesce`` adds the pulls); ``_round_robin``
alone states the flush order.  The token-level types (``Token``,
``ClientState``, ``World``, ``EventRecord`` and ``Run``) are named
tuples.  A ``World`` is the server log, the sorted client names (one
tuple shared by a whole run) and the client states by position: ``step``
finds its client with ``names.index`` and replaces one slot of
``states``.

``explore`` keeps none of those types in its states.  It numbers the
events of its programs and walks compact states (``_Walk``): exact tuples
of ints, None and such tuples, with ids, ops and fences looked up from
per-walk tables.  It keeps every state it reaches in its ``seen`` set for
the whole walk, so the states are made atomic for CPython's cyclic
collector: a collection untracks an exact tuple whose items are all
untracked, and later collections stop rescanning it, while a named tuple,
or any tuple that holds an ``Op`` or a frozenset, stays tracked and is
rescanned by every full collection.  Only a terminal state with a new key
becomes an output: a new (return values, rts) becomes ``EventRecord``s for
``_history``, and the execution's visibility comes straight from the view
masks.  ``step``, ``World``, ``Run`` and the token walks stay the
reference ``explore`` is tested against.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .model import (
    FENCE_KINDS,
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
DEFAULT_MAX_STATES = 2_000_000  # explore's state cap


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


Schedule = tuple[Token, ...]


# -- world state -------------------------------------------------------------


class EventRecord(NamedTuple):
    """An event of a run: what its body evaluated and saw, and ``index``, its
    position in its client's session.  A client's open event is its record,
    with ``view`` None until its body runs."""

    id: str
    client: str
    obj: str
    op: Op
    fences: frozenset[str]
    rval: Rval
    view: frozenset[str] | None
    index: int


class ClientState(NamedTuple):
    known_len: int = 0
    unacked: tuple[Entry, ...] = ()
    pending: tuple[Entry, ...] = ()
    frame: EventRecord | None = None
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
    """_pushed fills server and unacked in one order: an own entry pulled is unacked[0]."""
    entry = server[st.known_len]
    unacked = st.unacked
    if unacked and unacked[0] == entry:
        unacked = unacked[1:]
    return ClientState(st.known_len + 1, unacked, st.pending, st.frame, st.next_index)


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
    entry: Entry = (fr.id, fr.obj, fr.op)
    st = ClientState(st.known_len, st.unacked, st.pending + (entry,),
                     EventRecord(fr.id, fr.client, fr.obj, fr.op, fr.fences, rval, view,
                                 fr.index),
                     st.next_index)
    if PUSH in fr.fences:
        while st.pending:
            server, st = _pushed(server, st)
    return server, st


def _check_fences(client: str, fences: frozenset[str]) -> None:
    if not fences <= FENCE_KINDS:
        raise ScheduleError(f"call({client}) with unknown fences {sorted(fences - FENCE_KINDS)}")


def _called(st: ClientState, client: str, event_id: str, token: Token) -> ClientState:
    fr = EventRecord(event_id, client, token.obj, token.op, token.fences, None, None,
                     st.next_index)
    return ClientState(st.known_len, st.unacked, st.pending, fr, st.next_index + 1)


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
        if st.frame is None or st.frame.view is not None:
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
        st = _called(st, c, event_id, token)
        return _with(world, server, i, st), None
    if kind == "ret":
        if st.frame is None or st.frame.view is None:
            raise ScheduleError(f"ret({c}) without an evaluated body")
        cleared = ClientState(st.known_len, st.unacked, st.pending, None, st.next_index)
        return _with(world, server, i, cleared), st.frame
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
        new_id = world.client(token.client).frame.id
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
            eid = run.world.client(token.client).frame.id
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


def _round_robin(queues: list[Sequence]) -> list:
    """The flush order: one item from each queue in turn, FIFO within each
    queue.  A flush pushes the clients' pending entries in this order, the
    queues being the clients by position."""
    return [q[k] for k in range(max(map(len, queues), default=0)) for q in queues
            if k < len(q)]


def flush_suffix(world: World) -> list[Token]:
    """Tokens that drive a world to quiescence: the pushes of the pending
    entries in flush order, then pulls client by client."""
    out = _round_robin([[push(c)] * len(st.pending)
                        for c, st in zip(world.names, world.states)])
    total = len(world.server) + len(out)
    for c, st in zip(world.names, world.states):
        out.extend([pull(c)] * (total - st.known_len))
    return out


def _flushed(world: World) -> tuple[Entry, ...]:
    """The server log after the pushes of ``flush_suffix``."""
    return world.server + tuple(_round_robin([st.pending for st in world.states]))


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
    of the tests draw from it; ``explore`` walks the same executions over
    compact states of its own (``_Walk.successors``)."""
    out: list[Token] = []
    for c, st in zip(world.names, world.states):
        if st.frame is not None:
            out.append(body(c) if st.frame.view is None else ret(c))
            continue
        if st.next_index < len(programs[c]):
            obj, op, fences = programs[c][st.next_index]
            out.append(call(c, obj, op, fences))
        if st.pending:
            out.append(push(c))
        if st.known_len < len(world.server):
            out.append(pull(c))
    return out


class _Walk:
    """The per-walk tables of one ``explore`` call and its moves over
    compact states.

    Events are numbered by client position, then session index: client
    ``i``'s event ``k`` is ``offsets[i] + k``, and a set of events is a
    bitmask over those numbers.  A state is an exact tuple
    ``(server, clients, bodies, rts, returned)``:

    - ``server``: the server log as event numbers;
    - ``clients``: per client position (known, pushed, called, phase): the
      server prefix it has pulled, how many of its own entries it has
      pushed, how many of its events it has called, and whether its last
      called event is closed (0), called (1) or past its body (2);
    - ``bodies``: per event None until its body runs, then its return
      value and view mask;
    - ``rts``: per event the mask of events that had returned when it was
      called (0 until it is);
    - ``returned``: the mask of returned events, which ``clients`` fixes;
      it is kept so that a call reads it directly.

    Everything else a ``World`` and ``Run`` hold is looked up from the
    tables: ids, ops and fences by event number; a client's pending
    entries are its events from ``pushed`` to its last body, and its
    unacked entries are its own events on the server past ``known``.
    """

    def __init__(self, programs: Mapping[str, Program], semantics: ObjectSemantics) -> None:
        names = tuple(sorted(programs))
        progs = tuple(programs[c] for c in names)
        for c, program in zip(names, progs):
            for _, _, fences in program:
                _check_fences(c, fences)
        self.names = names
        self.sizes = tuple(map(len, progs))
        self.offsets = tuple(sum(self.sizes[:i]) for i in range(len(names)))
        self.client = tuple(i for i, p in enumerate(progs) for _ in p)
        self.index = tuple(k for p in progs for k in range(len(p)))
        self.ids = ids = tuple(f"{c}:{k}" for c, p in zip(names, progs) for k in range(len(p)))
        self.domain = frozenset(ids)
        self.objs = tuple(obj for p in progs for obj, _, _ in p)
        self.ops = tuple(op for p in progs for _, op, _ in p)
        self.fences = tuple(fences for p in progs for _, _, fences in p)
        self.pulls = tuple(PULL in f for f in self.fences)
        self.pushes = tuple(PUSH in f for f in self.fences)
        self.order = tuple(sorted(range(len(ids)), key=ids.__getitem__))
        # per event e the pairs (ids[x], ids[e]), built once for every
        # visibility and rt pair the walk's outputs hold
        self.into = tuple(tuple((a, b) for a in ids) for b in ids)
        self.eval = semantics.eval
        self.evaluated: dict[tuple, tuple] = {}
        self.initial = ((), ((0, 0, 0, 0),) * len(names), (None,) * len(ids),
                        (0,) * len(ids), 0)

    def body(self, state: tuple, i: int) -> tuple:
        """``state`` after client ``i`` runs its open event's body.  A
        pull-fenced body first pulls the whole server log, and a
        push-fenced body then pushes every pending entry.  Bodies are
        memoized by the event, the known length and the server log, which
        fix the client's logs: its own entries on the server are the ones
        it has pushed."""
        server, clients, bodies, rts, returned = state
        known, pushed, called, _ = clients[i]
        first = self.offsets[i]
        e = first + called - 1
        if self.pulls[e]:
            known = len(server)
        key = (e, known, server)
        result = self.evaluated.get(key)
        if result is None:
            last = first + self.sizes[i]
            logs = (server[:known] + tuple(x for x in server[known:] if first <= x < last)
                    + tuple(range(first + pushed, e)))
            obj, objs, ops = self.objs[e], self.objs, self.ops
            result = self.evaluated[key] = (
                self.eval(tuple(ops[x] for x in logs if objs[x] == obj), ops[e]),
                sum(1 << x for x in logs))
        if self.pushes[e]:
            server = server + tuple(range(first + pushed, e + 1))
            pushed = called
        return (server, clients[:i] + ((known, pushed, called, 2),) + clients[i + 1:],
                bodies[:e] + (result,) + bodies[e + 1:], rts, returned)

    def successors(self, state: tuple) -> list[tuple] | None:
        """The states ``explore`` moves to from ``state``, in the order it
        pushes them on its stack, or None when every client has returned
        its last program event (a terminal state).  When some client's
        open event is unfenced and its body has not run, the body of the
        first such client is the only move.  Otherwise, client by client:
        the open event's body or ret; or, for an idle client, its next call
        after pulling j unseen server entries (only j = 0 before a
        pull-fenced call), then a push of its pending work."""
        server, clients, bodies, rts, returned = state
        offsets, sizes, pulls, body = self.offsets, self.sizes, self.pulls, self.body
        for i, (_, _, called, phase) in enumerate(clients):
            if phase == 1 and not self.fences[offsets[i] + called - 1]:
                return [body(state, i)]
        out = []
        terminal = True
        size = len(server)
        for i, (known, pushed, called, phase) in enumerate(clients):
            if phase == 1:
                terminal = False
                out.append(body(state, i))
                continue
            head, tail = clients[:i], clients[i + 1:]
            e = offsets[i] + called
            if phase == 2:
                terminal = False
                # A finished client is reset to known 0: nothing reads it.
                top = 0 if called == sizes[i] else known
                out.append((server, head + ((top, pushed, called, 0),) + tail,
                            bodies, rts, returned | (1 << (e - 1))))
                continue
            if called < sizes[i]:
                terminal = False
                nrts = rts[:e] + (returned,) + rts[e + 1:]
                for k in range(known, known + 1 if pulls[e] else size + 1):
                    out.append((server, head + ((k, pushed, called + 1, 1),) + tail,
                                bodies, nrts, returned))
            if pushed < called:
                out.append((server + (offsets[i] + pushed,),
                            head + ((known, pushed + 1, called, 0),) + tail,
                            bodies, rts, returned))
        return None if terminal else out

    def flushed(self, state: tuple) -> tuple:
        """A terminal state's key: the server log after the pushes of
        ``flush_suffix`` (each client's pending entries in flush order),
        the bodies and the rts masks.  With nothing pending the server log
        is already the flushed one, and keys the terminal as it is."""
        server, clients, bodies, rts, _ = state
        if all(pushed == called for _, pushed, called, _ in clients):
            return server, bodies, rts
        pending = [range(first + pushed, first + called)
                   for first, (_, pushed, called, _) in zip(self.offsets, clients)]
        return server + tuple(_round_robin(pending)), bodies, rts

    def pair(self, key: tuple, histories: dict[tuple, History]
             ) -> tuple[History, AbstractExecution]:
        """The (history, execution) of a terminal key.  ``histories`` keeps
        the history of each (return values, rts) already built, through
        ``_history``: the views are not part of a history, so every
        execution with the same return values and rts shares one.  The
        visibility comes straight from the view masks in ``bodies``, and a
        new history's rt from the ``rts`` masks, each set bit x of event
        e's mask picking the pair (ids[x], ids[e]) from the per-walk table
        ``into`` rather than building it."""
        server, bodies, rts = key
        ids, into, n = self.ids, self.into, len(self.ids)
        rvals = tuple(rval for rval, _ in bodies)
        h = histories.get((rvals, rts))
        if h is None:
            # A history reads no view, so the records carry none.
            records = tuple(
                EventRecord(ids[e], self.names[self.client[e]], self.objs[e], self.ops[e],
                            self.fences[e], rvals[e], frozenset(), self.index[e])
                for e in self.order)
            rt = frozenset(row[x] for row, m in zip(into, rts) for x in range(n)
                           if m >> x & 1)
            h = histories[rvals, rts] = _history(records, rt)
        vis = frozenset(row[x] for row, (_, view) in zip(into, bodies) for x in range(n)
                        if view >> x & 1)
        return h, AbstractExecution(h, Relation(self.domain, vis),
                                    TotalOrder(tuple(ids[e] for e in server)))


def explore(programs: Mapping[str, Program], semantics: ObjectSemantics,
            max_states: int = DEFAULT_MAX_STATES) -> Iterator[tuple[History, AbstractExecution]]:
    """Depth-first walk of the schedules of the given programs in which
    each client pushes and pulls only between its events, deduplicated by
    reachable state.  Each terminal state is driven to quiescence by a
    deterministic flush; yields one (history, execution) pair per distinct
    execution, in the order the walk first reaches it.

    States are the compact tuples of ``_Walk``: the server log as event
    numbers; per client its known length, own entries pushed, events
    called and the phase of its last call; per event its body's return
    value and view mask and its call's returned-before mask; and the mask
    of returned events.  They hold no op, id, fence set or named tuple, only
    ints, None and exact tuples, because ``seen`` keeps every state for the
    whole walk: a collection untracks such a tuple, and later collections
    stop rescanning it.  The rest of a ``Run`` follows from them and the
    per-walk tables.  Pushes are FIFO and the server log only grows, so a
    client's pending entries are its events from the pushed count to its
    last body, and its unacked entries are its own events on the server
    past its known length.  Two states are therefore equal exactly when the
    runs ``step`` would reach are, with the reductions below, so the
    encoding changes neither the deduplication nor the order of the walk.
    The walk builds no token and calls neither ``step`` nor
    ``flush_suffix``.  Program fences are checked once, before the walk.

    Pulls are not moves: an idle client's call is "pull j entries, then
    call", for j from 0 to the server entries the client has not pulled,
    and raises its known length by j.  This loses no execution of the walk
    with pull moves (``_moves``).  A pull changes only its own client's
    known length, and with it the unacked entries.  Only the client's next
    body reads them, and no pull is offered between a call and its body.
    The server log only grows, so a pull reads the same entry however late
    it runs, and any pull can wait until just before its client's next
    call: every move it passes commutes with it (Godefroid 1996).  A
    pull-fenced body sets its known length to the whole server log itself,
    so its call is offered with j = 0 only; a finished client has no next
    call, so its pulls reach no output and are never taken.

    States keep only what the output and the future moves read:

    - a finished client's known length is reset to 0 after each of its
      moves, since no body and no move reads its known prefix or the
      unacked entries that prefix fixes; its pushed count still fixes its
      pending entries;
    - the returned events are a mask, and so are each call's
      returned-before events, since the rt rule and the output read them
      as sets.

    A terminal state then holds exactly what its output reads (server log,
    pending entries, bodies and rts), so deduplication by state flushes
    each distinct terminal once.  The flush makes only the pushes of
    ``flush_suffix`` (``_Walk.flushed``): the output reads the flushed
    server log alone, and pulls never change it; a terminal with nothing
    pending is keyed on its own server log.  A flushed terminal is then
    deduplicated by its key (flushed server log, bodies, rts), a plain
    tuple that determines its pair before anything is built: ids are
    client:index, no view holds its own event, and the server log is the
    arbitration.  A new key builds only its execution, since the walk
    builds one history per (return values, rts), the views being no part
    of a history, and shares it between the executions that have it.  The
    visibility pairs, and a new history's rt pairs, are read from a
    per-walk table of id pairs, one per (source, target) event.

    Where some client's open event is unfenced and its body has not run,
    that body (of the first such client by name) is the state's only move,
    a singleton persistent set.  The body reads only its own client's
    known prefix, unacked and pending entries, and writes only its event's
    body and its client's phase, so every other client's move commutes
    with it and none disables it; its client has no other move, and a
    state with an open event is never terminal.  Fenced bodies read or
    write the server and stay interleaved.

    Raises EnumerationCapError, with the states seen, (distinct) terminal
    states reached and pairs emitted so far, once more than ``max_states``
    states are seen, and ScheduleError when a program call has fences other
    than push and pull.
    """
    walk = _Walk(programs, semantics)
    seen = {walk.initial}
    stack = [walk.initial]
    terminals = 0
    histories: dict[tuple, History] = {}
    emitted: set[tuple] = set()
    successors = walk.successors
    while stack:
        state = stack.pop()
        nexts = successors(state)
        if nexts is None:
            terminals += 1
            key = walk.flushed(state)
            if key not in emitted:
                emitted.add(key)
                yield walk.pair(key, histories)
            continue
        for nxt in nexts:
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
