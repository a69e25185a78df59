"""Simulator tests: the schedule grammar as ``run_schedule`` reports it,
step mechanics, extraction, golden replays of the bundled schedules, and
the bounded exhaustive exploration."""

import gc
import hashlib
import random

import pytest

from gsclab import (
    EnumerationCapError,
    HistoryError,
    Op,
    Schedule,
    ScheduleError,
    Token,
    World,
    body,
    call,
    explore,
    extract_execution,
    extract_history,
    fixture,
    flush_suffix,
    programs_of,
    pull,
    push,
    ret,
    run_schedule,
    run_to_quiescence,
    step,
)
from gsclab import protocol
from gsclab.generators import _random_walk, soundness_grid_programs, soundness_sampled_programs
from gsclab.serialization import dumps, execution_to_doc

from helpers import producible


def exec_tokens(client, obj, op, fences=()):
    return [call(client, obj, op, fences), body(client), ret(client)]


def simple_schedule():
    steps = []
    steps += exec_tokens("a", "x", Op("append", 1))
    steps += [push("a")]
    steps += [pull("b")]
    steps += exec_tokens("b", "x", Op("read"))
    return Schedule(tuple(steps))


# -- grammar -------------------------------------------------------------------


def test_validate_accepts_well_formed(sem):
    run = run_schedule(simple_schedule(), sem)
    assert [r.id for r in run.events] == ["a:0", "b:0"]


def rejects(sem, steps, message):
    with pytest.raises(ScheduleError, match=message):
        run_schedule(Schedule(tuple(steps)), sem)


def test_validate_call_without_obj(sem):
    rejects(sem, (Token("call", "a"), body("a"), ret("a")), r"step 0: call without obj/op")


def test_validate_duplicate_explicit_id(sem):
    steps = (
        call("a", "x", Op("append", 1), id="e"), body("a"), ret("a"),
        call("a", "x", Op("append", 2), id="e"), body("a"), ret("a"),
    )
    rejects(sem, steps, "step 3: duplicate explicit event id e")


def test_validate_nested_call(sem):
    steps = (call("a", "x", Op("append", 1)), call("a", "x", Op("append", 2)))
    rejects(sem, steps, r"step 1: call\(a\) while an exec is in progress")


def test_validate_body_without_call(sem):
    rejects(sem, (body("a"),), r"step 0: body\(a\) without a pending call")


def test_validate_ret_without_body(sem):
    steps = (call("a", "x", Op("append", 1)), ret("a"))
    rejects(sem, steps, r"step 1: ret\(a\) without an evaluated body")


def test_validate_fence_token_inside_exec(sem):
    # A push inside an open event is judged only by whether it is enabled.
    steps = (call("a", "x", Op("append", 1)), push("a"), body("a"), ret("a"))
    rejects(sem, steps, r"step 1: push\(a\) not enabled: pending empty")


def test_validate_unknown_kind(sem):
    rejects(sem, (Token("flush", "a"),), "step 0: unknown token kind 'flush'")


def test_validate_left_mid_execution(sem):
    steps = (call("a", "x", Op("append", 1)), body("a"))
    rejects(sem, steps, "client a left mid-execution")


# -- step mechanics ------------------------------------------------------------


def test_push_disabled_on_empty_pending(sem):
    world = World.initial(["a"])
    with pytest.raises(ScheduleError, match="pending empty"):
        step(world, push("a"), sem)


def test_pull_disabled_when_caught_up(sem):
    world = World.initial(["a"])
    with pytest.raises(ScheduleError, match="known equals server log"):
        step(world, pull("a"), sem)


def test_step_accepts_fence_tokens_inside_exec(sem):
    # b's append is on the server; a pulls it between its call and body,
    # so its read sees it, and pushes its own entry before returning.
    world = World.initial(["a", "b"])
    for token in exec_tokens("b", "x", Op("append", 1)) + [push("b")]:
        world, _ = step(world, token, sem)
    for token in (call("a", "x", Op("append", 2)), pull("a"), body("a"), push("a")):
        world, _ = step(world, token, sem)
    world, record = step(world, ret("a"), sem)
    assert record.view == frozenset({"b:0"})
    assert [e for e, _, _ in world.server] == ["b:0", "a:0"]
    assert world.client("a").unacked == (("a:0", "x", Op("append", 2)),)


def test_step_rejects_unknown_client(sem):
    world = World.initial(["a"])
    for token in (push("b"), pull("b"), call("b", "x", Op("read")), body("b"), ret("b")):
        with pytest.raises(ScheduleError, match=rf"{token.kind}\(b\): unknown client"):
            step(world, token, sem)


def test_call_assigns_sequential_ids(sem):
    run = run_to_quiescence(Schedule(tuple(
        exec_tokens("a", "x", Op("append", 1)) + exec_tokens("a", "x", Op("read"))
    )), sem)
    assert [r.id for r in run.events] == ["a:0", "a:1"]


def test_body_sees_own_pending_before_push(sem):
    # The appender reads back its own unpushed entry; the other client,
    # which never pulled, still sees an empty sequence.
    steps = []
    steps += exec_tokens("a", "x", Op("append", 1))
    steps += exec_tokens("a", "x", Op("read"))
    steps += exec_tokens("b", "x", Op("read"))
    run = run_to_quiescence(Schedule(tuple(steps)), sem)
    rvals = {r.id: r.rval for r in run.events}
    assert rvals["a:1"] == (1,)
    assert rvals["b:0"] == ()


def test_pull_fence_drains_server(sem):
    steps = []
    steps += exec_tokens("a", "x", Op("append", 1), fences=("push",))
    steps += exec_tokens("b", "x", Op("read"), fences=("pull",))
    run = run_to_quiescence(Schedule(tuple(steps)), sem)
    rvals = {r.id: r.rval for r in run.events}
    assert rvals["b:0"] == (1,)


def test_push_fence_flushes_pending(sem):
    run = run_schedule(Schedule(tuple(
        exec_tokens("a", "x", Op("append", 1)) +
        exec_tokens("a", "x", Op("append", 2), fences=("push",))
    )), sem)
    assert [e for e, _, _ in run.world.server] == ["a:0", "a:1"]
    assert run.world.client("a").pending == ()


def test_pull_of_own_entry_clears_unacked(sem):
    run = run_schedule(Schedule(tuple(
        exec_tokens("a", "x", Op("append", 1)) + [push("a"), pull("a")]
    )), sem)
    st = run.world.client("a")
    assert st.unacked == () and st.known_len == 1


def test_view_snapshot_taken_before_own_append(sem):
    run = run_to_quiescence(Schedule(tuple(exec_tokens("a", "x", Op("append", 1)))), sem)
    (rec,) = run.events
    assert rec.view == frozenset()


# -- running and extraction ------------------------------------------------------


def test_run_schedule_reports_step_index(sem):
    bad = Schedule((push("a"),))
    with pytest.raises(ScheduleError, match=r"step 0: push\(a\) not enabled"):
        run_schedule(bad, sem)


def test_run_schedule_rejects_colliding_event_ids(sem):
    # An explicit id on client a takes the id client b's first call gets.
    steps = ([call("a", "x", Op("append", 1), id="b:0"), body("a"), ret("a")]
             + exec_tokens("b", "x", Op("read")))
    with pytest.raises(ScheduleError, match="step 3: duplicate event id b:0"):
        run_schedule(Schedule(tuple(steps)), sem)


def test_extract_history_rt_is_ret_before_call(sem):
    run = run_to_quiescence(simple_schedule(), sem)
    h = extract_history(run)
    assert h.rt.pairs == frozenset({("a:0", "b:0")})
    assert dict(h.sessions) == {"a": ("a:0",), "b": ("b:0",)}


def test_extract_execution_requires_quiescence(sem):
    run = run_schedule(Schedule(tuple(exec_tokens("a", "x", Op("append", 1)))), sem)
    with pytest.raises(HistoryError, match="not quiescent"):
        extract_execution(run)


def test_extract_execution_vis_and_ar(sem):
    run = run_to_quiescence(simple_schedule(), sem)
    x = extract_execution(run)
    assert x.vis.pairs == frozenset({("a:0", "b:0")})
    assert x.ar.sequence == ("a:0", "b:0")


def test_flush_suffix_reaches_quiescence(sem):
    # run_to_quiescence flushes without tokens, to the world the tokens reach.
    sched = Schedule(tuple(
        exec_tokens("a", "x", Op("append", 1)) + exec_tokens("b", "x", Op("append", 2))
    ))
    base = run_schedule(sched, sem)
    assert not base.world.quiescent()
    world = base.world
    assert flush_suffix(world) == [push("a"), push("b"), pull("a"), pull("a"),
                                   pull("b"), pull("b")]
    for token in flush_suffix(world):
        world, _ = step(world, token, sem)
    assert world.quiescent()
    assert world == run_to_quiescence(sched, sem).world


def test_run_to_quiescence_no_op_when_quiescent(sem):
    sched = Schedule(tuple(
        exec_tokens("a", "x", Op("append", 1), fences=("push",)) + [pull("a")]
    ))
    run = run_to_quiescence(sched, sem)
    assert run == run_schedule(sched, sem)


def test_programs_of_round_trip(sem):
    h = fixture("fig3a").history
    progs = programs_of(h)
    assert set(progs) == {"A", "B"}
    assert [op.kind for _, op, _ in progs["A"]] == ["append", "read"]


# -- golden replays --------------------------------------------------------------

GOLDEN = {
    # name -> (server order, read rvals)
    "fig3a": (("e1", "f1", "e2", "f2"), {"e2": (1, 2), "f2": (2,)}),
    "fig3b": (("f1", "e1", "f2"), {"f2": (2, 1)}),
    "fig3c": (("e1", "f1", "e2", "f2"), {"e2": (), "f2": ()}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_replay(sem, name):
    fix = fixture(name)
    run = run_to_quiescence(fix.schedule, sem)
    server, rvals = GOLDEN[name]
    assert extract_history(run) == fix.history
    assert tuple(e for e, _, _ in run.world.server) == server == fix.server_order
    got = {r.id: r.rval for r in run.events if r.op.kind == "read"}
    assert got == rvals
    x = extract_execution(run)
    assert x == fix.witness


# -- exploration ------------------------------------------------------------------


def test_explore_is_deterministic(sem):
    progs = programs_of(fixture("fig3a").history.canonical())
    first = list(explore(progs, sem))
    second = list(explore(progs, sem))
    assert first == second
    assert len(first) == len(set(first))


def test_explore_emits_canonical_histories(sem):
    # Events are named client:index as they are called, so the explorer's
    # histories and witnesses need no renaming (the corpus relies on this).
    progs = {
        "A": (("x", Op("append", 1), frozenset({"push"})),
              ("y", Op("read"), frozenset({"pull"}))),
        "B": (("y", Op("append", 2), frozenset()),
              ("x", Op("read"), frozenset())),
    }
    out = list(explore(progs, sem))
    assert out
    for h, x in out:
        assert h.canonical() is h
        assert x.history is h


def test_explore_rejects_bad_fences(sem):
    progs = {"a": ((("x"), Op("append", 1), frozenset({"flush"})),)}
    with pytest.raises(ValueError, match=r"call\(a\) with unknown fences \['flush'\]"):
        list(explore(progs, sem))


def test_explore_respects_state_cap(sem):
    progs = programs_of(fixture("fig3a").history.canonical())
    with pytest.raises(EnumerationCapError, match="exceeded 5 states: 6 states seen, "
                       "0 terminal states reached, 0 distinct executions emitted"):
        list(explore(progs, sem, max_states=5))


EXPLORED_PROGRAMS = {
    "fig3a": lambda: programs_of(fixture("fig3a").history.canonical()),
    "fig3b": lambda: programs_of(fixture("fig3b").history.canonical()),
    "fig5": lambda: programs_of(fixture("fig5").history.canonical()),
    # A reads x then appends y under a pull; B appends x under a pull then
    # reads y.
    "sampled27": lambda: soundness_sampled_programs(20250813)[27],
}


@pytest.fixture(scope="module")
def explored(sem):
    """The emitted pairs of each program in EXPLORED_PROGRAMS, in order."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = list(explore(EXPLORED_PROGRAMS[name](), sem))
        return cache[name]

    return get


# sha256 over the canonical JSON of each emitted execution, in emission
# order.  The corpus samples every 53rd execution and keeps the first
# witness per history, so both rest on it; SET_DIGESTS pins the sets apart
# from their order.
EMISSION_DIGESTS = {
    "fig3a": "d00d957265145f86a6158cd63105b49c61576de673b7cfd4e6108c18fd592b4a",
    "fig3b": "4ad6a732ac6721a0889c289795ec916c1a25c67a43f55e680011d0b34227623b",
    "fig5": "9745e8b4c4a3c7794850be1ed3e19a2fd6c12059c2c2b710217b3364b8f02431",
    "sampled27": "23ee5541cfac33f654b6423009c4f811947f5752a2dde02c1bcc705696f65f2c",
}


@pytest.mark.parametrize("name", sorted(EMISSION_DIGESTS))
def test_explore_emission_order_is_pinned(explored, name):
    digest = hashlib.sha256()
    for _, x in explored(name):
        digest.update(dumps(execution_to_doc(x, "sequence")).encode())
    assert digest.hexdigest() == EMISSION_DIGESTS[name]


def execution_set(pairs):
    """The sorted canonical JSON of each emitted execution."""
    return sorted(dumps(execution_to_doc(x, "sequence")) for _, x in pairs)


# sha256 over the newline-joined sorted canonical JSON of the emitted
# executions, taken from the explorer that still offered pulls as moves.
SET_DIGESTS = {
    "fig3a": (354, "8435256baef3683a1859f36a1227bcf7e21516d45988d9481e3275f384a74835"),
    "fig3b": (29, "bd93881d21756b93d2719b1bcec8077d0a20e6768d9b7a3bf9e1e3d0e8d0c0d5"),
    "fig5": (2_434, "a57cb21012c9d287596218f9ae074ad7b2a265cd8a4b8e2bfd66b01af191d236"),
    "sampled27": (313, "70f851b9d681705016d36157743b68cf3ab48ae8cd8faf855619b2b60f770daa"),
}


@pytest.mark.parametrize("name", sorted(SET_DIGESTS))
def test_explore_execution_sets_are_pinned(explored, name):
    docs = execution_set(explored(name))
    assert len(set(docs)) == len(docs)
    digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
    assert (len(docs), digest) == SET_DIGESTS[name]


@pytest.mark.parametrize("name", ["fig3a", "fig5", "sampled27"])
def test_explore_is_complete_against_random_walks(sem, explored, name):
    # The random walk takes every enabled move, finished clients' pulls
    # included, so each of its executions must be among the explored ones.
    programs = EXPLORED_PROGRAMS[name]()
    found = set(explored(name))
    rng = random.Random(5)
    for _ in range(200):
        run = _random_walk(programs, sem, rng)
        assert (extract_history(run), extract_execution(run)) in found


@pytest.mark.parametrize("name, states", [("fig3a", 2_907), ("fig5", 12_314)])
def test_explore_drops_dead_state(sem, explored, name, states):
    # What each reduction saves, as the states these programs need without
    # it and with the others kept: folding pulls into the next call, 3,597
    # and 17,189; resetting a finished client to its pending entries, 4,593
    # and 14,154; keeping the returned events sorted by id, 3,874 and
    # 17,118; taking an open unfenced body as its state's only move, 3,593
    # and 14,305.
    assert list(explore(EXPLORED_PROGRAMS[name](), sem, max_states=states)) == explored(name)


def test_explore_builds_one_history_per_returned_events_and_rt(sem, monkeypatch):
    # fig5's 3,581 distinct terminal states flush to 2,434 distinct
    # executions, which hold only 135 distinct (return values, rt) keys.
    built, flushed = [], []
    history, key = protocol._history, protocol._Walk.flushed
    monkeypatch.setattr(protocol, "_history", lambda *a: built.append(a) or history(*a))
    monkeypatch.setattr(protocol._Walk, "flushed", lambda *a: flushed.append(a) or key(*a))
    assert len(list(explore(EXPLORED_PROGRAMS["fig5"](), sem))) == 2_434
    assert len(flushed) == 3_581
    assert len(built) == len(set(built)) == 135


def test_explore_touches_no_token(sem, monkeypatch):
    # explore applies its moves and flushes its terminals on the world
    # itself, so neither the token judge nor the token flush runs.
    def refuse(*args):
        raise AssertionError("explore went through the token layer")
    monkeypatch.setattr(protocol, "step", refuse)
    monkeypatch.setattr(protocol, "flush_suffix", refuse)
    assert len(list(explore(EXPLORED_PROGRAMS["fig5"](), sem))) == 2_434


def reference_finish(run, histories, emitted):
    """Flush a terminal run's pushes and give its (history, execution)
    pair, or None when ``emitted`` already holds its key (returned events,
    rt, flushed server log).  ``histories`` keeps the history of each
    (returned events, rt) already built."""
    _, events, rt = run
    server = protocol._flushed(run.world)
    key = (events, rt, server)
    if key in emitted:
        return None
    emitted.add(key)
    h = histories.get((events, rt))
    if h is None:
        h = histories[events, rt] = protocol._history(events, rt)
    return h, protocol._execution(h, events, server)


def unreduced_explore(programs, sem):
    """The emitted pairs, in order, of a walk that takes every ``_moves``
    token through ``step`` (no body-first rule, pulls as moves, no reset
    of finished clients), deduplicated by ``Run``, with the flush of
    ``flush_suffix``'s pushes."""
    init = protocol.Run(World.initial(programs), (), frozenset())
    seen = {init}
    stack = [init]
    out, histories, emitted = [], {}, set()
    while stack:
        run = stack.pop()
        if protocol._terminal(run.world, programs):
            pair = reference_finish(run, histories, emitted)
            if pair is not None:
                out.append(pair)
            continue
        for token in protocol._moves(run.world, programs):
            nxt = protocol._apply(run, token, sem)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return out


REDUCTION_PROGRAMS = {
    # Grid kinds A: append, read and B: append, read, under each fence choice.
    **{f"grid{i}": lambda i=i: soundness_grid_programs()[i] for i in range(20, 24)},
    "fig3a": EXPLORED_PROGRAMS["fig3a"],
    "fig3b": EXPLORED_PROGRAMS["fig3b"],
    "sampled27": EXPLORED_PROGRAMS["sampled27"],
    "three_clients": lambda: {
        "A": (("x", Op("append", 1), frozenset()),),
        "B": (("x", Op("append", 2), frozenset({"push"})),),
        "C": (("x", Op("read"), frozenset({"pull"})),),
    },
}


@pytest.mark.parametrize("name", sorted(REDUCTION_PROGRAMS))
def test_explore_matches_unreduced_walk(sem, name):
    # Taking an open unfenced body alone is a singleton persistent set: it
    # reads and writes only its own client's logs, so every other move
    # commutes with it.  A fenced body touches the server and must stay
    # interleaved: taking a push- or pull-fenced body alone loses executions
    # of the fenced programs here.  Folding pulls into the next call keeps
    # the set but not the order in which the walk reaches it, so the sets
    # are compared; fig3a and sampled27 mix pull-fenced and unfenced calls.
    programs = REDUCTION_PROGRAMS[name]()
    reduced = execution_set(explore(programs, sem))
    unreduced = execution_set(unreduced_explore(programs, sem))
    assert len(set(reduced)) == len(reduced)
    assert reduced == unreduced


@pytest.mark.parametrize("cls", [Op, Token, protocol.Frame, protocol.ClientState, World,
                                 protocol.EventRecord, protocol.Run])
def test_explored_state_types_hash_in_c(cls):
    # ``explore`` no longer hashes these: its states are plain tuples (see
    # the next test).  The token-level walks still build and compare them,
    # and the reference walk above keeps ``Run``s in its ``seen`` set; a
    # dataclass's generated __hash__ would run in Python.
    assert issubclass(cls, tuple)
    assert cls.__hash__ is tuple.__hash__


def test_explored_states_are_untracked_by_the_collector(sem):
    # explore keeps its states in ``seen`` for the whole walk.  Each is an
    # exact tuple of ints, None and such tuples, and a collection untracks
    # every exact tuple whose items are untracked, so later collections stop
    # rescanning it.  Tuples nest four deep (state, bodies, a body, its
    # return value), so four collections untrack them whatever order the
    # collector visits them in.
    walk = protocol._Walk(EXPLORED_PROGRAMS["fig5"](), sem)
    seen, stack = {walk.initial}, [walk.initial]
    while stack:
        for nxt in walk.successors(stack.pop()) or ():
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    assert len(seen) == 12_314
    assert any(type(b[0]) is tuple for state in seen for b in state[2] if b is not None)
    for _ in range(4):
        gc.collect()
    assert [s for s in seen if gc.is_tracked(s)] == []


# The counts at a cap pin the dedup partition and the walk order past the
# first few states; taken from the explorer over named-tuple runs.
CAP_COUNTS = {
    "fig3d": (20_000, "20001 states seen, 5272 terminal states reached, "
              "3424 distinct executions emitted"),
    "fig5": (5_000, "5001 states seen, 1475 terminal states reached, "
             "1056 distinct executions emitted"),
}


@pytest.mark.parametrize("name", sorted(CAP_COUNTS))
def test_explore_cap_counts_on_larger_programs(sem, name):
    cap, message = CAP_COUNTS[name]
    programs = programs_of(fixture(name).history.canonical())
    with pytest.raises(EnumerationCapError, match=f"exceeded {cap} states: {message}$"):
        list(explore(programs, sem, max_states=cap))


def test_enumerate_histories_fig3b_programs(sem):
    progs = programs_of(fixture("fig3b").history.canonical())
    hs = {h for h, _ in explore(progs, sem)}
    assert len(hs) == 12
    # Distinct sort keys give ``gsclab enumerate`` one order of its files.
    keys = sorted(h.sort_key() for h in hs)
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig5"])
def test_can_produce_member(sem, name):
    assert producible(fixture(name).history, sem)


@pytest.mark.parametrize("name", ["fig3b", "grid20", "grid21", "grid22", "grid23"])
def test_can_produce_every_explored_history(sem, name):
    # Cross-checks explore's reductions against the token oracle: every
    # history the compact walk emits, with pulls folded into calls and
    # open unfenced bodies taken first, is reached by some run over the
    # unreduced token moves too.
    histories = {h for h, _ in explore(REDUCTION_PROGRAMS[name](), sem)}
    assert histories
    assert all(producible(h, sem) for h in histories)


def test_can_produce_rejects_long_fork(sem):
    # Exhaustive negative: no schedule of the long-fork programs reproduces
    # its read pattern, because the server log orders the two appends one
    # way and every reader's view extends a log prefix.
    assert not producible(fixture("fig3d").history, sem)
