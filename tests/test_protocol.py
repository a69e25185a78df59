"""Simulator tests: schedule grammar, step mechanics, extraction, golden
replays of the bundled schedules, and the bounded exhaustive exploration."""

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
    can_produce,
    enumerate_histories,
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
    validate_schedule,
)
from gsclab.generators import _random_walk, soundness_sampled_programs
from gsclab.serialization import dumps, execution_to_doc


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


def test_validate_accepts_well_formed():
    assert validate_schedule(simple_schedule()) == []


def test_validate_call_without_obj():
    bad = Schedule((Token("call", "a"), body("a"), ret("a")))
    problems = validate_schedule(bad)
    assert any("without obj/op" in p for p in problems)


def test_validate_duplicate_explicit_id():
    steps = (
        call("a", "x", Op("append", 1), id="e"), body("a"), ret("a"),
        call("a", "x", Op("append", 2), id="e"), body("a"), ret("a"),
    )
    problems = validate_schedule(Schedule(steps))
    assert any("duplicate explicit event id" in p for p in problems)


def test_validate_nested_call():
    steps = (call("a", "x", Op("append", 1)), call("a", "x", Op("append", 2)))
    problems = validate_schedule(Schedule(steps))
    assert any("while an exec is in progress" in p for p in problems)


def test_validate_body_without_call():
    assert any("without a pending call" in p
               for p in validate_schedule(Schedule((body("a"),))))


def test_validate_ret_without_body():
    steps = (call("a", "x", Op("append", 1)), ret("a"))
    assert any("without an evaluated body" in p
               for p in validate_schedule(Schedule(steps)))


def test_validate_fence_token_inside_exec():
    steps = (call("a", "x", Op("append", 1)), push("a"), body("a"), ret("a"))
    assert any("between call and ret" in p
               for p in validate_schedule(Schedule(steps)))


def test_validate_unknown_kind():
    assert any("unknown token kind" in p
               for p in validate_schedule(Schedule((Token("flush", "a"),))))


def test_validate_left_mid_execution():
    steps = (call("a", "x", Op("append", 1)), body("a"))
    assert any("left mid-execution" in p
               for p in validate_schedule(Schedule(steps)))


# -- step mechanics ------------------------------------------------------------


def test_push_disabled_on_empty_pending(sem):
    world = World.initial(["a"])
    with pytest.raises(ScheduleError, match="pending empty"):
        step(world, push("a"), sem)


def test_pull_disabled_when_caught_up(sem):
    world = World.initial(["a"])
    with pytest.raises(ScheduleError, match="known equals server log"):
        step(world, pull("a"), sem)


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


def test_run_schedule_extra_clients(sem):
    run = run_schedule(Schedule(tuple(exec_tokens("a", "x", Op("append", 1)))),
                       sem, clients=["b"])
    assert [c for c, _ in run.world.clients] == ["a", "b"]


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
    base = run_schedule(Schedule(tuple(
        exec_tokens("a", "x", Op("append", 1)) + exec_tokens("b", "x", Op("append", 2))
    )), sem)
    assert not base.world.quiescent()
    world = base.world
    for token in flush_suffix(world):
        world, _ = step(world, token, sem)
    assert world.quiescent()


def test_run_to_quiescence_no_op_when_quiescent(sem):
    sched = Schedule(tuple(
        exec_tokens("a", "x", Op("append", 1), fences=("push",)) + [pull("a")]
    ))
    run = run_to_quiescence(sched, sem)
    assert run.schedule == sched


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
        assert h.canonical() == h
        assert x.history == h


def test_explore_rejects_bad_fences(sem):
    progs = {"a": ((("x"), Op("append", 1), frozenset({"flush"})),)}
    with pytest.raises(ValueError, match="bad fences"):
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
# order, taken from the explorer before it skipped finished clients' pulls
# and flushed each distinct terminal once.  The corpus samples every 53rd
# execution and keeps the first witness per history, so both rest on it.
EMISSION_DIGESTS = {
    "fig3a": "7bb3f582dc096b6d49b206decd362975a21bc88112624cf14f713dbf88383266",
    "fig3b": "4ad6a732ac6721a0889c289795ec916c1a25c67a43f55e680011d0b34227623b",
    "fig5": "65fc3922bb177176f2624d3ad836c1f7f7a5cb7d6dbbf43de278e0b678022529",
    "sampled27": "97c4016a5e8da063d2f02de43e117fda4aa532731448d0dea4960d407eabfe40",
}


@pytest.mark.parametrize("name", sorted(EMISSION_DIGESTS))
def test_explore_emission_order_is_pinned(explored, name):
    digest = hashlib.sha256()
    for _, x in explored(name):
        digest.update(dumps(execution_to_doc(x, "sequence")).encode())
    assert digest.hexdigest() == EMISSION_DIGESTS[name]


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


@pytest.mark.parametrize("name, states", [("fig3a", 4_317), ("fig5", 19_546)])
def test_explore_drops_dead_state(sem, explored, name, states):
    # A finished client's known prefix and unacked entries, and the order in
    # which events returned, are no part of the explored state: without
    # that, these programs need 8,501 and 30,015 states.
    assert list(explore(EXPLORED_PROGRAMS[name](), sem, max_states=states)) == explored(name)


def test_enumerate_histories_fig3b_programs(sem):
    progs = programs_of(fixture("fig3b").history.canonical())
    hs = enumerate_histories(progs, sem)
    assert len(hs) == 12
    assert hs == sorted(hs, key=lambda h: h.sort_key())


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig5"])
def test_can_produce_member(sem, name):
    assert can_produce(fixture(name).history, sem)


def test_can_produce_rejects_long_fork(sem):
    # Exhaustive negative: no schedule of the long-fork programs reproduces
    # its read pattern, because the server log orders the two appends one
    # way and every reader's view extends a log prefix.
    assert not can_produce(fixture("fig3d").history, sem)
