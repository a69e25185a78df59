"""Program and history corpora backing the batch test drivers.

Three families: an exhaustive grid of small two-client programs whose every
reachable execution must satisfy the axioms (soundness sweeps), seeded
random well-fenced two-object runs for the composition theorem, and seeded
random unconstrained histories for differential membership testing.  All
randomness flows through explicit random.Random instances so corpora are
reproducible from a seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Mapping

from .model import (
    PULL,
    PUSH,
    Event,
    History,
    Interval,
    Op,
    make_history,
    validate_history,
)
from .protocol import (
    Program,
    Schedule,
    SimRun,
    World,
    _moves,
    _terminal,
    extract_execution,
    extract_history,
    run_to_quiescence,
    step,
)
from .semantics import ObjectSemantics

FENCE_CHOICES: tuple[frozenset[str], ...] = (
    frozenset(),
    frozenset({PUSH}),
    frozenset({PULL}),
    frozenset({PUSH, PULL}),
)


def _op_for(kind: str, counter: Iterator[int]) -> Op:
    if kind == "a":
        return Op("append", next(counter))
    return Op("read")


def soundness_grid_programs() -> list[dict[str, Program]]:
    """Every two-client, two-operation, single-object program over
    append/read kinds, crossed with a uniform fence assignment: 16 kind
    combinations times 4 fence choices.  Append values are distinct."""
    out: list[dict[str, Program]] = []
    for kinds in itertools.product("ar", repeat=4):
        for fences in FENCE_CHOICES:
            counter = itertools.count(1)
            ops = [_op_for(k, counter) for k in kinds]
            out.append({
                "A": (("x", ops[0], fences), ("x", ops[1], fences)),
                "B": (("x", ops[2], fences), ("x", ops[3], fences)),
            })
    return out


def soundness_sampled_programs(seed: int, count: int = 100) -> list[dict[str, Program]]:
    """Seeded two-client, two-object programs with per-event random kinds,
    objects, and fences."""
    rng = random.Random(seed)
    out: list[dict[str, Program]] = []
    for _ in range(count):
        counter = itertools.count(1)
        prog: dict[str, Program] = {}
        for client in ("A", "B"):
            events = []
            for _ in range(rng.randint(1, 2)):
                obj = rng.choice(("x", "y"))
                op = _op_for(rng.choice("ar"), counter)
                events.append((obj, op, rng.choice(FENCE_CHOICES)))
            prog[client] = tuple(events)
        out.append(prog)
    return out


def _well_fenced_program(rng: random.Random, counter: Iterator[int],
                         length: int) -> Program:
    """A single session over objects x and y with a push on the event before
    every object switch and a pull on the event after it, which makes any
    history built from such sessions well-fenced (two objects)."""
    objs = [rng.choice(("x", "y")) for _ in range(length)]
    kinds = [rng.choice("ar") for _ in range(length)]
    fences = [set() for _ in range(length)]
    for i in range(length - 1):
        if objs[i] != objs[i + 1]:
            fences[i].add(PUSH)
            fences[i + 1].add(PULL)
    for i in range(length):
        if rng.random() < 0.2:
            fences[i].add(rng.choice((PUSH, PULL)))
    return tuple(
        (objs[i], _op_for(kinds[i], counter), frozenset(fences[i]))
        for i in range(length)
    )


def _random_walk(programs: Mapping[str, Program], semantics: ObjectSemantics,
                 rng: random.Random) -> SimRun:
    """Drive the simulator with uniformly random enabled tokens until every
    program is exhausted, then flush to quiescence."""
    world = World.initial(programs.keys())
    tokens = []
    while not _terminal(world, programs):
        token = rng.choice(_moves(world, programs))
        world, _ = step(world, token, semantics)
        tokens.append(token)
    return run_to_quiescence(Schedule(tuple(tokens)), semantics)


def random_well_fenced_run(rng: random.Random, semantics: ObjectSemantics,
                           clients: int = 2, max_ops: int = 3):
    """A random well-fenced two-object history together with the execution
    the simulator extracted for it."""
    counter = itertools.count(1)
    names = [chr(ord("A") + i) for i in range(clients)]
    programs = {
        c: _well_fenced_program(rng, counter, rng.randint(1, max_ops))
        for c in names
    }
    run = _random_walk(programs, semantics, rng)
    return extract_history(run), extract_execution(run)


def random_history(rng: random.Random, max_events: int = 6) -> History:
    """A random single-object history: distinct append values, read returns
    drawn as shuffled subsequences of them (frequently unrealizable), random
    fences, and random interval-assigned returns-before."""
    n = rng.randint(2, max_events)
    n_clients = rng.randint(1, min(3, n))
    names = [chr(ord("A") + i) for i in range(n_clients)]
    owners = [names[i] if i < n_clients else rng.choice(names) for i in range(n)]
    rng.shuffle(owners)
    counter = itertools.count(1)
    kinds = [rng.choice("aar") for _ in range(n)]
    values = [next(counter) if k == "a" else None for k in kinds]
    all_values = [v for v in values if v is not None]
    events = []
    sessions: dict[str, list[str]] = {c: [] for c in names}
    intervals: dict[str, Interval] = {}
    clock = 0.0
    last_end = {c: -10.0 for c in names}
    for i in range(n):
        eid = f"e{i}"
        client = owners[i]
        if kinds[i] == "a":
            op, rval = Op("append", values[i]), None
        else:
            subset = [v for v in all_values if rng.random() < 0.5]
            if rng.random() < 0.3:
                rng.shuffle(subset)
            op, rval = Op("read"), tuple(subset)
        fences = rng.choice(FENCE_CHOICES)
        start = max(clock + rng.uniform(-1.5, 0.5), last_end[client] + 0.1)
        end = start + rng.uniform(0.5, 3.0)
        last_end[client] = end
        clock = max(clock, start) + rng.uniform(0.1, 1.0)
        intervals[eid] = Interval(start, end)
        events.append(Event(eid, client, "x", op, rval, fences))
        sessions[client].append(eid)
    h = make_history(events, {c: ids for c, ids in sessions.items() if ids}, intervals)
    assert not validate_history(h)
    return h
