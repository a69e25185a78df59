"""Program and run corpora backing the batch test drivers and the benchmark.

Two families: an exhaustive grid of small two-client programs whose every
reachable execution must satisfy the axioms (soundness sweeps), and seeded
random well-fenced two-object runs for the composition theorem.  All
randomness flows through explicit random.Random instances so corpora are
reproducible from a seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Mapping

from .model import PULL, PUSH, Op
from .protocol import (
    Program,
    Run,
    World,
    _apply,
    _moves,
    _quiesce,
    _terminal,
    extract_execution,
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
                 rng: random.Random) -> Run:
    """Drive the simulator with uniformly random enabled tokens until every
    program is exhausted, then flush to quiescence."""
    run = Run(World.initial(programs.keys()), (), frozenset())
    while not _terminal(run.world, programs):
        run = _apply(run, rng.choice(_moves(run.world, programs)), semantics)
    return _quiesce(run)


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
    x = extract_execution(_random_walk(programs, semantics, rng))
    return x.history, x
