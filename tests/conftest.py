"""Shared corpora for the test suite.

The session-scoped ``corpus`` fixture streams every execution reachable
from the soundness program grid (plus a seeded two-object sample) through
the axiom checker exactly once, and the grid's through the pair-by-pair
reference checker as well, keeping counts, a deterministic sample of
executions for relational property checks, and, per deduplicated canonical
history, the first extracted witness execution for the completeness and
transformation sweeps.  ``explore`` already names events by the canonical
client:index scheme, so its histories key the witnesses as they are.
"""

from __future__ import annotations

import dataclasses

import pytest

from gsclab import (
    AbstractExecution,
    History,
    check_axioms,
    explore,
    get_semantics,
)
from gsclab.generators import soundness_grid_programs, soundness_sampled_programs

from helpers import pairwise_check_axioms

CORPUS_SEED = 20250813


@dataclasses.dataclass
class Corpus:
    executions_checked: int
    axiom_failures: list
    reference_checked: int
    reference_mismatches: list
    sample_executions: list
    unique_histories: list
    witnesses: dict


@pytest.fixture(scope="session")
def sem():
    return get_semantics("sequence")


@pytest.fixture(scope="session")
def corpus(sem) -> Corpus:
    grid = soundness_grid_programs()
    programs = grid + soundness_sampled_programs(CORPUS_SEED, count=100)
    checked = referenced = 0
    failures: list = []
    mismatches: list = []
    sample: list = []
    witnesses: dict[History, AbstractExecution] = {}
    for k, prog in enumerate(programs):
        for h, x in explore(prog, sem):
            rep = check_axioms(x, sem)
            checked += 1
            if not rep.ok:
                failures.append((prog, rep.failed()))
            if k < len(grid):
                referenced += 1
                if rep != pairwise_check_axioms(x, sem):
                    mismatches.append(x)
            if checked % 53 == 0 and len(sample) < 500:
                sample.append(x)
            if h not in witnesses:
                witnesses[h] = x
    ordered = sorted(witnesses, key=History.sort_key)
    return Corpus(checked, failures, referenced, mismatches, sample, ordered, witnesses)
