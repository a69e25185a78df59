"""Workbench for the shared-log consistency model.

A client/server log protocol simulator, an axiomatic checker for the
eight-law specification it implements, a membership decision procedure,
schedule synthesis (completeness direction), per-object composition,
fencing transformations, and linearizability / ordered-sequential
checkers, with litmus fixtures and JSON file formats.
"""

from .axioms import (
    AXIOM_NAMES,
    check_axioms,
    is_gsc,
    minimal_visibility,
)
from .composition import PerObjectWitnesses, compose
from .derived import (
    check_lin,
    check_osc,
    lin_from_osc_execution,
    osc_execution_from_lin,
)
from .equivalence import to_dual_tso, to_tso
from .fixtures import FIXTURE_NAMES, all_fixtures, fixture
from .model import (
    PULL,
    PUSH,
    AbstractExecution,
    Event,
    History,
    HistoryError,
    Interval,
    Op,
    apply_fence_preset,
    check_fence_preset,
    erase_fences,
    is_well_fenced,
    make_history,
    project,
    rt_from_intervals,
    set_all_fences,
    validate_history,
)
from .protocol import (
    EnumerationCapError,
    Schedule,
    ScheduleError,
    Token,
    World,
    body,
    call,
    explore,
    extract_execution,
    extract_history,
    flush_suffix,
    programs_of,
    pull,
    push,
    ret,
    run_schedule,
    run_to_quiescence,
    step,
)
from .relations import Relation, TotalOrder, extend_to_total
from .semantics import SEQUENCE, get_semantics
from .synthesis import (
    SynthesisError,
    body_order,
    scheduling_precedence,
    synthesize_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AXIOM_NAMES",
    "AbstractExecution",
    "EnumerationCapError",
    "Event",
    "FIXTURE_NAMES",
    "History",
    "HistoryError",
    "Interval",
    "Op",
    "PULL",
    "PUSH",
    "PerObjectWitnesses",
    "Relation",
    "SEQUENCE",
    "Schedule",
    "ScheduleError",
    "SynthesisError",
    "Token",
    "TotalOrder",
    "World",
    "all_fixtures",
    "apply_fence_preset",
    "body",
    "body_order",
    "call",
    "check_axioms",
    "check_fence_preset",
    "check_lin",
    "check_osc",
    "compose",
    "erase_fences",
    "explore",
    "extend_to_total",
    "extract_execution",
    "extract_history",
    "fixture",
    "flush_suffix",
    "get_semantics",
    "is_gsc",
    "is_well_fenced",
    "lin_from_osc_execution",
    "make_history",
    "minimal_visibility",
    "osc_execution_from_lin",
    "programs_of",
    "project",
    "pull",
    "push",
    "ret",
    "rt_from_intervals",
    "run_schedule",
    "run_to_quiescence",
    "scheduling_precedence",
    "set_all_fences",
    "step",
    "synthesize_schedule",
    "to_dual_tso",
    "to_tso",
    "validate_history",
]
