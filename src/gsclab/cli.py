"""Command-line surface.

Subcommands: check, simulate, synthesize, compose, equiv, enumerate.
A command builds only its own subparser; the full parser is built for
top-level help, for unknown commands, and for the top-level errors.
Exit codes: 0 member / success, 1 non-member, 2 input error (parse,
validation, precondition), 3 internal check failed: synthesize's
SynthesisError, no schedule for a lawful witness or a replay that does not
reproduce it (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .axioms import DEFAULT_MAX_EVENTS, is_gsc
from .composition import PerObjectWitnesses, compose
from .derived import check_lin, check_osc
from .equivalence import to_dual_tso, to_tso
from .model import (
    MODELS,
    History,
    HistoryError,
    apply_fence_preset,
    fence_preset_violation,
    normalize_model,
)
from .generators import random_well_fenced_run
from .protocol import (
    DEFAULT_MAX_STATES,
    EnumerationCapError,
    ScheduleError,
    explore,
    extract_execution,
    programs_of,
    run_to_quiescence,
)
from .semantics import get_semantics
from .serialization import (
    doc_to_execution,
    doc_to_history,
    doc_to_schedule,
    dumps,
    execution_to_doc,
    history_to_doc,
    loads,
    schedule_to_doc,
)
from .synthesis import SynthesisError, synthesize_schedule

MODEL_FLAGS = tuple(m.replace("_", "-") for m in MODELS)
COMMANDS = ("check", "simulate", "synthesize", "compose", "equiv", "enumerate")


def _read(path: str):
    try:
        return loads(pathlib.Path(path).read_text())
    except OSError as err:
        raise HistoryError(f"cannot read {path}: {err}") from err


def _write(path: str, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text)
    except OSError as err:
        raise HistoryError(f"cannot write {path}: {err}") from err


def _count(least: int):
    """An argparse type: an integer of at least ``least``."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


def _load_history(path: str, args) -> tuple[History, str]:
    h, file_sem = doc_to_history(_read(path))
    return h, (args.semantics or file_sem)


def _print_membership(result) -> int:
    if result.member:
        w = result.witness
        print("member")
        print(f"  arbitration: {' < '.join(w.ar.sequence)}")
        print(f"  visibility:  {sorted(w.vis.pairs)}")
        return 0
    print("non-member")
    for line in result.refutations:
        print(f"  {line}")
    return 1


def cmd_check(args) -> int:
    h, sem_name = _load_history(args.history, args)
    semantics = get_semantics(sem_name)
    model = normalize_model(args.model)
    if args.apply_preset:
        h = apply_fence_preset(h, model, semantics)
    elif (violation := fence_preset_violation(h, model, semantics)) is not None:
        print(f"{violation} (pass --apply-preset to rewrite them)", file=sys.stderr)
        return 2
    if model == "lin":
        result = check_lin(h, semantics, max_events=args.max_events)
    elif model == "osc":
        result = check_osc(h, semantics, max_events=args.max_events)
    else:
        result = is_gsc(h, semantics, max_events=args.max_events)
        return _print_membership(result)
    if result.member:
        print("member")
        print(f"  linearization: {' < '.join(result.witness.lin.sequence)}")
        return 0
    print("non-member")
    if result.note:
        print(f"  {result.note}")
    return 1


def cmd_simulate(args) -> int:
    sched = doc_to_schedule(_read(args.schedule))
    semantics = get_semantics(args.semantics or "sequence")
    x = extract_execution(run_to_quiescence(sched, semantics))
    h = x.history
    stem = pathlib.Path(args.schedule)
    hist_out = args.history_out or str(stem.with_suffix("")) + ".history.json"
    exec_out = args.execution_out or str(stem.with_suffix("")) + ".execution.json"
    _write(hist_out, dumps(history_to_doc(h, semantics.name)))
    _write(exec_out, dumps(execution_to_doc(x, semantics.name)))
    print(f"events: {len(h.events)}")
    print(f"server log: {list(x.ar.sequence)}")
    for e in h.events:
        print(f"  {e.id}: {e.client} {e.obj}.{e.op.kind} -> {e.rval!r}")
    print(f"wrote {hist_out}")
    print(f"wrote {exec_out}")
    return 0


def cmd_synthesize(args) -> int:
    x, sem_name = doc_to_execution(_read(args.execution))
    semantics = get_semantics(args.semantics or sem_name)
    sched = synthesize_schedule(x, semantics)
    out = args.out or str(pathlib.Path(args.execution).with_suffix("")) + ".schedule.json"
    _write(out, dumps(schedule_to_doc(sched)))
    print(f"schedule with {len(sched.steps)} steps; replay verified "
          f"(history, visibility, arbitration all reproduced)")
    print(f"wrote {out}")
    return 0


def cmd_compose(args) -> int:
    h, sem_name = _load_history(args.history, args)
    semantics = get_semantics(sem_name)
    per_object = {}
    for path in args.witnesses:
        w, _ = doc_to_execution(_read(path))
        objs = w.history.objects()
        if len(objs) != 1:
            raise HistoryError(
                f"{path}: witness must cover exactly one object, has {objs}"
            )
        per_object[objs[0]] = w
    x = compose(PerObjectWitnesses(h, per_object), semantics)
    out = args.out or str(pathlib.Path(args.history).with_suffix("")) + ".composed.json"
    _write(out, dumps(execution_to_doc(x, semantics.name)))
    print(f"composed execution over {list(per_object)}")
    print(f"  arbitration: {' < '.join(x.ar.sequence)}")
    print(f"wrote {out}")
    return 0


def cmd_equiv(args) -> int:
    x, sem_name = doc_to_execution(_read(args.execution))
    semantics = get_semantics(args.semantics or sem_name)
    stem = pathlib.Path(args.execution).with_suffix("")
    wrote = []
    if args.to in ("dual-tso", "both"):
        d = to_dual_tso(x, semantics)
        path = args.push_out or f"{stem}.push.json"
        _write(path, dumps(execution_to_doc(d, semantics.name)))
        wrote.append(path)
    if args.to in ("tso", "both"):
        t = to_tso(x, semantics)
        path = args.pull_out or f"{stem}.pull.json"
        _write(path, dumps(execution_to_doc(t, semantics.name)))
        wrote.append(path)
    for path in wrote:
        print(f"wrote {path}")
    return 0


def cmd_enumerate(args) -> int:
    sem_name = args.semantics or "sequence"
    if not args.sample:
        h, sem_name = _load_history(args.history, args)
    semantics = get_semantics(sem_name)
    out_dir = pathlib.Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise HistoryError(f"cannot write {out_dir}: {err}") from err
    if args.sample:
        import random

        rng = random.Random(args.seed)
        results = [random_well_fenced_run(rng, semantics)[0] for _ in range(args.sample)]
    else:
        explored = explore(programs_of(h), semantics, max_states=args.max_schedules)
        results = sorted((hist for hist, _ in explored), key=History.sort_key)
    # One file per execution, so histories repeat: each distinct history is
    # decided and serialized once.
    rows = {}
    for hist in dict.fromkeys(results):
        member = is_gsc(hist, semantics, max_events=args.max_events).member
        rvals = {e.id: e.rval for e in hist.events if e.rval is not None}
        rows[hist] = (dumps(history_to_doc(hist, semantics.name)), member,
                      f"events={len(hist.events)}  member={member}  rvals={rvals}")
    members = 0
    for i, hist in enumerate(results):
        text, member, row = rows[hist]
        name = f"history-{i:04d}.json"
        _write(str(out_dir / name), text)
        members += member
        print(f"{name}  {row}")
    print(f"total: {len(results)} histories, {members} members -> {out_dir}")
    return 0


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the subcommand ``argv[0]`` names, if any."""
    only = argv[0] if argv and argv[0] in COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="gsclab",
        description="Workbench for the shared-log consistency model: "
        "membership checking, protocol simulation, schedule synthesis, "
        "composition, and fencing transformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--semantics", choices=("sequence", "register"),
                       help="override the document's object semantics")

    def max_events(p):
        p.add_argument("--max-events", type=_count(1), default=DEFAULT_MAX_EVENTS,
                       help=f"membership search cap (default {DEFAULT_MAX_EVENTS})")

    if only in (None, "check"):
        p = sub.add_parser("check", help="decide membership of a history file")
        p.add_argument("history")
        p.add_argument("--model", choices=MODEL_FLAGS, default="gsc")
        p.add_argument("--apply-preset", action="store_true",
                       help="rewrite fences to the model's preset before checking")
        common(p)
        max_events(p)
        p.set_defaults(fn=cmd_check)

    if only in (None, "simulate"):
        p = sub.add_parser("simulate", help="replay a schedule file")
        p.add_argument("schedule")
        p.add_argument("--history-out")
        p.add_argument("--execution-out")
        common(p)
        p.set_defaults(fn=cmd_simulate)

    if only in (None, "synthesize"):
        p = sub.add_parser("synthesize",
                           help="compile a witness execution into a schedule")
        p.add_argument("execution")
        p.add_argument("-o", "--out")
        common(p)
        p.set_defaults(fn=cmd_synthesize)

    if only in (None, "compose"):
        p = sub.add_parser("compose",
                           help="compose per-object witnesses over a well-fenced history")
        p.add_argument("history")
        p.add_argument("witnesses", nargs="+",
                       help="execution files, one per object")
        p.add_argument("-o", "--out")
        common(p)
        p.set_defaults(fn=cmd_compose)

    if only in (None, "equiv"):
        p = sub.add_parser("equiv",
                           help="all-push / all-pull forms of a fence-free witness")
        p.add_argument("execution")
        p.add_argument("--to", choices=("tso", "dual-tso", "both"), default="both")
        p.add_argument("--push-out")
        p.add_argument("--pull-out")
        common(p)
        p.set_defaults(fn=cmd_equiv)

    if only in (None, "enumerate"):
        p = sub.add_parser("enumerate",
                           help="write the history of every reachable execution of a "
                           "history's programs",
                           description="Write one history file per distinct reachable "
                           "execution, so a history repeats once per execution that has "
                           "it (fig3a: 354 files, 89 distinct histories); each distinct "
                           "history is checked for membership once.")
        p.add_argument("history", nargs="?",
                       help="history file whose programs to explore")
        p.add_argument("--out-dir", required=True)
        p.add_argument("--max-schedules", type=_count(1), default=DEFAULT_MAX_STATES,
                       help="exploration state cap")
        p.add_argument("--sample", type=_count(0), default=0,
                       help="emit N random well-fenced runs instead of exploring")
        p.add_argument("--seed", type=int, default=0)
        common(p)
        max_events(p)
        p.set_defaults(fn=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv).parse_known_args(argv)
    # The top-level parser's errors print its usage, which lists every command.
    if extra:
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "enumerate" and not args.sample and not args.history:
        build_parser().error("enumerate needs a history file or --sample N")
    try:
        return args.fn(args)
    except (HistoryError, ScheduleError, EnumerationCapError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SynthesisError as err:
        print(f"internal check failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
