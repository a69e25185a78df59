"""End-to-end command-line tests: every subcommand, every exit-code class,
and determinism of the enumeration output."""

import copy
import hashlib
import json
import pathlib
import random

import pytest

from gsclab import (
    AbstractExecution,
    Event,
    Op,
    Relation,
    TotalOrder,
    check_axioms,
    extract_execution,
    extract_history,
    fixture,
    is_gsc,
    make_history,
    project,
    run_to_quiescence,
)
from gsclab import cli, synthesis
from gsclab.axioms import DEFAULT_MAX_EVENTS
from gsclab.cli import main
from gsclab.generators import random_well_fenced_run
from gsclab.serialization import (
    doc_to_execution,
    doc_to_history,
    doc_to_schedule,
    dumps,
    execution_to_doc,
    history_to_doc,
    loads,
)

from helpers import fig3b_push_variant, misreported_append, to_register

FIXDIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXDIR / f"{name}.json")


# -- check ------------------------------------------------------------------------


def test_check_member(capsys):
    assert main(["check", fixture_path("fig3a")]) == 0
    out = capsys.readouterr().out
    assert "member" in out and "arbitration" in out


def test_check_non_member_prints_narrative(capsys):
    assert main(["check", fixture_path("fig3d")]) == 1
    out = capsys.readouterr().out
    assert "non-member" in out
    assert "RETVAL" in out and "observed-visibility" in out


def test_check_misreported_append_is_non_member(tmp_path, capsys):
    path = tmp_path / "append.json"
    path.write_text(dumps(history_to_doc(misreported_append(), "sequence")))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "non-member\n  ar ['e1', 'r']: laws violated: RETVAL\n")


def test_check_fence_preset_guard(capsys):
    assert main(["check", fixture_path("fig3a"), "--model", "tso"]) == 2
    err = capsys.readouterr().err
    assert "fence preset violated" in err and "--apply-preset" in err


def test_check_preset_verdicts(capsys):
    argv = ["check", fixture_path("fig3a"), "--apply-preset", "--model"]
    assert main(argv + ["tso"]) == 1
    assert main(argv + ["dual-tso"]) == 0
    assert main(argv + ["lin"]) == 1
    assert "non-member" in capsys.readouterr().out


def test_check_osc_prints_linearization(capsys):
    argv = ["check", fixture_path("fig5"), "--apply-preset", "--model", "osc"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "linearization: e < p < g < f" in out


def test_check_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_list_valued_op_is_exit_2(tmp_path, capsys):
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    doc["events"][0]["op"]["value"] = [1]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    assert main(["check", str(bad)]) == 2
    assert "events[0]: op value must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("index, op, field", [
    (0, {"kind": "append"}, "events[0]: op value missing: append needs an integer value"),
    (1, {"kind": "read", "value": 2}, "events[1]: op value given: read takes none"),
], ids=["append-no-value", "read-with-value"])
def test_check_op_value_mismatch_is_exit_2(tmp_path, capsys, index, op, field):
    doc = history_to_doc(fixture("fig3a").history, "sequence")
    doc["events"][index]["op"] = op
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    assert main(["check", str(bad)]) == 2
    assert field in capsys.readouterr().err


def test_check_missing_file(capsys):
    assert main(["check", str(FIXDIR / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def register_document(h, tmp_path) -> str:
    path = tmp_path / "register.json"
    path.write_text(dumps(history_to_doc(to_register(h), "register")))
    return str(path)


def test_check_register_member(tmp_path, capsys):
    # the register semantics has no decoder: every read is an open observer
    assert main(["check", register_document(fixture("fig3a").history, tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "member\n"
        "  arbitration: e1 < f1 < e2 < f2\n"
        "  visibility:  [('e1', 'e2'), ('f1', 'e2'), ('f1', 'f2')]\n")


def test_check_register_non_member_names_the_observer(tmp_path, capsys):
    assert main(["check", register_document(fig3b_push_variant(), tmp_path)]) == 1
    assert capsys.readouterr().out == (
        "non-member\n"
        "  ar ['e1', 'f1', 'f2']: no visible-update set under this arbitration "
        "lets f2 return 1 (RETVAL)\n")


def text_digest(argv, monkeypatch, capsys) -> str:
    """sha256 of a command's exit code, standard output and standard error
    on an 80-column terminal: argparse wraps help to the terminal width."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return hashlib.sha256(f"{rc}\n{out}\0{err}".encode()).hexdigest()


# Digests of text_digest per command line (split on spaces), taken when every
# command built all six subparsers: help, usage and argument errors, at the
# top level and per command. No command here reads or writes a file.
TEXT_DIGESTS = {
    "": "7fe47b21e8a1cb07f7437540833433624fc9ae748a9f1af3a15e91d23fa5282d",
    "-h": "51e9324bc59b1642a431793eb75e7a08adae13cf6912844fe0613d3a490e3647",
    "-h check": "51e9324bc59b1642a431793eb75e7a08adae13cf6912844fe0613d3a490e3647",
    "bogus": "d83ee96fffbbbe31d5d2da11d6ae60e5f68a2c5d4c1ad8e2f8ed0f59361f5462",
    "check -h": "bd168ca71b90b2331695afb65f3b5e7c81992a0dc83e14457a4a00a66c842fe4",
    "simulate -h": "d18c26e6db611a7d56253e8bd3d0bbd4ababb8a6dc6a3e5c838cb2306abb1fbc",
    "synthesize -h": "78a298f31b434d2a034c359cea0ec9b936269c7bfe3b693a9b1ae5937422b883",
    "compose -h": "6a657d301e572764149f1a8b8845f8f785d7211302c3b7329345391ba3d7bae0",
    "equiv -h": "6347ac1c7075b1b82d6bb337b349009e0b2761e49253ae5fc10127be68332250",
    "enumerate -h": "9f8b079b513ce0ab8fe26e293b4321f7edb74ff641353a2ec6a6069f7d49e96f",
    "check --model nope h.json":
        "c66d2aa27684d37cd7d17b2e578a0e1898b24797ef08504a2d4426c3f1403a3f",
    "check h.json --max-events 0":
        "c37762a33b5b919fe0421e24d5b30f723ea855d61e2397c3167010493a2484ec",
    "simulate s.json --max-events 3":
        "492c33a589ea9323b081d453f8cde7ec5a5c663ef5b8f893f44f95e546a27785",
    "synthesize": "d0d98ac9a0d7cfae1f61c627fb330beb7a0af82bde89d56a211b01256ac44715",
    "compose h.json": "064cc6f9e372fde5448f6bffcb16a889525521dd5ec56be19923d789e1447009",
    "equiv x.json --to nope":
        "dceaa7609fbe73ff23d1795f5bdf27666dcec6551c55b3733d8799409fbb1633",
    "enumerate --out-dir D":
        "7bf9ade1609995a0c82dd7371950281b374b5153b4dce43e07e1ee2b31aae42b",
    "enumerate --sample -1 --out-dir D":
        "c448f8d7533850cb4b4fdb50b4eacaa85820562b42ce8c536fee5435e5695661",
}


@pytest.mark.parametrize("line", list(TEXT_DIGESTS))
def test_command_line_text_is_pinned(monkeypatch, capsys, line):
    assert text_digest(line.split(), monkeypatch, capsys) == TEXT_DIGESTS[line]


def commands_of(parser) -> list[str]:
    [sub] = [a for a in parser._actions if a.dest == "command"]
    return list(sub.choices)


def test_a_command_builds_only_its_own_subparser(monkeypatch, capsys):
    build = cli.build_parser
    for argv in (None, [], ["-h", "check"], ["bogus"]):
        assert commands_of(build(argv)) == list(cli.COMMANDS)
    assert commands_of(build(["check", fixture_path("fig3a")])) == ["check"]
    built = []

    def spy(argv=None):
        parser = build(argv)
        built.append(commands_of(parser))
        return parser
    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["check", fixture_path("fig3a")]) == 0
    assert built == [["check"]]


def test_check_event_cap_defaults_to_the_search_cap():
    args = cli.build_parser().parse_args(["check", fixture_path("fig3a")])
    assert args.max_events == DEFAULT_MAX_EVENTS


@pytest.mark.parametrize("model, verdict", [("gsc", 0), ("lin", 1), ("osc", 1)])
def test_check_event_cap_holds_under_every_model(capsys, model, verdict):
    argv = ["check", fixture_path("fig3a"), "--model", model, "--apply-preset", "--max-events"]
    assert main(argv + ["3"]) == 2
    assert capsys.readouterr().err == (
        "error: history has 4 events, over the cap 3; "
        "raise max_events explicitly for larger inputs\n")
    assert main(argv + ["4"]) == verdict
    assert capsys.readouterr().out.startswith(["member", "non-member"][verdict])


@pytest.mark.parametrize("value", ["0", "-1"])
def test_check_rejects_event_cap_below_one(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["check", fixture_path("fig3a"), "--max-events", value])
    assert exc.value.code == 2
    assert f"argument --max-events: must be at least 1, got {value}" in capsys.readouterr().err


# -- simulate / synthesize -----------------------------------------------------------


def test_simulate_golden_schedule(tmp_path, capsys):
    hist_out = tmp_path / "h.json"
    exec_out = tmp_path / "x.json"
    rc = main(["simulate", str(FIXDIR / "fig3a-schedule.json"),
               "--history-out", str(hist_out), "--execution-out", str(exec_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "server log: ['e1', 'f1', 'e2', 'f2']" in out
    h, _ = doc_to_history(loads(hist_out.read_text()))
    assert h == fixture("fig3a").history
    x, _ = doc_to_execution(loads(exec_out.read_text()))
    assert x == fixture("fig3a").witness


def test_simulate_takes_no_event_cap(tmp_path, capsys):
    # Only check and enumerate decide membership, so only they take --max-events.
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(FIXDIR / "fig3a-schedule.json"), "--max-events", "3",
              "--history-out", str(tmp_path / "h.json"),
              "--execution-out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-events 3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_colliding_event_ids_is_exit_2(tmp_path, capsys):
    # Client A's explicit id b:0 is the id client b's first call gets.
    steps = [
        {"kind": "call", "client": "A", "obj": "x", "op": {"kind": "append", "value": 1},
         "id": "b:0"},
        {"kind": "body", "client": "A"}, {"kind": "ret", "client": "A"},
        {"kind": "call", "client": "b", "obj": "x", "op": {"kind": "read"}},
        {"kind": "body", "client": "b"}, {"kind": "ret", "client": "b"},
    ]
    path = tmp_path / "collide.json"
    path.write_text(dumps({"steps": steps}))
    assert main(["simulate", str(path)]) == 2
    assert "step 3: duplicate event id b:0" in capsys.readouterr().err


@pytest.mark.parametrize("step, op, field", [
    (0, {"kind": "append"}, "steps[0]: op value missing: append needs an integer value"),
    (10, {"kind": "read", "value": 2}, "steps[10]: op value given: read takes none"),
], ids=["append-no-value", "read-with-value"])
def test_simulate_op_value_mismatch_is_exit_2(tmp_path, capsys, step, op, field):
    # Such a schedule once simulated into a history whose read returned
    # [null, 2], which check then rejected.
    doc = loads((FIXDIR / "fig3a-schedule.json").read_text())
    assert doc["steps"][step]["kind"] == "call"
    doc["steps"][step]["op"] = op
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    assert main(["simulate", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_synthesize_then_simulate_round_trip(tmp_path, capsys):
    sched_out = tmp_path / "s.json"
    rc = main(["synthesize", str(FIXDIR / "fig3b-witness.json"),
               "-o", str(sched_out)])
    assert rc == 0
    assert "replay verified" in capsys.readouterr().out
    rc = main(["simulate", str(sched_out),
               "--history-out", str(tmp_path / "h.json"),
               "--execution-out", str(tmp_path / "x.json")])
    assert rc == 0
    h, _ = doc_to_history(loads((tmp_path / "h.json").read_text()))
    assert h.canonical() == fixture("fig3b").history.canonical()


def test_synthesize_in_window_witness_replays(tmp_path, capsys, sem):
    # The reader saw the append although neither returned before the
    # other's call: the schedule pushes and pulls inside the windows.
    events = [
        Event("g", "A", "x", Op("append", 1), None, frozenset()),
        Event("e", "B", "x", Op("read"), (1,), frozenset()),
    ]
    h = make_history(events, {"A": ["g"], "B": ["e"]},
                     Relation.from_pairs(["g", "e"], []))
    x = AbstractExecution(h, Relation.from_pairs(h.ids, [("g", "e")]),
                          TotalOrder(("g", "e")))
    path = tmp_path / "overlap.json"
    path.write_text(dumps(execution_to_doc(x, "sequence")))
    sched_out = tmp_path / "s.json"
    assert main(["synthesize", str(path), "-o", str(sched_out)]) == 0
    assert "replay verified" in capsys.readouterr().out
    run = run_to_quiescence(doc_to_schedule(loads(sched_out.read_text())), sem)
    assert extract_history(run) == h
    assert extract_execution(run).vis == x.vis


def test_synthesis_error_is_exit_3(monkeypatch, capsys, sem):
    # Every lawful witness the tests draw replays to itself, so a replay of
    # another fixture's schedule stands in for a diverging one.
    replay = synthesis.run_schedule(fixture("fig3a").schedule, sem)
    monkeypatch.setattr(synthesis, "run_schedule", lambda schedule, semantics: replay)
    assert main(["synthesize", str(FIXDIR / "fig3b-witness.json")]) == 3
    assert capsys.readouterr().err == (
        "internal check failed: replay produced a different history\n")


# -- compose -----------------------------------------------------------------------


def write_witness_files(h, sem, tmp_path):
    paths = []
    for obj in h.objects():
        res = is_gsc(project(h, obj), sem)
        assert res.member
        p = tmp_path / f"w-{obj}.json"
        p.write_text(dumps(execution_to_doc(res.witness, "sequence")))
        paths.append(str(p))
    return paths


def test_compose_refuses_long_fork(tmp_path, capsys, sem):
    paths = write_witness_files(fixture("fig3d").history, sem, tmp_path)
    rc = main(["compose", fixture_path("fig3d"), *paths])
    assert rc == 2
    assert "not well-fenced" in capsys.readouterr().err


def test_compose_well_fenced_run(tmp_path, capsys, sem):
    import random
    rng = random.Random(19)
    while True:
        h, _ = random_well_fenced_run(rng, sem)
        if len(h.objects()) == 2:
            break
    hpath = tmp_path / "h.json"
    hpath.write_text(dumps(history_to_doc(h, "sequence")))
    paths = write_witness_files(h, sem, tmp_path)
    out = tmp_path / "composed.json"
    rc = main(["compose", str(hpath), *paths, "-o", str(out)])
    assert rc == 0
    assert "composed execution" in capsys.readouterr().out
    x, _ = doc_to_execution(loads(out.read_text()))
    assert check_axioms(x, sem).ok


# -- equiv -------------------------------------------------------------------------


def test_equiv_writes_both_forms(tmp_path, capsys, sem):
    push_out = tmp_path / "p.json"
    pull_out = tmp_path / "q.json"
    rc = main(["equiv", str(FIXDIR / "fig3a-witness.json"),
               "--push-out", str(push_out), "--pull-out", str(pull_out)])
    assert rc == 0
    for path, fence in ((push_out, "push"), (pull_out, "pull")):
        x, _ = doc_to_execution(loads(path.read_text()))
        assert all(e.fences == frozenset({fence}) for e in x.history.events)
        assert check_axioms(x, sem).ok


def test_equiv_rejects_fenced_witness(tmp_path, capsys):
    rc = main(["equiv", str(FIXDIR / "fig5-witness.json")])
    assert rc == 2
    assert "fence-free" in capsys.readouterr().err


# -- enumerate ---------------------------------------------------------------------


def read_dir(d):
    return {p.name: p.read_text() for p in sorted(pathlib.Path(d).iterdir())}


def test_enumerate_explores_programs(tmp_path, capsys, monkeypatch):
    verdicts = []
    monkeypatch.setattr(cli, "is_gsc", lambda h, *a, **k: verdicts.append(h)
                        or is_gsc(h, *a, **k))
    out1 = tmp_path / "a"
    rc = main(["enumerate", fixture_path("fig3b"), "--out-dir", str(out1)])
    assert rc == 0
    text = capsys.readouterr().out
    # explore() yields one pair per distinct execution and enumerate writes
    # the history of each, so fig3b's 29 executions give 29 files over 12
    # distinct histories, each decided once; all are operationally produced
    # and therefore members.
    assert "total: 29 histories, 29 members" in text
    assert len(verdicts) == 12
    files = read_dir(out1)
    assert sorted(files) == [f"history-{i:04d}.json" for i in range(29)]
    # Deterministic: a second run reproduces every byte.
    out2 = tmp_path / "b"
    main(["enumerate", fixture_path("fig3b"), "--out-dir", str(out2)])
    capsys.readouterr()
    assert read_dir(out2) == files


# sha256 of enumerate's standard output, with the output directory written
# <out>, and of its files concatenated in name order; taken when enumerate
# still decided and serialized the history of every execution on its own.
ENUMERATE_DIGESTS = {
    "fig3a": ("7554ae646a858fa3a745e6b9013f726c0ca72a49f7a45982be059ec3705c6b25",
              "edbda9262b7f81efad76f31c599424aa1073c806a5a1fa7d1c038b71ade4e7b8"),
    "fig3b": ("728eef547c437aba513c2ce6264487f4fd86e1305405bf49111cad6b2c557909",
              "a3956895e8e0dfc73aa32855c5169e9013705ed2e34a1cb2a5df855f57a0a68f"),
}


@pytest.mark.parametrize("name", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_is_pinned(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(["enumerate", fixture_path(name), "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out.replace(str(out), "<out>")
    files = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
    assert (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(files).hexdigest()) == ENUMERATE_DIGESTS[name]


def command_digest(argv, out, capsys) -> str:
    """sha256 of a command's exit code, its standard output with the
    directory ``out`` written <out>, and the files it wrote under ``out``
    concatenated in name order."""
    out.mkdir()
    rc = main([a.replace("<out>", str(out)) for a in argv])
    text = capsys.readouterr().out.replace(str(out), "<out>")
    files = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
    return hashlib.sha256(f"{rc}\n{text}".encode() + files).hexdigest()


# Digests of command_digest, taken when each arbitration, linearization and
# schedule order still had its own loop: check --apply-preset per (history
# fixture, model), synthesize per witness fixture, equiv --to both per
# fence-free witness fixture.
CHECK_DIGESTS = {
    ("fig3a", "gsc"): "5fddc1f72b08163fedd30b0ebb1f2423d763c8070e72f90b0a8d36d5901c8f19",
    ("fig3a", "gsp"): "5fddc1f72b08163fedd30b0ebb1f2423d763c8070e72f90b0a8d36d5901c8f19",
    ("fig3a", "tso"): "1a21b349d98b6c8e3f247ffb69e989f55be03b449b94fc99af248226fcdb2129",
    ("fig3a", "dual-tso"): "5fddc1f72b08163fedd30b0ebb1f2423d763c8070e72f90b0a8d36d5901c8f19",
    ("fig3a", "osc"): "f629c6618a43b114dd92211b6136b40c0aaa8950c3a21ef641277ca91fc240dd",
    ("fig3a", "lin"): "4f3f0529b891f6579bed8559c9e164bfcc548e463fcdbb060f6891269fbba260",
    ("fig3b", "gsc"): "722f9e475346e49149e63aceb0e324d73587aec93936ad4e524a5af1db4dd098",
    ("fig3b", "gsp"): "722f9e475346e49149e63aceb0e324d73587aec93936ad4e524a5af1db4dd098",
    ("fig3b", "tso"): "722f9e475346e49149e63aceb0e324d73587aec93936ad4e524a5af1db4dd098",
    ("fig3b", "dual-tso"): "0b611820866402180c0a3494f49f5659cc24f10f5ce4e42e0ca949a960367b21",
    ("fig3b", "osc"): "f629c6618a43b114dd92211b6136b40c0aaa8950c3a21ef641277ca91fc240dd",
    ("fig3b", "lin"): "4f3f0529b891f6579bed8559c9e164bfcc548e463fcdbb060f6891269fbba260",
    ("fig3c", "gsc"): "5ff210fa680a3703f452939d2ac96df35c9c8c48ae18e60a66a6ac400531f1de",
    ("fig3c", "gsp"): "5ff210fa680a3703f452939d2ac96df35c9c8c48ae18e60a66a6ac400531f1de",
    ("fig3c", "tso"): "5ff210fa680a3703f452939d2ac96df35c9c8c48ae18e60a66a6ac400531f1de",
    ("fig3c", "dual-tso"): "39164f71bcedf579463601f8688f0a14e9da11fceb08c8bf274eb94bfd30c2fe",
    ("fig3c", "osc"): "f629c6618a43b114dd92211b6136b40c0aaa8950c3a21ef641277ca91fc240dd",
    ("fig3c", "lin"): "4f3f0529b891f6579bed8559c9e164bfcc548e463fcdbb060f6891269fbba260",
    ("fig3d", "gsc"): "11b7c54f1ad97ba387185def0b6bdb6dd78d76dbbe4bb9e34b346058350a5baa",
    ("fig3d", "gsp"): "11b7c54f1ad97ba387185def0b6bdb6dd78d76dbbe4bb9e34b346058350a5baa",
    ("fig3d", "tso"): "a5472c62f4b1c2cdcbf362f2e53d2fa8d642553036639ae3fd1eae06dc5606b8",
    ("fig3d", "dual-tso"): "bd0e052059655b151dc01a37db040be02410c205cbb303edbe5e5aebe4e66872",
    ("fig3d", "osc"): "f629c6618a43b114dd92211b6136b40c0aaa8950c3a21ef641277ca91fc240dd",
    ("fig3d", "lin"): "4f3f0529b891f6579bed8559c9e164bfcc548e463fcdbb060f6891269fbba260",
    ("fig5", "gsc"): "366606e5efd126846cfde5358e9a298eb0c241f89b20d02abbaa8cf1e0aa1475",
    ("fig5", "gsp"): "366606e5efd126846cfde5358e9a298eb0c241f89b20d02abbaa8cf1e0aa1475",
    ("fig5", "tso"): "366606e5efd126846cfde5358e9a298eb0c241f89b20d02abbaa8cf1e0aa1475",
    ("fig5", "dual-tso"): "366606e5efd126846cfde5358e9a298eb0c241f89b20d02abbaa8cf1e0aa1475",
    ("fig5", "osc"): "906837897cadaa6aac45df7501b0b93ce7104118e4af8761f3b0703f23581d09",
    ("fig5", "lin"): "4f3f0529b891f6579bed8559c9e164bfcc548e463fcdbb060f6891269fbba260",
}
SYNTHESIZE_DIGESTS = {
    "fig3a-witness": "9cfbf2afbcdbf38ba4f6894c24f24087fd26a204d4cc921c9d0e0a26f938a2aa",
    "fig3b-witness": "c5741ac3a13bb30fae4503caf77c79983b357adca5d6647c43e3d28c54cfddcc",
    "fig3c-witness": "b3e562a42c769b2ba2efed41af1c86e84315b642da9930675cbdb1a90a157572",
    "fig5-witness": "4a3f032440aba79604e9f246a616455c89fae8f7c02e9b6f9bec0fe28f0c4c3e",
}
EQUIV_DIGESTS = {
    "fig3a-witness": "96e5e698823abae0c5568a282ad8387af93f6c73b6409ae60e816497a748bd88",
    "fig3b-witness": "941544a8f3e1de61d5b3f852ac2403b569d6052099da901f9aab1bf8f13c7a3b",
    "fig3c-witness": "692faf28190f9d726c189dffc4a09f8046a0dad2bc42d1a12c60f552f28fc723",
}


@pytest.mark.parametrize("name, model", sorted(CHECK_DIGESTS))
def test_check_preset_output_is_pinned(tmp_path, capsys, name, model):
    argv = ["check", fixture_path(name), "--apply-preset", "--model", model]
    assert command_digest(argv, tmp_path / "out", capsys) == CHECK_DIGESTS[name, model]


@pytest.mark.parametrize("name", sorted(SYNTHESIZE_DIGESTS))
def test_synthesize_output_is_pinned(tmp_path, capsys, name):
    argv = ["synthesize", fixture_path(name), "-o", "<out>/schedule.json"]
    assert command_digest(argv, tmp_path / "out", capsys) == SYNTHESIZE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EQUIV_DIGESTS))
def test_equiv_output_is_pinned(tmp_path, capsys, name):
    argv = ["equiv", fixture_path(name), "--to", "both",
            "--push-out", "<out>/push.json", "--pull-out", "<out>/pull.json"]
    assert command_digest(argv, tmp_path / "out", capsys) == EQUIV_DIGESTS[name]


def test_enumerate_uses_the_documents_semantics(tmp_path, capsys):
    # A register document explores and writes under register without
    # --semantics, as check decides it.
    out = tmp_path / "r"
    path = register_document(fixture("fig3a").history, tmp_path)
    assert main(["enumerate", path, "--out-dir", str(out)]) == 0
    assert "total: 354 histories, 354 members" in capsys.readouterr().out
    files = read_dir(out)
    assert len(files) == 354
    assert all(doc_to_history(loads(text))[1] == "register" for text in files.values())


def test_enumerate_semantics_flag_overrides_the_document(tmp_path, capsys):
    path = register_document(fixture("fig3a").history, tmp_path)
    rc = main(["enumerate", path, "--semantics", "sequence", "--out-dir", str(tmp_path / "s")])
    assert rc == 2
    assert "sequence object does not implement 'write'" in capsys.readouterr().err


def test_enumerate_sampling_is_seeded(tmp_path, capsys):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    main(["enumerate", "--sample", "5", "--seed", "7", "--out-dir", str(out1)])
    main(["enumerate", "--sample", "5", "--seed", "7", "--out-dir", str(out2)])
    capsys.readouterr()
    assert read_dir(out1) == read_dir(out2)
    assert len(read_dir(out1)) == 5


def test_enumerate_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--out-dir", "/tmp/unused"])
    assert exc.value.code == 2


def test_enumerate_respects_state_cap(tmp_path, capsys):
    rc = main(["enumerate", fixture_path("fig3b"), "--out-dir",
               str(tmp_path / "c"), "--max-schedules", "5"])
    assert rc == 2
    assert "exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--sample", "-3"),
                                         ("--max-schedules", "-1")])
def test_enumerate_rejects_bad_counts(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", fixture_path("fig3b"), "--out-dir", str(tmp_path / "c"),
              flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


# -- write errors ------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["simulate", str(FIXDIR / "fig3a-schedule.json"), "--history-out", "{blocked}/h.json"],
    ["synthesize", str(FIXDIR / "fig3a-witness.json"), "-o", "{blocked}/s.json"],
    ["equiv", str(FIXDIR / "fig3a-witness.json"), "--to", "tso",
     "--pull-out", "{blocked}/q.json"],
    ["enumerate", fixture_path("fig3b"), "--out-dir", "{blocked}"],
], ids=["simulate", "synthesize", "equiv", "enumerate"])
def test_write_errors_are_exit_2(tmp_path, capsys, argv):
    # A path below a regular file cannot be written, nor can a directory be
    # made where a file is.
    blocked = tmp_path / "file"
    blocked.write_text("")
    argv = [a.replace("{blocked}", str(blocked)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}")


def test_enumerate_file_write_error_is_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "history-0003.json").mkdir(parents=True)
    assert main(["enumerate", fixture_path("fig3b"), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'history-0003.json'}: ")


# -- refusals and fuzzing ----------------------------------------------------------


def test_check_unattainable_read_is_exit_1(tmp_path, capsys):
    h = make_history(
        [Event("e1", "A", "x", Op("append", 1), None, frozenset()),
         Event("e2", "B", "x", Op("read"), (7,), frozenset())],
        {"A": ["e1"], "B": ["e2"]}, Relation.from_pairs({"e1", "e2"}, [("e1", "e2")]))
    path = tmp_path / "h.json"
    path.write_text(dumps(history_to_doc(h, "sequence")))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "non-member\n  e2 returned (7,) but no subset of the other x updates "
        "evaluates to that (RETVAL)\n")


def test_pairs_naming_an_unknown_id_are_exit_2(tmp_path, capsys):
    history = loads((FIXDIR / "fig3b.json").read_text())
    history["rt"]["pairs"].append(["e1", "zz"])
    witness = loads((FIXDIR / "fig3b-witness.json").read_text())
    witness["vis"].append(["zz", "f2"])
    path = tmp_path / "doc.json"
    for doc, argv in ((history, ["check", str(path)]),
                      (witness, ["synthesize", str(path), "-o", str(tmp_path / "s.json")])):
        path.write_text(dumps(doc))
        assert main(argv) == 2
        assert "outside domain" in capsys.readouterr().err


def test_compose_refuses_a_two_object_witness(tmp_path, capsys):
    rc = main(["compose", fixture_path("fig3c"), str(FIXDIR / "fig3c-witness.json"),
               "-o", str(tmp_path / "c.json")])
    assert rc == 2
    assert "witness must cover exactly one object" in capsys.readouterr().err


def _mutated(rng, doc, values):
    """``doc`` after one to three random edits, each replacing a value,
    deleting a key or list item, or duplicating a list item."""
    for _ in range(rng.randint(1, 3)):
        slots = []
        stack = [doc]
        while stack:
            node = stack.pop()
            keys = list(node) if isinstance(node, dict) else range(len(node))
            for k in keys:
                slots.append((node, k))
                if isinstance(node[k], (dict, list)):
                    stack.append(node[k])
        if not slots:
            return doc
        node, k = rng.choice(slots)
        action = rng.randrange(3)
        if action == 0:
            node[k] = rng.choice(values)
        elif action == 1:
            del node[k]
        elif isinstance(node, list):
            node.insert(k, copy.deepcopy(node[k]))
    return doc


FUZZ_VALUES = (None, True, 0, -1, 7, 2.5, "", "x", "e1", "append", "read", "push",
               "zz", [], [1], ["e1"], [["e1", "f1"]], {}, {"kind": "append"},
               {"kind": "pairs", "pairs": []})


def test_mutated_documents_never_raise(tmp_path, capsys):
    # Seeded mutations of every shipped document through each command that
    # reads its kind: any outcome but an exception is fine (0, 1 or 2).
    rng = random.Random(20171)
    out = str(tmp_path / "out")
    commands = {
        "history": (["check"], ["check", "--model", "lin", "--apply-preset"],
                    ["check", "--model", "osc", "--apply-preset"],
                    ["enumerate", "--max-schedules", "40", "--out-dir", out]),
        "witness": (["synthesize", "-o", out + ".json"],
                    ["equiv", "--push-out", out + ".p", "--pull-out", out + ".q"]),
        "schedule": (["simulate", "--history-out", out + ".h",
                      "--execution-out", out + ".x"],),
    }
    originals = sorted(FIXDIR.iterdir())
    path = tmp_path / "doc.json"
    for _ in range(300):
        source = rng.choice(originals)
        kind = ("witness" if source.stem.endswith("-witness") else
                "schedule" if source.stem.endswith("-schedule") else "history")
        doc = _mutated(rng, json.loads(source.read_text()), FUZZ_VALUES)
        path.write_text(json.dumps(doc))
        for command in commands[kind]:
            argv = [command[0], str(path), *command[1:]]
            try:
                rc = main(argv)
            except Exception as err:
                raise AssertionError(f"{argv[0]} on {json.dumps(doc)} raised") from err
            assert rc in (0, 1, 2), (argv, json.dumps(doc))
    capsys.readouterr()
