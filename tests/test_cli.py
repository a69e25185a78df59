"""End-to-end command-line tests: every subcommand, every exit-code class,
and determinism of the enumeration output."""

import pathlib

import pytest

from gsclab import (
    AbstractExecution,
    Event,
    Op,
    Relation,
    TotalOrder,
    check_axioms,
    fixture,
    is_gsc,
    make_history,
    project,
)
from gsclab.cli import main
from gsclab.generators import random_well_fenced_run
from gsclab.serialization import (
    doc_to_execution,
    doc_to_history,
    dumps,
    execution_to_doc,
    history_to_doc,
    loads,
)

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


def test_check_missing_file(capsys):
    assert main(["check", str(FIXDIR / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


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


def test_synthesize_infeasible_witness_is_exit_3(tmp_path, capsys):
    events = [
        Event("g", "A", "x", Op("append", 1), None, frozenset()),
        Event("e", "B", "x", Op("read"), (1,), frozenset()),
    ]
    h = make_history(events, {"A": ["g"], "B": ["e"]},
                     Relation.from_pairs(["g", "e"], []))
    x = AbstractExecution(h, Relation.from_pairs(h.ids, [("g", "e")]),
                          TotalOrder(("g", "e")))
    path = tmp_path / "impossible.json"
    path.write_text(dumps(execution_to_doc(x, "sequence")))
    assert main(["synthesize", str(path)]) == 3
    assert "internal check failed" in capsys.readouterr().err


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


def test_enumerate_explores_programs(tmp_path, capsys):
    out1 = tmp_path / "a"
    rc = main(["enumerate", fixture_path("fig3b"), "--out-dir", str(out1)])
    assert rc == 0
    text = capsys.readouterr().out
    # explore() yields one pair per distinct execution and enumerate writes
    # the history of each, so fig3b's 29 executions give 29 files over 12
    # distinct histories; all are operationally produced and therefore
    # members.
    assert "total: 29 histories, 29 members" in text
    files = read_dir(out1)
    assert sorted(files) == [f"history-{i:04d}.json" for i in range(29)]
    # Deterministic: a second run reproduces every byte.
    out2 = tmp_path / "b"
    main(["enumerate", fixture_path("fig3b"), "--out-dir", str(out2)])
    capsys.readouterr()
    assert read_dir(out2) == files


def test_enumerate_jobs_do_not_change_output(tmp_path, capsys):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    main(["enumerate", fixture_path("fig3b"), "--out-dir", str(out1)])
    first = capsys.readouterr().out
    main(["enumerate", fixture_path("fig3b"), "--out-dir", str(out2),
          "--jobs", "2"])
    second = capsys.readouterr().out
    # The last line names the output directory, so compare the verdict rows.
    assert first.splitlines()[:-1] == second.splitlines()[:-1]
    assert read_dir(out1) == read_dir(out2)


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
