"""Benchmark of gsclab, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

It imports gsclab from ``src/``, builds the workload's inputs from the seed
(several times, reporting the median set-up time), then runs whole passes
over them, one item at a time: at least two passes, stopping at the pass
boundary nearest ``--seconds`` of measured time.  Each item's time is its
best over the passes.  Every pass is checked for wrong answers after it
ends; a wrong answer aborts with exit code 1.  With
``--trace 1`` it runs one untraced and one traced pass instead and reports
the per-layer numbers from the traced pass.

It prints every metric by name with its unit, writes the full record to
``perfbench/out/``, and ends its output with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_PASSES = 2
WORKLOAD_NAMES = ("explore", "roundtrip", "adversarial", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_gsclab() -> float:
    """Import the package from this checkout's ``src/``; seconds taken."""
    if not (SRC / "gsclab" / "__init__.py").is_file():
        sys.exit(f"error: no gsclab package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import gsclab  # noqa: F401
    import gsclab.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(gsclab.__file__).resolve().parent != SRC / "gsclab":
        sys.exit(f"error: imported gsclab from {gsclab.__file__}, not from {SRC}")
    return elapsed


# -- statistics ----------------------------------------------------------------


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of already sorted values, 0 <= q <= 1."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """The highest percentile, to 0.1, with at least ten of ``samples``
    beyond it (never below the median)."""
    return max(50.0, math.floor(1000 * (1 - 10 / samples)) / 10)


# -- environment ---------------------------------------------------------------


def environment() -> dict:
    sources = sorted((SRC / "gsclab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "src_gsclab_lines": lines,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- runs --------------------------------------------------------------------------


def make_workload(name: str):
    import workloads
    if name in ("explore", "cli"):
        return {"explore": workloads.Explore, "cli": workloads.Cli}[name](ROOT, OUT)
    return {"roundtrip": workloads.Roundtrip, "adversarial": workloads.Adversarial}[name]()


def timed_setup(wl, seed: int) -> tuple[dict, list[float]]:
    times = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # drop the previous build first, so only one is held
        start = time.perf_counter()
        inputs = wl.setup(seed)
        times.append(time.perf_counter() - start)
    return inputs, times


def checked_pass(wl, inputs, tracer=None):
    """One pass, traced when a tracer is given, then its outputs checked
    with the tracer's patches removed."""
    if tracer is None:
        res = wl.run_pass(inputs)
    else:
        with tracer:
            res = wl.run_pass(inputs, tracer)
            if hasattr(wl, "trace_import"):
                wl.trace_import(inputs, tracer)
    problems = wl.check(inputs, res)
    res.outputs = []  # checked; free them before the next pass
    return res, problems


def end_to_end(wl, passes, measured_s, setup_s) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and details for the record.

    Throughput, median and tail come from each item's best time over the
    passes (see ``best_of``); throughput also counts the time a pass spends
    between items (``gaps_s``, such as ``explore`` finishing its search
    after the last emitted execution)."""
    from workloads import best_of
    best = best_of(passes, "latencies_s")
    busy_s = sum(best) + sum(best_of(passes, "gaps_s"))
    lat = sorted(best)
    pct = tail_percentile(len(lat))
    tail = quantile(lat, pct / 100)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "items_per_s": (len(best) / busy_s, "1/s"),
        "item_ms_p50": (1000 * quantile(lat, 0.5), "ms"),
        "item_ms_tail": (1000 * tail, "ms"),
    }
    details = {
        "items_per_pass": len(best),
        "passes": len(passes),
        "pass_s": [r.wall_s for r in passes],
        "best_pass_s": busy_s,
        "median_pass_items_per_s": statistics.median(
            len(r.latencies_s) / r.wall_s for r in passes),
        "measured_s": measured_s,
        "tail_percentile": pct,
        "samples_beyond_tail": sum(1 for x in lat if x > tail),
    }
    return metrics, details


def per_layer(tracer, untraced, traced) -> dict:
    totals = tracer.totals()
    spans, layers, counts = totals["spans"], totals["layers"], tracer.counts

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    emitted = counts["protocol.explore.yields"]
    ars = counts["ars_tried"]
    m = {
        "protocol.explore_s": (s("protocol.explore"), "s"),
        "protocol.step_calls": (calls("protocol.step"), "count"),
        "protocol.flushes": (calls("protocol.flush"), "count"),
        "protocol.emitted": (emitted, "count"),
        "protocol.emit_ratio": (ratio(emitted, calls("protocol.flush")), "ratio"),
        "protocol.replay_s": (s("protocol.replay"), "s"),
        "protocol.replay_calls": (calls("protocol.replay"), "count"),
        "axioms.is_gsc_s": (s("axioms.is_gsc"), "s"),
        "axioms.is_gsc_calls": (calls("axioms.is_gsc"), "count"),
        "axioms.ars_tried": (ars, "count"),
        "axioms.closures": (counts["closures"], "count"),
        "axioms.assignments_tried": (counts["assignments_tried"], "count"),
        "axioms.closure_s": (s("axioms.closure"), "s"),
        "axioms.accept_ratio": (ratio(counts["members"], ars), "ratio"),
        "axioms.check_axioms_s": (s("axioms.check_axioms"), "s"),
        "axioms.check_axioms_calls": (calls("axioms.check_axioms"), "count"),
        "relations.compose_s": (s("relations.compose"), "s"),
        "relations.compose_calls": (calls("relations.compose"), "count"),
        "relations.transitive_closure_s": (s("relations.transitive_closure"), "s"),
        "relations.transitive_closure_calls": (calls("relations.transitive_closure"), "count"),
        "relations.linear_extensions_s": (s("relations.linear_extensions"), "s"),
        "derived.check_lin_s": (s("derived.check_lin"), "s"),
        "derived.check_osc_s": (s("derived.check_osc"), "s"),
        "derived.calls": (calls("derived.check_lin") + calls("derived.check_osc"), "count"),
        "synthesis.synthesize_s": (s("synthesis.synthesize"), "s"),
        "synthesis.attempts": (calls("synthesis.synthesize"), "count"),
        "synthesis.failures": (counts["synthesis.synthesize.failures"], "count"),
        "synthesis.body_order_s": (s("synthesis.body_order"), "s"),
        "synthesis.precedence_s": (s("synthesis.precedence"), "s"),
        "composition.compose_s": (s("composition.compose"), "s"),
        "composition.calls": (calls("composition.compose"), "count"),
        "serialization.roundtrip_s": (layers["serialization"]["covered_s"], "s"),
        "serialization.bytes": (counts["bytes"], "bytes"),
        "model.canonical_s": (s("model.canonical"), "s"),
        "model.preset_s": (s("model.preset"), "s"),
        "cli.import_s": (statistics.median(
            [d for d in tracer.durations("cli.import")] or [0.0]), "s"),
        "cli.check_s": (s("cli.check"), "s"),
        "cli.synthesize_s": (s("cli.synthesize"), "s"),
        "cli.enumerate_s": (s("cli.enumerate"), "s"),
    }
    for layer, rec in layers.items():
        m[f"{layer}.self_s"] = (rec["self_s"], "s")
    m["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    m["trace.spans"] = (len(tracer.name), "count")
    return m


def print_metrics(metrics: dict) -> None:
    for k, (v, unit) in metrics.items():
        print(f"{k:<36} {v:>14.6g}  {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_gsclab()
    wl = make_workload(args.workload)
    inputs, setup_times = timed_setup(wl, args.seed)
    OUT.mkdir(exist_ok=True)

    passes, problems = [], []
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "closed_loop": {"callers": 1, "threads": 1},
                    "import_s": import_s, "setup_runs_s": setup_times}
    if args.trace:
        from tracing import Tracer
        untraced, problems = checked_pass(wl, inputs)
        tracer = Tracer()
        traced, traced_problems = checked_pass(wl, inputs, tracer)
        problems += traced_problems
        passes = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced)
        tracer.write(OUT / f"{args.workload}.spans.json")
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        record["untraced_pass_s"] = untraced.wall_s
        record["traced_pass_s"] = traced.wall_s
        print_metrics(metrics)
    else:
        # whole passes, stopping at the pass boundary nearest --seconds
        measured = 0.0
        while not problems and (len(passes) < MIN_PASSES or
                                measured * (1 + 0.5 / len(passes)) < args.seconds):
            res, problems = checked_pass(wl, inputs)
            passes.append(res)
            measured += res.wall_s
        setup_s = import_s + statistics.median(setup_times)
        metrics, details = end_to_end(wl, passes, measured, setup_s)
        named = wl.named(passes, metrics)
        record["end_to_end"] = {k: v for k, (v, _) in metrics.items()}
        record["details"] = details
        print(f"{'metric':<36} {'value':>14}  unit")
        print_metrics(metrics)
        print_metrics(named)
        print(f"tail: p{details['tail_percentile']} of {details['items_per_pass']} items "
              f"(best of {details['passes']} passes each), "
              f"{details['samples_beyond_tail']} beyond it")

    # Every pass runs the same operations on the same inputs, so a typed
    # error is a property of an input: count each operation once, from the
    # first pass, and treat a pass that disagrees as a wrong answer.
    first = passes[0]
    attempted, failed, errors = first.attempted, first.failed, dict(first.errors)
    for k, r in enumerate(passes[1:], 2):
        if (r.attempted, r.failed, r.errors) != (attempted, failed, errors):
            problems.append(f"pass {k}: {r.failed} of {r.attempted} operations failed "
                            f"{r.errors}, pass 1: {failed} of {attempted} {errors}")
    record.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                  errors=errors, problems=problems[:50])
    if not args.trace:
        named["failed_ratio"] = (record["failed_ratio"], "ratio")
        print_metrics({"failed_ratio": named["failed_ratio"]})
        record["named"] = {k: v for k, (v, _) in named.items()}
    print(f"failed: {failed} of {attempted} operations {errors}")
    for line in problems[:20]:
        print(f"WRONG: {line}", file=sys.stderr)
    record["environment"] = environment()
    record["provenance"] = {"why": wl.why, "seed": args.seed, "sizes": wl.sizes(),
                            "loads": wl.loads, "bypasses": wl.bypasses}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
