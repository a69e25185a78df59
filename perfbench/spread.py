"""Run one workload over several seeds and report each end-to-end metric's
median and quartile spread (third minus first quartile, as a share of the
median), next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload roundtrip --seeds 1-10

Runs are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({elapsed:.1f} s): " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<16} {med:>12.5g} {(q3 - q1) / med:>8.3f} {bounds.get(name, 0):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
