#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME] [--values]

Runs perfbench/run.py once per seed on each workload (from the repository
root), then prints, for every end-to-end metric of BENCHMARK.json, the median
and the distance between the first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound. A
spread above its bound exits 1. --values also prints every run's value.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + extra
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--values", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"], [])
                for i in range(args.runs)]
        print(f"{workload} ({args.runs} seeds from {args.first_seed})")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med, rel = spread(values)
            flag = ""
            if rel > bound:
                flag = "  OVER BOUND"
                worst = 1
            elif rel > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:16} median {med:14.4f}  spread {rel:7.4f}  bound {bound}{flag}")
            if args.values:
                print("    " + " ".join(f"{v:.6g}" for v in values))
        sys.stdout.flush()
    return worst


if __name__ == "__main__":
    sys.exit(main())
