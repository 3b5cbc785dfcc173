#!/usr/bin/env python3
"""Sensitivity self-check: does the benchmark see a planted read-path regression?

    python3 perfbench/selfcheck.py

Runs sharded-scan, where reads are most of a transaction's time (from the
repository root) on seeds 101-103, with and without `--read-spin-ns 1500`,
which wraps the engine in a decorator that busy-waits 1.5 us per key read
once the timed window starts. Clean and planted runs alternate, seed by
seed. It passes when, comparing medians over the seeds,

* `lat_p50_us` rises by more than its bound, and
* the metrics the plant does not reach stay within their bounds: `setup_s`
  (set up before the plant is armed), `commit_frac` and `peak_rss_mb`.

Exit 1 on failure.
"""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spread import ROOT, run_once  # noqa: E402

SEEDS = range(101, 104)
SPIN_NS = 1500


def compare(workload, seeds, seconds, spin_ns):
    clean, planted = [], []
    for seed in seeds:
        clean.append(run_once(workload, seed, seconds, []))
        planted.append(run_once(workload, seed, seconds, ["--read-spin-ns", str(spin_ns)]))
    med = lambda runs, k: statistics.median(r[k] for r in runs)  # noqa: E731
    return {k: (med(clean, k), med(planted, k)) for k in clean[0]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True

    def report(workload, results, must_move, must_hold):
        nonlocal ok
        print(f"{workload}: clean -> planted ({SPIN_NS} ns per key read), medians of {len(SEEDS)} seeds")
        for name, (clean, planted) in results.items():
            change = planted / clean - 1 if clean else 0.0
            verdict = ""
            if name in must_move:
                verdict = "moved (required)" if abs(change) > bounds[name] else "DID NOT MOVE"
                ok &= abs(change) > bounds[name]
            elif name in must_hold:
                verdict = "held (required)" if abs(change) <= bounds[name] else "MOVED"
                ok &= abs(change) <= bounds[name]
            print(f"  {name:16} {clean:14.4f} -> {planted:14.4f}  {change:+8.2%}  bound {bounds[name]}  {verdict}")

    report("sharded-scan", compare("sharded-scan", SEEDS, bench["run_seconds"], SPIN_NS),
           {"lat_p50_us"}, {"setup_s", "commit_frac", "peak_rss_mb"})
    print("self-check", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
