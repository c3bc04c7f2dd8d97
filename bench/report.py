#!/usr/bin/env python3
"""Every metric, by name and unit, for all three workloads in one command.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py once untraced and once traced per workload, prints each
metric as `<workload> <metric> <value> <unit>`, then the shares of traced
time that the ROADMAP baseline breakdown names (inclusive span times, since
the self time of a pipeline function excludes the index and Betti calls it makes).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def share(metrics, names, base="trace.traced_wall_s"):
    return sum(metrics[n]["value"] for n in names) / metrics[base]["value"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length per run.py call (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()
    traced = {}
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            doc = run(workload, args.seed, args.seconds, trace)
            n = doc["attempted"]
            print("%-17s %-44s %.4f frac (%d of %d failed, correct %s)"
                  % (workload, "failed_frac", doc["failed"] / n, doc["failed"], n, doc["correct"]))
            for name, m in doc["metrics"].items():
                print("%-17s %-44s %s %s" % (workload, name, m["value"], m["unit"]))
            if trace:
                traced[workload] = doc["metrics"]

    print("breakdown: morse.jump_census + morse_type_numbers (total_s) = %.1f%% of traced pipelines"
          % (100 * share(traced["pipelines"], ("morse.jump_census.total_s", "morse.morse_type_numbers.total_s"))))
    print("breakdown: engine.find_tuple (total_s) + opposite_tuple (self_s) = %.1f%% of traced search-ladder"
          % (100 * share(traced["search-ladder"], ("engine.find_tuple.total_s", "engine.opposite_tuple.self_s"))))
    with open(os.path.join(ROOT, ".bench_work", "verify-s2-ladder", "scaling.json")) as fh:
        top = json.load(fh)[-1]
    print("breakdown: top rung %s (N = %s): largest self times %s; alternating_betti_sum total_s = %.1f%% of "
          "traced verify-s2-ladder" % (top["id"], top["N"], top["top"], 100 * share(
              traced["verify-s2-ladder"], ("loop_homology.alternating_betti_sum.total_s",))))


if __name__ == "__main__":
    main()
