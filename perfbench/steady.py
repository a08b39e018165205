#!/usr/bin/env python3
"""Steadiness report for one workload.

Runs the workload once for each of the seeds 1..runs and prints, for
every end-to-end metric, its median, quartiles, (q3-q1)/median and
(max-min)/median, with the bound from BENCHMARK.json, next to the
yardstick's own spread in each run. With --sets 2 it repeats the same seeds and compares the medians of
the two sets, as a regression check between two commits would.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload fleet-drift --runs 10

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next((l for l in lines if l.startswith("host:")), "")
    return result, host, wall


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0, \
        (max(values) - min(values)) / med if med else 0.0


def one_set(args, bench, label):
    metrics = {m["name"]: [] for m in bench["end_to_end"]}
    for k in range(args.runs):
        seed = 1 + k
        result, host, wall = run_once(args.workload, seed, args.seconds)
        ok = result["correct"] and result["failed"] == 0
        print("%s seed %3d: %s attempted %d failed %d, %.0f s wall; %s" % (
            label, seed, "ok " if ok else "BAD", result["attempted"],
            result["failed"], wall, host), flush=True)
        for name in metrics:
            metrics[name].append(result["metrics"][name]["value"])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [one_set(args, bench, "set %d" % (i + 1)) for i in range(args.sets)]
    print("\n%-12s %14s %14s %14s %8s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "verdict"))
    worst = "steady"
    for name, m in bounds.items():
        for i, values in enumerate(sets):
            med, q1, q3, iqr, rng = spread(values[name])
            bound = m["bound"]
            if name == "setup_s":
                verdict = "(spread not gated)"
            elif iqr <= bound / 3:
                verdict = "steady (< bound/3)"
            elif iqr <= bound:
                verdict = "within bound"
                worst = "within bound" if worst == "steady" else worst
            else:
                verdict = "TOO NOISY"
                worst = "too noisy"
            print("%-12s %14.6g %14.6g %14.6g %8.4f %8.4f %6.3f  %s%s" % (
                name, med, q1, q3, iqr, rng, bound, verdict,
                "" if len(sets) == 1 else "  [set %d]" % (i + 1)))
        if len(sets) == 2:
            a = statistics.median(sets[0][name])
            b = statistics.median(sets[1][name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= m["bound"]
            if not ok:
                worst = "too noisy"
            print("%-12s second median %+.4f worse than the first (bound %.3f): %s" % (
                name, worse, m["bound"], "ok" if ok else "REGRESSION"))
    print("\noverall: %s" % worst)


if __name__ == "__main__":
    main()
