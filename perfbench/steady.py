#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare spread to bounds.

    python3 perfbench/steady.py --workload fed_search --runs 10 [--sets 2]
    python3 perfbench/steady.py --all --runs 10

Runs perfbench/run.py --runs times per set on the same build, each run with
its own seed, and prints for every end-to-end metric in BENCHMARK.json its
median, quartiles (statistics.quantiles, n=4) and spread (Q3 - Q1) / median
next to the metric's bound. "steady" means the spread is below a third of
the bound (setup_s excepted: only its median drift is bounded). With
--sets 2 it also prints how far the second set's median moved from the
first's, in the metric's worse direction, against the same bound. Metrics
a run prints in its table as "(not gated)" are summarised too, without a
bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.exit("run failed: workload %s seed %d (exit %d)" % (workload, seed, done.returncode))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.endswith("(not gated)"):
            fields = line.split()
            values[fields[1]] = float(fields[2])
    return values


def summarize(workload, sets, spec):
    print("\n%s: %d set(s) of %d runs" % (workload, len(sets), len(sets[0])))
    print("%-24s %12s %12s %12s %8s %7s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "drift", "verdict"))
    gated = [m["name"] for m in spec["end_to_end"]]
    ungated = [{"name": name, "bound": None, "better": "lower"}
               for name in sets[0][0] if name not in gated]
    for metric in spec["end_to_end"] + ungated:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for runs in sets:
            values = [run[name] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            medians.append(q2)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            if bound is None:
                print("%-24s %12.4f %12.4f %12.4f %8.4f %7s %7s  %s" % (
                    name, q2, q1, q3, spread, "-", "", "not gated"))
                continue
            ok = name == "setup_s" or spread < bound / 3
            print("%-24s %12.4f %12.4f %12.4f %8.4f %7.3f %7s  %s" % (
                name, q2, q1, q3, spread, bound, "", "steady" if ok else "NOISY"))
        if len(medians) > 1 and bound is not None:
            first, last = medians[0], medians[-1]
            worse = (last - first) / first if metric["better"] == "lower" else (first - last) / first
            print("%-24s %12s %12s %12s %8s %7.3f %7.4f  %s" % (
                name, "", "", "", "", bound, worse, "ok" if worse <= bound else "DRIFT"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]] if args.all else [args.workload]
    if workloads == [None]:
        parser.error("give --workload or --all")
    seconds = args.seconds or spec["run_seconds"]
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            base = args.seed_base + s * args.runs
            sets.append([run_once(workload, base + i, seconds) for i in range(args.runs)])
        summarize(workload, sets, spec)


if __name__ == "__main__":
    main()
