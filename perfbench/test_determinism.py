#!/usr/bin/env python3
"""The benchmark's own test: one seed always gives the same exact counts.

    python3 perfbench/test_determinism.py [--seed 7] [--workload NAME ...]

Runs the traced run (--trace 1) twice per workload with the same seed and
asserts that the counts the ledger reports as exact repeat bit for bit:
core.audit_events_per_req, fed.dedup_dropped_per_query,
store.wal_bytes_per_write and store.wal_bytes_per_user_byte. It also
asserts that each run passed its output checks, that every count is
non-zero on the workload that exercises it, and that the exact counts are
zero where their layer is not on the path. Exits 1 on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("core.audit_events_per_req", "fed.dedup_dropped_per_query",
         "store.wal_bytes_per_write", "store.wal_bytes_per_user_byte")
EXERCISED = {
    "tiny_reads": {"core.audit_events_per_req"},
    "photo_view_large": {"core.audit_events_per_req"},
    "note_writes": {"core.audit_events_per_req", "store.wal_bytes_per_write",
                    "store.wal_bytes_per_user_byte"},
    "fed_search": {"core.audit_events_per_req", "fed.dedup_dropped_per_query"},
}


def traced_counts(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise AssertionError("%s seed %d: run failed (exit %d)" % (workload, seed, done.returncode))
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=sorted(EXERCISED))
    args = parser.parse_args()
    failures = []
    for workload in args.workload or sorted(EXERCISED):
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        for name in EXACT:
            a, b = first[name], second[name]
            expect_nonzero = name in EXERCISED[workload]
            ok = a == b and (a != 0) == expect_nonzero
            print("%-18s %-30s %16.6f %16.6f  %s" % (workload, name, a, b, "ok" if ok else "FAIL"))
            if not ok:
                failures.append((workload, name))
    if failures:
        print("FAILED: %s" % failures)
        return 1
    print("OK: exact counts repeat for seed %d" % args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
