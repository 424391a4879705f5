#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports its spread.

    python3 perfbench/steadiness.py --runs 10 [--seed0 1]

For every end-to-end metric of every workload in BENCHMARK.json it prints
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound. Run i uses seed seed0 + i.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), the run-to-run spread."""
    q1, med, q3 = statistics.quantiles(values, n=4)  # med == the median
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for i in range(args.runs):
            result = run_once(workload, args.seed0 + i, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect result" % (workload,
                                                         args.seed0 + i))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med, q1, q3, s = spread(vals)
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %s |" % (
                workload, name, med, q1, q3, s, bounds[name]))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
