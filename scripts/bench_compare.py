#!/usr/bin/env python3
"""Flags benchmark metrics outside their BENCHMARK.json bound.

    python3 scripts/bench_compare.py --workload serve_miss RUN.json [RUN.json ...]
    python3 perfbench/run.py ... | python3 scripts/bench_compare.py --workload serve_miss -

Reads perfbench result lines (the last stdout line of `perfbench/run.py`,
one JSON object per line or file), takes each end-to-end metric's median
over the runs and compares it with the last entry of BENCH_perfbench.json
that records the workload. A metric is flagged when it is worse than the
reference by more than its bound (a share of the reference median, in the
direction BENCHMARK.json calls worse); a run that is not `correct` or has
failed operations is flagged too. Exits 1 when anything is flagged, 0
otherwise.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def read_runs(paths):
    """Parsed perfbench result objects from files or '-' (stdin)."""
    runs = []
    for path in paths:
        text = sys.stdin.read() if path == "-" else open(path).read()
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("{"):
                runs.append(json.loads(line))
    return runs


def worse_by(metric, value, ref):
    """Relative change of `value` against `ref`, positive when worse."""
    if ref == 0:
        return 0.0 if value == ref else float("inf")
    change = (value - ref) / abs(ref)
    return change if metric["better"] == "lower" else -change


def compare(metrics, medians, reference, label):
    """Prints one line per metric; returns the number flagged."""
    flagged = 0
    for m in metrics:
        name = m["name"]
        if name not in medians or name not in reference:
            continue
        ref = reference[name]["median"]
        change = worse_by(m, medians[name], ref)
        bad = change > m["bound"]
        flagged += bad
        print("%s %-12s %-11s %12.6g vs %12.6g  %-6s by %5.1f%% (bound %d%%)"
              % ("FLAG" if bad else "ok  ", label, name, medians[name], ref,
                 "worse" if change > 0 else "better", 100.0 * abs(change),
                 round(100 * m["bound"])))
    return flagged


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="workload the result lines belong to")
    p.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    p.add_argument("--history",
                   default=os.path.join(ROOT, "BENCH_perfbench.json"))
    p.add_argument("runs", nargs="+", help="result files, '-' for stdin")
    args = p.parse_args()

    metrics = load_json(args.bench)["end_to_end"]
    entries = load_json(args.history)["entries"]
    runs = read_runs(args.runs)
    if not runs:
        print("no result lines read")
        return 1
    flagged = 0
    for i, run in enumerate(runs):
        if not run.get("correct") or run.get("failed"):
            print("FLAG run %d: correct=%s failed=%s" %
                  (i, run.get("correct"), run.get("failed")))
            flagged += 1
    values = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    medians = {name: statistics.median(v) for name, v in values.items()}
    reference = None
    for entry in reversed(entries):
        if args.workload in entry["workloads"]:
            reference = entry["workloads"][args.workload]
            print("reference: %s (%s)" % (entry["commit"], entry["label"]))
            break
    if reference is None:
        print("no trajectory entry records %s" % args.workload)
        return 1
    flagged += compare(metrics, medians, reference, args.workload)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
