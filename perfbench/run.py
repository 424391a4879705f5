#!/usr/bin/env python3
"""Builds the PreQR benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_miss --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; build output goes to stderr. The workload
runs in its own process with one nn thread-pool thread, and its last stdout
line (one JSON object: correct, attempted, failed, metrics) is printed as
this script's last line. Exits non-zero, without a result line, if the
build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_miss", "serve_hit")
# The workload's time bound: set-up, the measured phase, the reference
# re-encodes of every reply (at most as long as the phase itself with the
# same four threads) and the host probes, with room for a slow host.
RUN_MARGIN_S = 80


def run_timeout(seconds):
    return RUN_MARGIN_S + 3 * seconds


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PREQR_NUM_THREADS="1")
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    # A signal to this script stops the workload too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=run_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        print("perfbench: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print("commit %s" % commit())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
