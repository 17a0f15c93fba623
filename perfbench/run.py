#!/usr/bin/env python3
"""Build and run the wire-level GSI benchmark.

    python3 perfbench/run.py --workload point|bulk|churn --seed N \
        --seconds S --trace 0|1

Builds the shipped `gsi-server` binary (from the repository workspace) and
the `perfbench` load generator (this directory's own package) in release
mode, then runs the load generator, which starts the server as a child
process. Cargo output goes to stderr; stdout carries the benchmark's
result line last. The full report of each run is written under
`perfbench/results/`. The build directory is `$CARGO_TARGET_DIR`, or
`.bench_build` at the repository root when that is unset.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "gsi-server", "--bin", "gsi-server"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["point", "bulk", "churn"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target_dir, "release")
    report = os.path.join(
        HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(release, "gsi-server"),
        "--out", report,
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
