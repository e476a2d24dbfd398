#!/usr/bin/env python3
"""Builds `brokerctl` and the benchmark, then runs one workload.

    python3 perfbench/run.py --workload hit-path --seed 1 --seconds 20 --trace 0

Run from the repository root. Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); cargo's own output goes to stderr, so the last
line of stdout is the run's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.call(cmd, cwd=ROOT, env=env, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    for step in (
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "uptime-broker", "--bin", "brokerctl"],
        ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ):
        code = build(target, *step)
        if code != 0:
            print(f"perfbench: build failed ({code})", file=sys.stderr)
            return code or 1

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--brokerctl", os.path.join(release, "brokerctl"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
