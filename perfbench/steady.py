#!/usr/bin/env python3
"""Steadiness check: runs each workload N times on one commit, each with
another seed, and prints every end-to-end metric's median, quartiles and
spread next to its bound in BENCHMARK.json.

    python3 perfbench/steady.py                    # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads miss-path
    python3 perfbench/steady.py --out a.json       # keep the raw figures
    python3 perfbench/steady.py --compare a.json b.json

Figures the benchmark reports but does not gate on are listed below the
gated ones with their spread. The spread is (Q3 - Q1) / median with the
quartiles of Python's `statistics.quantiles(values, n=4)`. A metric is
steady when its spread is below its bound; `--compare` checks that the
second set's median is not worse than the first's by more than the
bound, and that both sets fail the same share of operations.
Run from the repository root; exits non-zero when a run fails or a check
does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["noise"] = next((l for l in lines if l.startswith("noise:")), "")
    result["reference"] = {}
    if "reference (not gated):" in lines:
        for line in lines[lines.index("reference (not gated):") + 1:]:
            parts = line.split()
            if not line.startswith("  ") or len(parts) != 3:
                break
            result["reference"][parts[0]] = float(parts[1])
    return result


def collect(bench, workloads, runs, seed_base, seconds):
    results = {}
    for workload in workloads:
        results[workload] = []
        for i in range(runs):
            result = run_once(workload, seed_base + i, seconds)
            results[workload].append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  {workload} seed {seed_base + i}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items())
                  + f"\n    {result['noise']}", flush=True)
    return results


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(bench, results):
    ok = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, s = spread(values)
            ratio = s / meta["bound"]
            flag = ""
            if s > meta["bound"]:
                flag = "  OVER BOUND"
                ok = False
            print(f"  {name:<16} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {s:>8.3f} {meta['bound']:>6.2f} {ratio:>12.2f}{flag}")
        for name in runs[0].get("reference", {}):
            values = [r["reference"][name] for r in runs]
            median, q1, q3, s = spread(values)
            print(f"  {name:<16} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {s:>8.3f}   (reference, not gated)")
        shares = {r["failed"] / r["attempted"] for r in runs}
        if any(not r["correct"] for r in runs):
            print("  INCORRECT RUNS")
            ok = False
        print(f"  failed share(s): {sorted(shares)}")
    return ok


def compare(bench, first, second):
    ok = True
    for workload in first:
        for meta in bench["end_to_end"]:
            name = meta["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
            flag = "  WORSE THAN BOUND" if worse > meta["bound"] else ""
            ok &= not flag
            print(f"  {workload:<11} {name:<16} {a:>12.5g} -> {b:>12.5g} ({worse:+.3f}, bound {meta['bound']}){flag}")
        share = lambda runs: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        if share(first[workload]) != share(second[workload]):
            print(f"  {workload}: failed shares differ")
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = load_benchmark()
    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        return 0 if compare(bench, first, second) else 1
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    try:
        results = collect(bench, workloads, args.runs, args.seed_base, seconds)
    except RuntimeError as err:
        print(f"steady: {err}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
