#!/usr/bin/env python3
"""Steadiness mode: run each workload N times and summarize every metric.

Run i uses seed i (1..N) and BENCHMARK.json's run_seconds. For every
end-to-end metric the script prints the median, the first and third
quartiles (as ``statistics.quantiles(values, n=4)`` computes them), the
spread ``(q3 - q1) / median``, the bound from ``BENCHMARK.json`` and a
verdict: ``ok`` below a third of the bound, ``WIDE`` below the bound,
``OVER`` at or above it.

Run it from the repository root::

    python3 perfbench/steady.py --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: correct=false ({result['failed']} failed)")
    return result, wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    steady = True
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f}s", file=sys.stderr)
        print(f"{workload} ({args.runs} runs)")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else "WIDE" if spread < bound else "OVER"
            steady &= verdict == "ok"
            print(f"  {name:16s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {verdict}")
    print("steady" if steady else "NOT steady: a spread is above a third of its bound")


if __name__ == "__main__":
    main()
