#!/usr/bin/env python3
"""Repeat mode: runs each workload N times, one seed per run, and prints
each metric's median, quartiles and spread.

Run from the repository root:

    python3 e2ebench/repeat.py --runs 10 [--workloads serve_dyn,train_img]
                               [--first-seed 1] [--trace 0]

The command, run length and workloads come from BENCHMARK.json. Quartiles
are Python's ``statistics.quantiles(values, n=4)``; the spread is
``(q3 - q1) / median``, the figure each end-to-end bound is checked
against. A bound is steady when every spread is below a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    bounds = {mt["name"]: mt["bound"] for mt in bench["end_to_end"]}
    steady = True
    for workload in names:
        results = []
        for i in range(args.runs):
            r = run_once(bench["command"], workload, args.first_seed + i,
                         seconds, args.trace)
            results.append(r)
            print(f"{workload} seed {args.first_seed + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        print(f"\n{workload}: {args.runs} runs, {seconds} s each")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <- above a third of its bound"
                steady = False
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        if not all(r["correct"] for r in results):
            steady = False
            print("  some runs failed their output checks")
        print(flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
