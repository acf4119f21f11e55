#!/usr/bin/env python3
"""Steadiness check: run one workload k times, each with another seed, and
print each metric's median, quartiles and spread (interquartile distance
over the median, quartiles as statistics.quantiles(values, n=4) gives
them), with the bound from BENCHMARK.json beside it.

    python3 perfbench/steady.py --workload warm-sweep -k 10

Seeds are 1..k; each run lasts BENCHMARK.json's run_seconds.  Run from
the checkout root.  Exits 1 if a run fails or reports
correct=false, or if any metric other than setup_s spreads wider than a
third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(1, args.k + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}", file=sys.stderr)
        runs.append(res)
    ok = all(r["correct"] for r in runs)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, failed share {sorted(shares)}")
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = " <-- over bound/3"
            ok = False
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}"
              f" {bound if bound is not None else '':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
