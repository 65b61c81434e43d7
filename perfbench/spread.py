#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload paper-512mb --seeds 1-10 [--trace 1]
        [--seconds S] [--json results.json]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the bound from BENCHMARK.json. Runs one at a time.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds")
    ap.add_argument("--json")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = a.seconds or str(bench["run_seconds"])
    runs = []
    for seed in seed_list(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", a.trace]
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: exit {p.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}", file=sys.stderr)
    if a.json:
        with open(a.json, "w") as f:
            json.dump(runs, f)
    names = sorted(runs[0]["metrics"])
    worst = 0.0
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  <-- over a third of the bound" if spread > bound / 3 else ""
        print(f"{name:44s} median {med:14.4f}  spread {spread:7.4f}"
              f"  bound {bound if bound is not None else '-'}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}; worst spread/bound {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
