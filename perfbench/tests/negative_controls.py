#!/usr/bin/env python3
"""Negative controls for the benchmark's checks, on a small-scale run of
every workload.

    python3 perfbench/tests/negative_controls.py

Each workload first runs clean (it must pass), then once per deliberate
fault, and each fault must make the run report `correct: false` and exit
non-zero:

  oracle         one expected value in the oracle is perturbed
                 -> the recovery check fails;
  drop-ack       the last acknowledged commit is cut out of the crash image
                 -> the durability check fails;
  redo-identity  one recovery's redo outcome counts are made not to sum
                 -> the accounting check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (the benchmark's build step)

WORKLOADS = ["paper-512mb", "window-100k-parallel", "commit-4clients",
             "commit-4clients-grouped"]
# The check each fault must trip, as the benchmark words its failure.
FAULTS = {
    "oracle": ("does not read back its committed value", "scan returned"),
    "drop-ack": ("scan returned", "does not read back its committed value"),
    "redo-identity": ("redo outcomes sum to",),
}


def run_small(binary, workload, fault=None):
    cmd = [binary, "--workload", workload, "--seed", "11", "--seconds", "1",
           "--trace", "0", "--small", "--out-dir", run.OUT]
    if fault:
        cmd += ["--inject", fault]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def main():
    binary = run.build()
    if binary is None:
        print("build failed")
        return 1
    failures = 0
    for w in WORKLOADS:
        rc, result, err = run_small(binary, w)
        ok = rc == 0 and result is not None and result["correct"]
        print(f"{w:26s} clean          {'ok' if ok else 'FAIL'}")
        failures += not ok
        for fault, reasons in FAULTS.items():
            rc, result, err = run_small(binary, w, fault)
            caught = (rc != 0 and result is not None and not result["correct"]
                      and any(r in err for r in reasons))
            print(f"{w:26s} {fault:14s} {'caught' if caught else 'MISSED'}")
            failures += not caught
    print("negative controls:", "all held" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
