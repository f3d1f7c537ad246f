"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 perfbench/repeat.py --runs 10 [--workloads analyze design] [--first-seed 1]

Runs run.py `--runs` times per workload, seed first-seed, first-seed + 1, ...,
with the run length of BENCHMARK.json, and prints per metric the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and the
metric's bound, plus the share of failed operations of every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = ap.parse_args()

    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{workload} seed {seed}: wrong outputs\n{proc.stdout}")
            shares.append(str(Fraction(res["failed"], res["attempted"])))
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        print(f"\n{workload}: {args.runs} runs of {bench['run_seconds']} s, failed share "
              f"{sorted(set(shares))}")
        print(f"  {'metric':15s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s} {'spread/bound':>12s}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            print(f"  {m['name']:15s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {m['bound']:6.2f} {spread / m['bound']:12.2f}")
        print(flush=True)


if __name__ == "__main__":
    main()
