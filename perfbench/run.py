"""nisys benchmark: fixed, seeded batches of verdicts, timed end to end.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

A run repeats one workload's round of operations in one fresh worker
process (BLAS pinned to one thread) for about `--seconds` seconds of whole
rounds, checks every output, and prints the
metrics as the last line of standard output, one JSON object. With
`--trace 0` these are the end-to-end metrics; set-up time is the median of
several fresh processes. With `--trace 1` the worker wraps every public
nisys function in a span and reports per-layer metrics instead, and writes
its spans to perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("analyze", "loop-verdict", "design")
SETUP_PROCESSES = 5
WORKER_TIMEOUT_S = 170
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(workload, seed, seconds, trace=0, setup_only=False):
    """Run one worker process to its end and return its JSON result."""
    env = dict(os.environ, **BLAS_ENV)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.trace:
        res = spawn(args.workload, args.seed, args.seconds, trace=1)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        metrics["setup.import_s"] = {"value": res["import_s"], "unit": "s"}
        metrics["trace.ops_per_s"] = {"value": res["attempted"] / sum(res["round_walls"]),
                                      "unit": "ops/s"}
    else:
        setups = [spawn(args.workload, args.seed, args.seconds, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        res = spawn(args.workload, args.seed, args.seconds)
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": res["attempted"] / sum(res["round_walls"]), "unit": "ops/s"},
            "latency_p50_s": {"value": statistics.median(res["latencies"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={res['rounds']} "
          f"ops_per_round={res['ops_per_round']} attempted={res['attempted']} "
          f"failed={res['failed']} wrong={len(res['wrong'])} "
          f"redrawn={res.get('redrawn', 0)} backend={res['nisys_backend']} "
          f"blas_threads={BLAS_ENV['OPENBLAS_NUM_THREADS']}")
    for fault in res["known_faults"]:
        print(f"  known fault kept in the round: {fault}")
    for w in res["wrong"]:
        print(f"  WRONG {w['op']}: {w['fails']}")
    if "trace_file" in res:
        print(f"  spans written to {res['trace_file']}")
    print(json.dumps({"correct": not res["wrong"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
