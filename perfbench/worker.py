"""One workload in one fresh process: import nisys, build the round, run it.

Started by run.py; not meant to be run by hand. Prints one JSON object as
its last line of standard output. `--t0` is the CLOCK_MONOTONIC reading the
parent took just before starting this process, so set-up time counts the
interpreter's own start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# A round may end this share of a round past --seconds. With 30 s runs, the
# analyze round (13 to 20 s on the reference machine) then always runs
# twice; a round count that flips with the machine's speed would spread
# the figures.
OVERRUN = 0.6


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t_import = time.perf_counter()
    import nisys
    import nisys.cli  # the analyze workload enters through the command line
    import_s = time.perf_counter() - t_import
    src = os.path.realpath(os.path.join(ROOT, "src", "nisys"))
    if os.path.dirname(os.path.realpath(nisys.__file__)) != src:
        sys.exit(f"imported nisys from {nisys.__file__}, not from {src}")

    import workloads

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops, info = workloads.prepare(args.workload, args.seed, nisys, workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(nisys)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        result = run_rounds(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(info)
    result.update(setup_s=setup_s, import_s=import_s, nisys_backend=nisys._kernels.backend(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, result["rounds"])
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "rounds": result["rounds"]})
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))


def run_rounds(ops, seconds, tracer):
    """Run whole rounds, checking every output after each round, until the
    next round would end more than OVERRUN rounds past `seconds`. Outcome per
    operation: passed, failed with its named fault's symptoms only, or wrong
    (anything else, including an exception)."""
    latencies, walls = [], []
    failed, wrong = 0, []
    begin = time.perf_counter()
    while (not walls or time.perf_counter() - begin
           < seconds - (1.0 - OVERRUN) * statistics.mean(walls)):
        outs = []
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # an exception is a wrong output, reported below
                out = e
            outs.append(out)
            latencies.append(time.perf_counter() - t)
        walls.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                fails = {"exception": f"{type(out).__name__}: {out}"}
            else:
                try:
                    fails = op.check(out)
                except Exception as e:  # a check that cannot read the output fails it
                    fails = {"check": f"{type(e).__name__}: {e}"}
            if not fails:
                continue
            failed += 1
            if not (op.fault and set(fails) <= op.symptoms):
                wrong.append({"op": op.name, "fails": fails})
    faults = sorted({op.fault for op in ops if op.fault})
    return {"ops_per_round": len(ops), "rounds": len(walls),
            "attempted": len(ops) * len(walls), "failed": failed, "wrong": wrong,
            "latencies": latencies, "round_walls": walls, "known_faults": faults}


if __name__ == "__main__":
    main()
