"""One benchmark child process: set up a workload, run its closed loop.

`run.py` starts this script in a fresh interpreter with the BLAS thread
variables pinned, so that ``ru_maxrss`` and the homology caches kept on
each complex start from nothing.  It prints one JSON object as the last
line of its standard output.

With ``--trace 0`` a short fixed calibration kernel runs between ops, at
most every `CAL_EVERY_S`, outside the ops' latencies.  Its time measures how
fast the shared host runs the child at that moment; run.py uses it to
express each latency at the reference speed `CAL_REF_S` (see README.md).

With ``--trace 1`` the set-up runs traced, then ops run untraced for half
the budget, then the same ops run again traced; the ratio of the two wall
times is the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


# Time of one calibration_kernel() call on the reference host (a shared
# 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS thread) when no
# neighbour slows it: about its tenth percentile over a minute of calls.
CAL_REF_S = 0.025
# Ops shorter than this share one calibration; longer ones get their own.
CAL_EVERY_S = 0.1
_CAL_ARRAY = None


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    global _CAL_ARRAY
    import numpy
    if _CAL_ARRAY is None:
        _CAL_ARRAY = numpy.random.default_rng(0).random(200_000)
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i & 7
    for _ in range(10):
        numpy.sort(_CAL_ARRAY)
    return time.perf_counter() - t0


def run_ops(wl, ks, budget, root=None, calibrate=False):
    """Closed loop: op k+1 starts only after op k has returned and been
    checked.  Runs the op indices in `ks` until `budget` seconds have passed
    (at least one op), or all of them when `budget` is None.  A workload
    with ``collect_between_ops`` set has the cyclic garbage of its previous
    op collected before each op, outside the op's latency.  With
    `calibrate`, the calibration kernel runs before an op once `CAL_EVERY_S`
    has passed since its last run, and once after the last op.  Op i lies
    between calibrations ``cal_index[i]`` and ``cal_index[i] + 1``."""
    perf = time.perf_counter
    collect = getattr(wl, "collect_between_ops", False)
    latencies, labels, failures = [], [], []
    calibrations, cal_index, last_cal = [], [], None
    begin = perf()
    deadline = None if budget is None else begin + budget
    for k in ks:
        if collect:
            gc.collect()
        if calibrate:
            if last_cal is None or perf() - last_cal >= CAL_EVERY_S:
                calibrations.append(calibration_kernel())
                last_cal = perf()
            cal_index.append(len(calibrations) - 1)
        t0 = perf()
        try:
            out = wl.execute(k) if root is None else root(k)
            error = None
        except Exception as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf() - t0)
        labels.append(wl.describe(k))
        if error is None:
            try:
                ok, error = wl.check(k, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append([k, labels[-1], error])
        if deadline is not None and perf() >= deadline:
            break
    if calibrate:
        calibrations.append(calibration_kernel())
    return latencies, labels, failures, (calibrations, cal_index), perf() - begin


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--start-op", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spoil", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import numpy
    import workloads

    def setup():
        wl = workloads.build(args.workload, args.seed, args.workdir, args.spoil)
        wl.warmup()
        return wl

    result = {"numpy": numpy.__version__}
    if not args.trace:
        wl = setup()
        result["first_op_monotonic"] = time.monotonic()
        ks = range(args.start_op, sys.maxsize)
        lat, labels, failures, cal, wall = run_ops(wl, ks, args.budget,
                                                   calibrate=True)
        result.update(latencies=lat, labels=labels, failures=failures,
                      calibrations=cal[0], cal_index=cal[1],
                      cal_ref_s=CAL_REF_S, wall=wall,
                      next_op=args.start_op + len(lat))
    else:
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        wl = tr.root("setup", -1, "bench.setup", setup)
        tr.uninstall()
        ks = range(args.start_op, sys.maxsize)
        lat_u, labels_u, fail_u, _, wall_u = run_ops(wl, ks, 0.5 * args.budget)
        replay = range(args.start_op, args.start_op + len(lat_u))
        tr.install()
        lat_t, labels_t, fail_t, _, wall_t = run_ops(
            wl, replay, None,
            root=lambda k: tr.root("ops", k, "bench.op", wl.execute, k))
        tr.uninstall()
        layers = tracing.layer_metrics(tr, len(lat_t), getattr(wl, "errors", []))
        layers["trace.overhead_ratio"] = (wall_t / wall_u, "ratio")
        table = ["layer self time per traced op:"] + tracing.layer_table(layers)
        if args.workload == "verify-large":
            table += tracing.phase_attribution(tr, wl.describe)
        trace_path = os.path.join(args.workdir, f"trace-seed{args.seed}.json")
        tr.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                             "ops": len(lat_t)})
        result.update(latencies=lat_u + lat_t, labels=labels_u + labels_t,
                      failures=fail_u + fail_t, wall=wall_u + wall_t,
                      next_op=args.start_op + len(lat_u), layers=layers,
                      table=table, missing=tr.missing, trace_file=trace_path)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
