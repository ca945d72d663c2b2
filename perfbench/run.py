"""swlab benchmark: one workload per invocation, each child a fresh process.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the children import swlab from
``src/``.  With ``--trace 0`` the run is split over three children that
continue one op cycle, and the end-to-end metrics are printed; with
``--trace 1`` one child runs traced and the per-layer metrics are printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("verify-large", "class-queries", "probe-geodesic")
CHILDREN = 3            # set-ups per end-to-end run; setup_s is their median
DEADLINE_S = 170.0      # whole run, children included
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_work", "pycache")
    return env


def run_child(args, workdir, budget, start_op, deadline) -> dict:
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget),
           "--start-op", str(start_op), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.spoil:
        cmd.append("--spoil")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark child ran past the {DEADLINE_S:.0f} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"benchmark child exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if "first_op_monotonic" in result:
        result["setup_s"] = result["first_op_monotonic"] - spawned
    return result


def tail(latencies):
    """Highest nearest-rank percentile with at least ten samples above it
    (the maximum when there are too few samples for one)."""
    s = sorted(latencies)
    rank = len(s) - 10 if len(s) > 10 else len(s)
    return s[rank - 1], 100.0 * rank / len(s)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spoil", action="store_true",
                    help="corrupt every expected answer (checker self-test)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "swlab", "__init__.py")):
        print(f"no swlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    os.makedirs(workdir, exist_ok=True)

    n_children = 1 if args.trace else CHILDREN
    children, start_op = [], 0
    for _ in range(n_children):
        res = run_child(args, workdir, args.seconds / n_children, start_op, deadline)
        children.append(res)
        start_op = res["next_op"]

    latencies = [x for c in children for x in c["latencies"]]
    labels = [x for c in children for x in c["labels"]]
    failures = [f for c in children for f in c["failures"]]
    attempted, failed = len(latencies), len(failures)
    env = {"sha": git_sha(), "python": platform.python_version(),
           "numpy": children[0]["numpy"], "nproc": os.cpu_count(),
           "cpu": cpu_model()}
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n_children} child process(es), {attempted} ops, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g}")
    for k, label, message in failures[:10]:
        print(f"  FAILED op {k} ({label}): {message}")

    by_label: dict[str, list[float]] = {}
    for label, x in zip(labels, latencies):
        by_label.setdefault(label, []).append(x)
    print("median latency per slot:")
    for label in sorted(by_label):
        xs = by_label[label]
        print(f"  {label:28s} {statistics.median(xs):.6f} s  ({len(xs)} ops)")

    record = {"env": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": attempted, "failed": failed, "failures": failures,
              "latencies": latencies, "labels": labels}
    if args.trace:
        child = children[0]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in child["layers"].items()}
        for line in child["table"]:
            print(line)
        if child["missing"]:
            print("not traced (absent in this tree): " + ", ".join(child["missing"]))
        print(f"spans written to {os.path.relpath(child['trace_file'], ROOT)}")
    else:
        # Express every time at the reference host speed: scale it by
        # CAL_REF_S over the calibration kernel's time measured next to it
        # (the mean of the runs just before and after an op; the run right
        # after set-up for set-up).  Raw times are printed and recorded too.
        adjusted, setups = [], []
        for c in children:
            ref, cal = c["cal_ref_s"], c["calibrations"]
            setups.append(c["setup_s"] * ref / cal[0])
            adjusted += [x * 2.0 * ref / (cal[j] + cal[j + 1])
                         for x, j in zip(c["latencies"], c["cal_index"])]
        tail_s, tail_pct = tail(adjusted)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / sum(adjusted), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(adjusted), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["maxrss_kb"] for c in children)
                            / 1024.0, "unit": "MiB"},
        }
        cals = [x for c in children for x in c["calibrations"]]
        raw = {"setup_s": statistics.median(c["setup_s"] for c in children),
               "ops_per_s": attempted / sum(latencies),
               "op_p50_s": statistics.median(latencies),
               "op_tail_s": tail(latencies)[0]}
        print(f"host speed: calibration kernel median {statistics.median(cals):.4f} s "
              f"(range {min(cals):.4f}-{max(cals):.4f}, reference "
              f"{children[0]['cal_ref_s']} s)")
        print("metric        at reference speed   raw")
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']:5s}"
                  + (f"   {raw[name]:.6g}" if name in raw else ""))
        print(f"  op_tail_s is p{tail_pct:.2f} of {attempted} samples; setup_s per "
              f"child: {', '.join('%.3f' % x for x in setups)}")
        print(f"  fail_ratio   {failed / attempted:.6g} ({failed}/{attempted})")
        record["tail_percentile"] = tail_pct
        record["raw_metrics"] = raw
        record["adjusted_latencies"] = adjusted
        record["children"] = [{k: c[k] for k in ("setup_s", "wall", "maxrss_kb",
                                                 "next_op", "calibrations",
                                                 "cal_index")}
                              for c in children]
    record["metrics"] = metrics
    results = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
