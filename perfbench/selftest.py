"""Checker self-test for the benchmark: a tiny smoke run of each workload.

    python3 perfbench/selftest.py

For every workload run.py knows, BENCHMARK.json's or not, it checks that
  * a short untraced run emits exactly the `end_to_end` metrics of
    BENCHMARK.json, each with its declared unit, and counts no failure;
  * a short traced run does the same for the `per_layer` metrics;
  * a run whose expected answers are deliberately corrupted (`--spoil`)
    counts every op as failed instead of passing;
and that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Takes about a minute; exits 1 on the first broken expectation.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

SMOKE_SECONDS = "1"


def bench(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--seed", "7", "--seconds", SMOKE_SECONDS, *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{what}: missing {missing}, unexpected {extra}, "
                             f"wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} value {m['value']!r} is not a number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            res = last_json(bench("--workload", workload, "--trace", trace))
            what = f"{workload} trace {trace}"
            check_metrics(res, declared, what)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                raise AssertionError(f"{what}: clean run reported {res['failed']} "
                                     f"failures of {res['attempted']}")
            print(f"ok  {what}: {len(declared)} metrics, {res['attempted']} ops, "
                  "0 failed")
        res = last_json(bench("--workload", workload, "--trace", "0", "--spoil"))
        if res["correct"] or res["failed"] != res["attempted"]:
            raise AssertionError(f"{workload}: corrupted expectations gave "
                                 f"{res['failed']} failures of {res['attempted']}")
        print(f"ok  {workload} spoiled: all {res['attempted']} ops counted as failed")

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", spec["workloads"][0]["name"], "--trace", "0",
                 cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("benchmark ran without the swlab sources")
    print(f"ok  without sources: exit code {proc.returncode}, no result printed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
