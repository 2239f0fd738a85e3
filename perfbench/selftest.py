"""Smoke self-test of the benchmark runner, perfbench/run.py.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in its smoke tier (10 rounds, or 100
verify trials), untraced and traced.  Checks that each run ends with a
correct result that names exactly the metrics BENCHMARK.json lists for that
mode, with their units; that no span's self time is negative; and that the
runner fails without printing a result in a directory holding only the
benchmark.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

from tracing import read_csv, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: not a clean run\n{proc.stdout}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        fail(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]) or (not trace and metric["value"] <= 0):
            fail(f"{label}: {name} = {metric['value']}")
    if trace:
        spans = read_csv(os.path.join(HERE, "out", workload, "spans-seed0-trace1.csv"))
        lowest = min(self_times(spans))
        if lowest < 0.0:
            fail(f"{label}: a span has negative self time {lowest}")
    print(f"ok   {label}: {len(got)} metrics, {result['attempted']} operations")


def check_bare_directory() -> None:
    """Holding only BENCHMARK.json and perfbench/, the runner must fail."""
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(bare, "median_selfish", 0)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        fail(f"bare directory: exit {proc.returncode}, last line {last[0]!r}")
    print(f"ok   bare directory: exit {proc.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
