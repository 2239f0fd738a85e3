"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload median_selfish --seed 0 --seconds 25 --trace 0

Each run of the workload is a fresh child process (perfbench/worker.py),
one at a time: a closed loop from one process with one run in flight.

--trace 0 first times nine set-ups in their own children, then runs the
workload again and again while another run is predicted to end within
--seconds (at least once), and prints the end-to-end metrics of
BENCHMARK.json.  --trace 1 makes one untraced and one traced run of the same
seed and prints the per-layer metrics.  End-to-end times are scaled to a
reference machine speed (see speed.py); raw wall times are printed too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Records, spans and a full result
file go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import MODEL_DIM, WORKLOADS, planned_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_CHILDREN = 9
TIME_LIMIT_S = 170.0  # a run of the benchmark must end within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="a few rounds and trials (self-test tier)")
    return parser.parse_args(argv)


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn(job: dict, deadline: float) -> tuple[dict | None, str | None]:
    """Run one worker child to completion; return (report, error)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, "no time left before the run's limit"
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(job)],
            capture_output=True, text=True, timeout=remaining, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {remaining:.0f} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, None


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def end_to_end_metrics(setups, runs) -> dict:
    round_ms = sorted(x * 1e3 for r in runs for x in r["op_s"])
    return {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
        "round_ms_p50": percentile(round_ms, 50),
        "round_ms_p95": percentile(round_ms, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def layer_metrics(names, traced, untraced) -> dict:
    """Per-layer metrics from the traced child's span summary.

    ``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` read the summary of
    the span of that name (0 when the workload never made the call).
    """
    stats, suites = traced["stats"], traced.get("suites", {})
    craft = stats.get("attack.craft_shared_model", {"calls": 0, "s": 0.0})
    agg = stats.get("aggregation.aggregate", {"calls": 0, "s": 0.0})
    special = {
        "attack.craft_shared_model.us_per_coord":
            craft["s"] / (craft["calls"] * MODEL_DIM) * 1e6 if craft["calls"] else 0.0,
        "attack.crafted_rounds": traced.get("crafted_rounds", 0),
        "aggregation.aggregate.us_per_call": agg["s"] / agg["calls"] * 1e6 if agg["calls"] else 0.0,
        "trace.overhead_frac": traced["run_s"] / untraced["run_s"] - 1.0,
        "trace.spans": traced["spans"],
    }
    values = {}
    for name in names:
        span, field = name.rsplit(".", 1)
        if name in special:
            values[name] = special[name]
        elif span.startswith("verify.") and field in ("trials", "failures"):
            values[name] = suites.get(span[len("verify."):], {}).get(field, 0)
        else:
            values[name] = stats.get(span, {}).get(field, 0)
    return values


def describe_child(kind: str, r: dict) -> str:
    text = (f"{kind}: run_s={r['run_s']:.3f} (wall {r['wall_run_s']:.3f}, speed {r['speed']:.3f}) "
            f"setup_s={r['setup_s']:.4f} ops={r['ops']} digest={r['digest']}")
    if r.get("final_gap") is not None:
        text += f" final_gap={r['final_gap']:.6f} attack_start_round={r['attack_start_round']}"
    return text


def measure(args, job, began: float, deadline: float):
    """Spawn the children of one benchmark run.

    Returns (set-up reports, untraced run reports, traced report or None,
    number of run children started, errors of children that failed).
    """
    setups, runs, traced, errors = [], [], None, []
    if args.trace:
        for trace in (False, True):
            report, error = spawn(job("run", trace, 0), deadline)
            if error:
                errors.append(error)
            elif trace:
                traced = report
            else:
                runs.append(report)
        return setups, runs, traced, 2, errors

    for _ in range(SETUP_CHILDREN):
        report, error = spawn(job("setup", False, 0), deadline)
        if error:
            errors.append(error)
        else:
            setups.append(report)
    durations = []
    while not durations or time.monotonic() - began + statistics.median(durations) <= args.seconds:
        started = time.monotonic()
        report, error = spawn(job("run", False, len(durations)), deadline)
        durations.append(time.monotonic() - started)
        if error:
            errors.append(error)
            break
        runs.append(report)
    return setups, runs, traced, len(durations), errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dflsim", "__init__.py")):
        print(f"perfbench: no dflsim source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    names, units = [m["name"] for m in spec], {m["name"]: m["unit"] for m in spec}
    began = time.monotonic()
    env = {
        "workload": args.workload, "seed": args.seed, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg(),
    }
    out_dir = os.path.join(HERE, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"seed{args.seed}-trace{args.trace}"

    def job(mode: str, trace: bool, index: int) -> dict:
        return {
            "workload": args.workload, "seed": args.seed, "smoke": args.smoke, "mode": mode, "trace": trace,
            "records": os.path.join(out_dir, f"records-{tag}-{'traced' if trace else 'untraced'}{index}.csv"),
            "spans": os.path.join(out_dir, f"spans-{tag}.csv"),
        }

    setups, runs, traced, started, errors = measure(args, job, began, began + TIME_LIMIT_S)
    done = runs + ([traced] if traced else [])
    ops = planned_ops(args.workload, args.smoke)
    for r in done:
        if r["ops"] != ops:
            r["problems"].append(f"made {r['ops']} operations, expected {ops}")
        if r["digest"] != done[0]["digest"]:
            r["problems"].append(f"records {r['digest']} differ from the first run's {done[0]['digest']}")
    if traced is not None and traced["min_self_s"] < -1e-9:
        traced["problems"].append(f"negative span self time {traced['min_self_s']}")
    problems = [f"child failed: {e}" for e in errors] + [p for r in done for p in r["problems"]]
    attempted = ops * started
    failed = ops * (started - sum(1 for r in done if not r["problems"]))

    values = None
    if args.trace and traced and runs:
        values = layer_metrics(names, traced, runs[0])
    elif not args.trace and runs:
        values = end_to_end_metrics(setups, runs)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          "closed loop, one process, one run in flight")
    env.update((done or setups or [{}])[0].get("env", {}))
    print("env " + json.dumps(env))
    for i, r in enumerate(runs):
        print(describe_child(f"untraced run {i}", r))
    if traced:
        print(describe_child("traced run", traced))
    if values is not None:
        unit_of_op = "trials" if args.workload == "verify" else "rounds"
        samples = {
            "run_s": f"{len(runs)} runs",
            "setup_s": f"{len(setups) + len(runs)} set-ups",
            "round_ms_p50": f"{sum(len(r['op_s']) for r in runs)} {unit_of_op}",
            "round_ms_p95": f"{sum(len(r['op_s']) for r in runs)} {unit_of_op}",
            "peak_rss_mb": f"{len(runs)} runs",
        }
        for name in names:
            print(f"  {name:48s} {values[name]:>16.6f} {units[name]:8s} {samples.get(name, '')}")
    print(f"  {'error_rate':48s} {failed / attempted:>16.6f} {'fraction':8s} {failed} of {attempted} operations failed")
    if traced:
        ranked = sorted(traced["stats"].items(), key=lambda kv: kv[1]["self_s"], reverse=True)
        print("self time by span: " + ", ".join(f"{n} {s['self_s']:.3f} s" for n, s in ranked))
    if args.workload == "flame_none" and runs and runs[0]["final_gap"] != 0.0:
        print(f"known defect: flame_none ends with gap {runs[0]['final_gap']:.6f}, not 0, because selfish "
              "clients aggregate with median under flame (see perfbench/README.md); not counted as a failure")
    if traced and traced["not_traced"]:
        print(f"not traced, absent from dflsim: {', '.join(traced['not_traced'])} (their metrics read 0)")
    for problem in problems:
        print(f"problem: {problem}")
    if values is None:
        print("perfbench: no run completed, so there are no metrics", file=sys.stderr)
        return 1

    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        children = [{k: v for k, v in r.items() if k not in ("op_s", "stats")} for r in done]
        json.dump({**result, "env": env, "problems": problems, "children": children}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
