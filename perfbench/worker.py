"""One benchmark child: import dflsim, set up, run one workload, check it.

Usage: python3 perfbench/worker.py '<job json>'

The job names the workload, seed, mode ("setup" stops after set-up, "run"
runs the workload), whether to trace, and where to write records and spans.
The child prints one JSON report as its last line of standard output.  A
failed correctness check is listed under "problems"; an exception exits
non-zero.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

from speed import SpeedSampler
from tracing import Tracer, self_times, summarize
from workloads import RUN_WORKLOADS, SPEED_EXPONENT, run_config, verify_suite_sizes, verify_trials

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# verify suites: metric name -> (check function, parameter that takes the
# crafting or solver function, attack function passed through it).  The
# suites bind those functions as defaults when dflsim.verify is defined, so
# patching the module name alone would miss them.  Each suite calls that
# function once a trial; the tightness suite, which has no such parameter,
# calls median_bounds (a global of dflsim.verify) once a trial.
VERIFY_SUITES = {
    "fedavg_identity": ("check_fedavg_identity", "craft", "craft_fedavg"),
    "median_identity": ("check_median_identity", "craft", "craft_median"),
    "trimmed_mean_identity": ("check_trimmed_mean_identity", "craft", "craft_trimmed_mean"),
    "solver_vs_grid": ("check_solver_against_grid", "solver", "solve_optimal_coordinate"),
    "bounds_tightness": ("check_bounds_tightness", None, "median_bounds"),
}
# scalar attack functions the suites look up in dflsim.verify at call time
VERIFY_GLOBALS = ("solve_optimal_coordinate", "fedavg_bounds", "median_bounds", "trimmed_mean_bounds")
VERIFY_INJECTED = ("craft_fedavg", "craft_median", "craft_trimmed_mean")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# (owner in dflsim, attribute, span name) of every call a traced run times
SIMULATION_PATCHES = (
    ("simulation", "local_update", "simulation.local_update"),
    ("simulation", "loss_and_grad", "simulation.loss_and_grad"),
    ("simulation", "group_accuracy", "simulation.group_accuracy"),
    ("simulation", "craft_shared_model", "attack.craft_shared_model"),
    ("simulation", "aggregate", "aggregation.aggregate"),
    ("simulation.Engine", "__init__", "simulation.Engine.init"),
    ("simulation.Engine", "run_round", "simulation.Engine"),
    ("core.Rng", "stream", "core.Rng.stream"),
    ("core.RoundExchange", "shares_for", "core.RoundExchange.shares_for"),
    ("reporting", "write_records", "reporting.write_records"),
)


def patch_simulation(tracer: Tracer, mods) -> list[str]:
    """Trace the calls of SIMULATION_PATCHES; return the names dflsim lacks."""
    missing = []
    for owner, attr, name in SIMULATION_PATCHES:
        module, _, cls = owner.partition(".")
        target = getattr(mods[module], cls, None) if cls else mods[module]
        if not tracer.patch(target, attr, name):
            missing.append(f"{owner}.{attr}")
    return missing


def check_records(records, rounds: int, selfish: bool) -> list[str]:
    problems = []
    if [r.round for r in records] != list(range(1, rounds + 1)):
        problems.append(f"expected rounds 1..{rounds}, got {len(records)} records")
    for r in records:
        values = (r.mtas, r.mtans, r.gap, r.mean_selfish_loss)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"round {r.round}: non-finite record {values}")
            break
        if not (0.0 <= r.mtas <= 1.0 and 0.0 <= r.mtans <= 1.0):
            problems.append(f"round {r.round}: accuracy outside [0, 1]: {r.mtas}, {r.mtans}")
            break
    if selfish and not (records and records[-1].attack_started):
        problems.append("selfish attack never started, so crafting was not measured")
    return problems


def run_simulation(job, mods, tracer) -> dict:
    cli, simulation, reporting = mods["cli"], mods["simulation"], mods["reporting"]
    cfg = cli.config_from_dict(run_config(job["workload"], job["seed"], job["smoke"]))
    engine = simulation.Engine(cfg)
    report = {"setup": [(job["import_start"], time.perf_counter(), SPEED_EXPONENT["setup"])]}
    if job["mode"] == "setup":
        return report

    rounds = []
    start = time.perf_counter()
    for _ in range(cfg.rounds):
        began = time.perf_counter()
        engine.run_round()
        rounds.append((began, time.perf_counter(), SPEED_EXPONENT["round"]))
    reporting.write_records(engine.records, job["records"])
    report["run"] = [(start, time.perf_counter(), SPEED_EXPONENT["round"])]

    records = engine.records
    selfish = cfg.attack.kind == "selfish"
    started = [r.round for r in records if r.attack_started]
    report.update(
        ops_intervals=rounds,
        ops=len(records),
        problems=check_records(records, cfg.rounds, selfish),
        digest=sha256_file(job["records"]),
        final_gap=records[-1].gap if records else None,
        attack_start_round=started[0] if started else None,
    )
    return report


def run_verify(job, mods, tracer) -> dict:
    """Run the five suites with run_all's sizes, timing every trial.

    The function each suite calls once a trial (VERIFY_SUITES) is wrapped
    to mark the time of the call.  A trial lasts from its mark to the next
    one, or to the end of its suite.  Each suite's intervals are scaled
    with its own speed exponent.
    """
    verify = mods["verify"]
    report = {"setup": [(job["import_start"], job["import_end"], SPEED_EXPONENT["setup"])]}
    if job["mode"] == "setup":
        return report
    trials, seed = verify_trials(job["smoke"]), job["seed"]
    sizes = verify_suite_sizes(trials)
    marks: list[float] = []

    def marking(fn):
        def marked(*args, **kwargs):
            marks.append(time.perf_counter())
            return fn(*args, **kwargs)
        return marked

    if tracer is not None:
        for name in VERIFY_GLOBALS:
            tracer.patch(verify, name, f"attack.{name}")  # a missing name fails the intercept check
    passed = {name: getattr(verify, name) for name in VERIFY_INJECTED + ("solve_optimal_coordinate",)}
    if tracer is not None:
        passed.update((name, tracer.wrap(f"attack.{name}", passed[name])) for name in VERIFY_INJECTED)
    results, intervals, segments = [], [], []
    start = time.perf_counter()
    for metric, (check, param, fn) in VERIFY_SUITES.items():
        suite = getattr(verify, check) if tracer is None else tracer.wrap(f"verify.{metric}", getattr(verify, check))
        unmarked = getattr(verify, fn)
        if param is None:
            setattr(verify, fn, marking(unmarked))
        first = len(marks)
        try:
            results.append(suite(sizes[metric], seed=seed, **({param: marking(passed[fn])} if param else {})))
        finally:
            setattr(verify, fn, unmarked)
        end, exponent = time.perf_counter(), SPEED_EXPONENT[metric]
        times = marks[first:] + [end]
        intervals.extend((a, b, exponent) for a, b in zip(times, times[1:]))
        segments.append((segments[-1][1] if segments else start, end, exponent))
    report["run"] = segments

    summary = [[r.name, r.trials, r.failures, r.counters, r.first_failure] for r in results]
    ops = sum(r.trials for r in results)
    problems = [f"{r.name}: {r.failures} of {r.trials} trials failed" for r in results if not r.passed]
    if len(intervals) != ops:
        problems.append(f"timed {len(intervals)} trials, the suites report {ops}")
    report.update(
        ops_intervals=intervals,
        ops=ops,
        problems=problems,
        digest=hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest(),
        suites={metric: {"trials": r.trials, "failures": r.failures} for metric, r in zip(VERIFY_SUITES, results)},
    )
    return report


def main(job: dict) -> dict:
    sampler = SpeedSampler()
    job["import_start"] = time.perf_counter()
    sampler.start()
    try:
        report = measure(job)
    finally:
        sampler.stop()
    # every time a child reports is scaled to the reference speed; "wall_" keeps the raw one
    # each is a list of (start, end, speed exponent)
    for key in ("setup", "run"):
        if key in report:
            segments = report.pop(key)
            report[f"{key}_s"] = sum(sampler.scaled(*segment) for segment in segments)
            report[f"wall_{key}_s"] = sum(b - a for a, b, _ in segments)
    if "ops_intervals" in report:
        report["op_s"] = [sampler.scaled(*interval) for interval in report.pop("ops_intervals")]
    report["speed"] = sampler.speed()
    return report


def measure(job: dict) -> dict:
    sys.path.insert(0, SRC)
    import dflsim
    from dflsim import cli, core, reporting, simulation, verify
    job["import_end"] = time.perf_counter()
    if not os.path.abspath(dflsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported dflsim from {dflsim.__file__}, not from this checkout")
    mods = {"cli": cli, "core": core, "reporting": reporting, "simulation": simulation, "verify": verify}

    tracer = Tracer() if job["trace"] else None
    runner = run_simulation if job["workload"] in RUN_WORKLOADS else run_verify
    not_traced = patch_simulation(tracer, mods) if tracer is not None and runner is run_simulation else []
    report = runner(job, mods, tracer)
    report["not_traced"] = not_traced
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = environment()
    if tracer is not None:
        stats = summarize(tracer.spans)
        report.update(
            stats=stats,
            spans=len(tracer.spans),
            min_self_s=min(self_times(tracer.spans), default=0.0),
            crafted_rounds=len({s[3] for s in tracer.spans if s[0] == "attack.craft_shared_model"}),
        )
        if runner is run_verify:
            missed = [n for n in VERIFY_GLOBALS + VERIFY_INJECTED if f"attack.{n}" not in stats]
            if missed:
                report["problems"].append(f"traced verify intercepted no calls of {missed}")
        tracer.write_csv(job["spans"])
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
