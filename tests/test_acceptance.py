"""End-to-end acceptance checks.

Each test covers one numbered claim about the library, from exact crafting
identities up to desk-scale experiment behaviour, and prints a single
``[criterion NN] PASS/FAIL`` line (visible with ``pytest -s`` or on failure).
The desk-scale tests share one cache of experiment runs so the whole file
stays inside its runtime budgets.
"""

import json
import time

import numpy as np

from dflsim.aggregation import AggregationRule
from dflsim.attack import attack_start_round
from dflsim.cli import main
from dflsim.reporting import ExperimentRecord
from dflsim.simulation import (
    AttackConfig,
    Engine,
    ExperimentConfig,
    model_dim,
    run_experiment,
)
from dflsim.core import Rng
from dflsim.verify import (
    check_bounds_tightness,
    check_fedavg_identity,
    check_median_identity,
    check_solver_against_grid,
    check_trimmed_mean_identity,
)
from oracles import finite_difference_gradient, trainer_loss_and_grad

IDENTITY_TRIALS = 10_000

# the three desk-scale seeds exercised by criteria 7-9 (majority must pass)
DESK_SEEDS = (0, 1, 3)

_DESK_CACHE: dict[tuple, list[ExperimentRecord]] = {}


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _desk_final(kind: str, seed: int, lam: float | None = None) -> ExperimentRecord:
    """Final-round record of a desk-scale run (Median defense, 20 clients)."""
    key = (kind, lam, seed)
    if key not in _DESK_CACHE:
        cfg = ExperimentConfig(attack=AttackConfig(kind=kind, lam=lam), seed=seed)
        _DESK_CACHE[key] = run_experiment(cfg)
    return _DESK_CACHE[key][-1]


def _majority(flags) -> bool:
    flags = list(flags)
    return sum(flags) >= (len(flags) // 2 + 1)


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def test_criterion_01_fedavg_crafting_identity():
    res = check_fedavg_identity(trials=IDENTITY_TRIALS, seed=0)
    ok = res.passed and res.trials == IDENTITY_TRIALS and res.seconds < 10.0
    _report(1, "mean of benign+crafted equals the per-coordinate optimum (1e-9)",
            ok, f"{res.trials} trials, {res.failures} failures, {res.seconds:.2f}s")


def test_criterion_02_median_crafting_identity():
    res = check_median_identity(trials=IDENTITY_TRIALS, seed=0)
    counters = res.counters
    ok = (
        res.passed
        and counters["even_total"] >= 2_000
        and counters["odd_total"] >= 2_000
        and counters["reflect_high"] > 0
        and counters["reflect_low"] > 0
        and res.seconds < 10.0
    )
    _report(2, "median of benign+crafted equals the per-coordinate optimum (1e-9)",
            ok,
            f"{res.failures} failures, even={counters['even_total']} odd={counters['odd_total']} "
            f"reflect_high={counters['reflect_high']} reflect_low={counters['reflect_low']}, "
            f"{res.seconds:.2f}s")


def test_criterion_03_trimmed_mean_crafting_identity():
    res = check_trimmed_mean_identity(trials=IDENTITY_TRIALS, seed=0)
    counters = res.counters
    ok = (
        res.passed
        and counters["below_benign_mean"] >= 2_000
        and counters["above_benign_mean"] >= 2_000
        and res.seconds < 10.0
    )
    _report(3, "trimmed mean of benign+crafted equals the per-coordinate optimum (1e-9)",
            ok,
            f"{res.failures} failures, below={counters['below_benign_mean']} "
            f"above={counters['above_benign_mean']}, {res.seconds:.2f}s")


def test_criterion_04_solver_matches_grid_search():
    res = check_solver_against_grid(instances_per_regime=1_000, grid_points=100_000, seed=0)
    ok = res.passed and res.trials == 4_000 and res.seconds < 30.0
    _report(4, "closed-form optimum within one step of a 100,000-point grid argmin",
            ok, f"{res.trials} instances, {res.failures} failures, {res.seconds:.2f}s")


def test_criterion_05_reachable_interval_tightness():
    res = check_bounds_tightness(instances=200, trials_per_instance=10_000, seed=0)
    ok = res.passed and res.trials == 200
    _report(5, "random crafted values stay inside the reachable interval; extremes hit both ends",
            ok, f"{res.trials} instances x 10,000 trials, {res.failures} failures, {res.seconds:.2f}s")


# ---------------------------------------------------------------------------
# simulation behaviour
# ---------------------------------------------------------------------------

def test_criterion_06_no_attack_consensus():
    details = []
    ok = True
    for kind in ("fedavg", "median", "trimmed_mean"):
        cfg = ExperimentConfig(rule=AggregationRule(kind), attack=AttackConfig(kind="none"),
                               rounds=50, seed=0)
        eng = Engine(cfg)
        for _ in range(cfg.rounds):
            eng.run_round()
            reference = eng.models[0].tobytes()
            ok &= all(model.tobytes() == reference for model in eng.models)
            ok &= eng.records[-1].gap == 0.0
        details.append(f"{kind}: final gap={eng.records[-1].gap}")
    _report(6, "no attack, 20 clients, 50 rounds: post-aggregation models bit-identical, gap exactly 0",
            ok, "; ".join(details))


def test_criterion_07_desk_scale_competitive_advantage():
    start = time.perf_counter()
    per_seed = []
    details = []
    for seed in DESK_SEEDS:
        selfish = _desk_final("selfish", seed, lam=0.5)
        trim = _desk_final("trim", seed)
        gauss = _desk_final("gaussian", seed)
        passed = (
            selfish.gap >= 0.05
            and selfish.gap > trim.gap
            and selfish.gap > gauss.gap
        )
        per_seed.append(passed)
        details.append(
            f"seed {seed}: gap={selfish.gap:+.4f} trim={trim.gap:+.4f} gauss={gauss.gap:+.4f}"
        )
    elapsed = time.perf_counter() - start
    ok = _majority(per_seed) and elapsed < 300.0
    _report(7, "Median defense, lambda=0.5: final gap >= 0.05 and above both baseline attacks",
            ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_08_desk_scale_utility_goal():
    per_seed = []
    details = []
    for seed in DESK_SEEDS:
        selfish = _desk_final("selfish", seed, lam=0.5)
        coalition = _desk_final("two_coalitions", seed)
        per_seed.append(selfish.mtas >= coalition.mtas)
        details.append(f"seed {seed}: mtas={selfish.mtas:.4f} vs coalition={coalition.mtas:.4f}")
    _report(8, "selfish accuracy with full exchange at least matches training as a separate coalition",
            _majority(per_seed), "; ".join(details))


def test_criterion_09_lambda_rising_segment():
    per_seed = []
    details = []
    for seed in DESK_SEEDS:
        gap_half = _desk_final("selfish", seed, lam=0.5).gap
        gap_zero = _desk_final("selfish", seed, lam=0.0).gap
        per_seed.append(gap_half > gap_zero)
        details.append(f"seed {seed}: gap(0.5)={gap_half:+.4f} gap(0)={gap_zero:+.4f}")
    _report(9, "gap at lambda=0.5 exceeds gap at lambda=0 under the Median defense",
            _majority(per_seed), "; ".join(details))


# ---------------------------------------------------------------------------
# components with hand-computed expectations
# ---------------------------------------------------------------------------

def test_criterion_10_detector_fires_at_hand_computed_round():
    # losses 10,9,...,1 over rounds 1-10 (window gap 2.0 throughout), then a
    # plateau losing 0.01/round; with interval=2 and epsilon=0.1 the first
    # round with 0 < gap < 0.1 * max_gap is round 12 (gap 0.02 < 0.2).
    losses = [float(11 - t) if t <= 10 else 1.0 - 0.01 * (t - 10) for t in range(1, 16)]
    fired_at = attack_start_round(losses, epsilon=0.1, interval=2)
    ok = fired_at == 12 and attack_start_round(losses[:11], epsilon=0.1, interval=2) is None
    _report(10, "attack start flips exactly at the first round inside the loss-plateau window",
            ok, f"fired at round {fired_at}, expected 12")


def test_criterion_11_gradient_check():
    gen = Rng(202).stream(0)
    worst = 0.0
    for _ in range(100):
        classes = int(gen.integers(2, 6))
        features = int(gen.integers(3, 11))
        size = int(gen.integers(1, 65))
        model = gen.normal(0.0, 1.0, size=model_dim(classes, features))
        x = gen.normal(0.0, 2.0, size=(size, features))
        y = gen.integers(0, classes, size=size)
        _, grad = trainer_loss_and_grad(model, x, y, classes)
        fd = finite_difference_gradient(lambda mdl: trainer_loss_and_grad(mdl, x, y, classes)[0], model)
        rel = float(np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(fd)))))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(11, "analytic trainer gradients match central finite differences on 100 random batches",
            ok, f"worst relative error {worst:.2e} <= 1e-05")


def test_criterion_12_run_determinism(tmp_path):
    doc = {
        "roles": {"n": 3, "m": 1},
        "rule": {"kind": "median"},
        "attack": {"kind": "selfish", "lambda": 0.5, "interval": 2},
        "trainer": {"learning_rate": 0.1, "local_epochs": 1, "batch_size": 16},
        "partition": {"rho": 0.5, "groups": 2},
        "data": {"synthetic": {"classes": 2, "features": 4, "per_class": 60,
                               "separation": 3.0, "test_per_class": 30}},
        "rounds": 10,
        "seed": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "first")]) == 0
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first" / "records.csv").read_bytes()
    second = (tmp_path / "second" / "records.csv").read_bytes()
    ok = first == second and len(first.splitlines()) == 11
    _report(12, "two runs with the same config and seed write byte-identical CSVs",
            ok, f"{len(first)} bytes each")
