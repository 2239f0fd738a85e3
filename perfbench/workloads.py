"""The benchmark's workloads and the inputs each one hands to dflsim.

Every run workload is the desk-scale experiment of the paper (14 honest and
6 selfish clients, 4 classes x 20 features so d = 84, rho 0.7, 300 rounds).
The workloads differ only in the defenders' rule and the attack kind.  The
``verify`` workload runs the randomized crafting self-checks, as
``dflsim verify --trials 10000`` does.

The workload seed becomes the config ``seed`` (or the verify seed); dflsim
receives only the generated config.
"""

from __future__ import annotations

import copy

# Mirrors configs/median_selfish.json (without its "output" key).  Kept here
# so that an edit of the example config never silently changes the benchmark.
BASE_CONFIG = {
    "roles": {"n": 14, "m": 6},
    "rule": {"kind": "median"},
    "attack": {"kind": "selfish", "lambda": 0.5, "b": 1.0, "epsilon": 0.1, "interval": 50, "info_mode": "all"},
    "trainer": {"learning_rate": 0.1, "local_epochs": 3, "batch_size": 32, "weight_decay": 0.0005},
    "partition": {"rho": 0.7},
    "data": {
        "synthetic": {"classes": 4, "features": 20, "per_class": 400, "separation": 3.0, "test_per_class": 250}
    },
    "rounds": 300,
    "seed": 0,
}

# d of the multinomial logistic model: a weight per class and feature, and a
# bias per class (84 here)
MODEL_DIM = BASE_CONFIG["data"]["synthetic"]["classes"] * (BASE_CONFIG["data"]["synthetic"]["features"] + 1)

# workload name -> (rule kind, attack kind, lambda); None for the verify
# workload.  A lambda of None picks the per-rule default (1.0 for trimmed_mean).
RUN_WORKLOADS = {
    "median_selfish": ("median", "selfish", 0.5),
    "trimmed_mean_selfish": ("trimmed_mean", "selfish", None),
    "flame_none": ("flame", "none", 0.5),
}
WORKLOADS = tuple(RUN_WORKLOADS) + ("verify",)

VERIFY_TRIALS = 10_000

# How strongly the time of each kind of interval follows the slowdown of
# the speed kernel (speed.py): it is scaled by (reference kernel time over
# kernel time) ** exponent.  Set-up, rounds and the verify identity suites
# (scalar work on arrays of at most 26 values) are interpreter-bound.  The
# solver suite (100,000-point grids) and the tightness suite (10,000 x 26
# arrays) are array-bound and slow down about as the square root of the
# kernel.  Fitted on a shared 2-CPU host on which the kernel's speed swung
# between about 0.65 and 1.2 of the reference: with exponent 1 for every
# suite, two sets of six and eight verify seeds spread by 0.16-0.23 on
# run_s and round_ms_p95.
SPEED_EXPONENT = {
    "setup": 1.0,
    "round": 1.0,
    "fedavg_identity": 0.8,
    "median_identity": 0.8,
    "trimmed_mean_identity": 0.8,
    "solver_vs_grid": 0.5,
    "bounds_tightness": 0.5,
}

# The smoke tier of the self-test: a few rounds, with a detector window short
# enough that the selfish attack starts (at round 4-5) before the run ends.
SMOKE_ROUNDS = 10
SMOKE_ATTACK = {"interval": 2, "epsilon": 0.5}
SMOKE_VERIFY_TRIALS = 100


def run_config(workload: str, seed: int, smoke: bool = False) -> dict:
    """The config document of a run workload at ``seed``."""
    rule, attack, lam = RUN_WORKLOADS[workload]
    doc = copy.deepcopy(BASE_CONFIG)
    doc["rule"] = {"kind": rule}
    doc["attack"]["kind"] = attack
    doc["attack"]["lambda"] = lam
    doc["seed"] = seed
    if smoke:
        doc["rounds"] = SMOKE_ROUNDS
        doc["attack"].update(SMOKE_ATTACK)
    return doc


def verify_trials(smoke: bool = False) -> int:
    return SMOKE_VERIFY_TRIALS if smoke else VERIFY_TRIALS


def verify_suite_sizes(trials: int) -> dict:
    """First argument of each suite, as ``dflsim.verify.run_all`` passes it."""
    return {
        "fedavg_identity": trials,
        "median_identity": trials,
        "trimmed_mean_identity": trials,
        "solver_vs_grid": max(10, trials // 10),   # instances per lambda regime
        "bounds_tightness": max(10, trials // 50),
    }


def planned_ops(workload: str, smoke: bool = False) -> int:
    """Operations one run attempts: rounds, or verify trials over all suites."""
    if workload in RUN_WORKLOADS:
        return run_config(workload, 0, smoke)["rounds"]
    sizes = verify_suite_sizes(verify_trials(smoke))
    # the solver suite counts one trial per instance of each of its 4 regimes
    return sum(sizes.values()) + 3 * sizes["solver_vs_grid"]
