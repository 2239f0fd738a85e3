"""Pinned regression matrix: every defense rule against every attack kind.

Each cell of ``MATRICES`` runs a small 20-round experiment whose detector
window is short enough that the selfish attack starts, and compares two
sha256 digests against those in ``tests/digests.json``: the records CSV as
``write_records`` writes it, and the final model bytes of every client in id
order.  A change that keeps the numerics must reproduce both byte for byte.
The selfish cells whose rule has a closed-form crafting also check the
paper's optimality claim where it runs: each crafted round must put every
attacked receiver on its constrained optimum, coordinate by coordinate, and
those cells together must reach every regime of the solver and the crafting.

The records digests hold under every OpenBLAS kernel family, but each family
rounds the partial sums of a matrix product its own way, so the final models
are pinned once per core, picked by the core name numpy's OpenBLAS reports:
``{"records": {matrix: {cell: sha}}, "models": {core: {matrix: {cell: sha}}}}``.
A core with no set fails every cell, naming itself.  After a deliberate
change of the numerics, rewrite the file with

    PYTHONPATH=src python tests/test_regression.py

which runs the matrices in one child interpreter per kernel in ``KERNELS``
and refuses to write, naming the cell or the core, if a cell's records
differ between children or a child reports another core than its kernel's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np
import pytest
from openblas_core import core_name
from oracles import median_of, trimmed_mean_of

from dflsim.aggregation import AggregationRule
from dflsim.attack import LAMBDA_ONE_TOLERANCE
from dflsim.core import RoleConfig
from dflsim.reporting import read_records, write_records
from dflsim.simulation import (
    AttackConfig, Engine, ExperimentConfig, PartitionConfig, SyntheticDataConfig, TrainerConfig,
)
from dflsim.verify import (
    ABS_TOL, REL_TOL, fedavg_bounds, median_bounds, solve_optimal_coordinate, trimmed_mean_bounds,
)

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

RULES = ("fedavg", "median", "trimmed_mean", "krum", "fltrust", "flame")
ATTACKS = ("none", "selfish", "gaussian", "trim")
# crafting attacks: every other kind sends true models only
CRAFTING_ATTACKS = ("selfish", "gaussian", "trim")
# the selfish attack with the coalition aggregating only its own shares; the
# trimmed-mean and krum rules cannot aggregate the 2 coalition shares
SELFISH_ONLY_RULES = ("fedavg", "median", "fltrust", "flame")
RULE_BY_ATTACK = [(rule, attack, "all") for rule in RULES for attack in ATTACKS]
# matrix -> (its (rule, attack, info_mode) cells, roles, lambda)
MATRICES = {
    "7+2": (
        RULE_BY_ATTACK
        + [(rule, "selfish", "selfish_only") for rule in SELFISH_ONLY_RULES]
        + [(rule, mode, "all") for mode in ("independent", "two_coalitions") for rule in RULES],
        RoleConfig(n=7, m=2),
        None,
    ),
    # sums over n > 8 benign values pass numpy's 8-term pairwise-summation
    # block, so a sum taken in another order changes the last bits of a digest
    "11+3": (RULE_BY_ATTACK, RoleConfig(n=11, m=3), None),
    # trimmed-mean crafting sums at most n - m benign values per split, so the
    # order of those sums shows only from n - m > 8 on, and only in the filler
    # values of interior targets: at the default lambda 1 every target is a
    # bound and every crafted share is parked
    "13+3": ([("trimmed_mean", "selfish", "all")], RoleConfig(n=13, m=3), 0.5),
    # 11+3 at lambda 0, where many median and trimmed-mean targets are
    # interior and trimmed mean's split m (no crafted share parked) occurs, at
    # lambda 1, where the linear objective's endpoint rule runs, and at lambda
    # 2, the only cells where the concave objective's far-endpoint rule runs
    # (fedavg at lambda 0 and trimmed mean at lambda 1 are 11+3 cells)
    **{f"11+3-lam{lam:g}": ([(rule, "selfish", "all") for rule in ("fedavg", "median", "trimmed_mean")
                             if (rule, lam) not in (("fedavg", 0.0), ("trimmed_mean", 1.0))], RoleConfig(n=11, m=3), lam)
       for lam in (0.0, 1.0, 2.0)},
}
MATRIX_CELLS = [(matrix, "-".join(cell)) for matrix, (cells, _, _) in MATRICES.items() for cell in cells]
# rule -> (its reachable interval and its aggregate of the benign values sorted
# descending, given the number m of selfish clients)
OPTIMUM_TERMS = {
    "fedavg": (lambda q, m: fedavg_bounds(q), lambda q, m: float(np.mean(q))),
    "median": (median_bounds, lambda q, m: median_of(q)),
    "trimmed_mean": (trimmed_mean_bounds, trimmed_mean_of),
}
# the selfish cells whose rule has a closed-form crafting: (rule, roles, lambda)
OPTIMUM_CELLS = [pytest.param(rule, roles, lam, id=f"{rule}-{matrix}")
                 for matrix, (cells, roles, lam) in MATRICES.items() for rule, attack, info_mode in cells
                 if rule in OPTIMUM_TERMS and (attack, info_mode) == ("selfish", "all")]
# where the solver puts a target, by the branch of the objective
SOLVER_REGIMES = ("lower bound", "upper bound", "interior", "lambda = 1 endpoint", "lambda > 1 far endpoint")
# rule -> every regime of its crafting, which the optimum cells must each reach:
# the solver's, then the branch the crafting of the target takes
CRAFTING_REGIMES = {
    "fedavg": SOLVER_REGIMES,
    "median": SOLVER_REGIMES + ("first share above the pivots", "first share below the pivots",
                                "first share between the pivots"),
    "trimmed_mean": SOLVER_REGIMES + ("split 0", "interior split", "split m"),
}
# the kernel each writer child forces -> the core numpy's OpenBLAS then
# reports.  numpy 2.4.6's OpenBLAS reports its Prescott (SSE3) kernels as
# 'Katmai'; forced to Zen it reports 'Haswell', to Cooperlake or
# SapphireRapids 'SkylakeX', and to Barcelona or Atom 'Nehalem', so those
# kernels give no set of their own.
KERNELS = {"Prescott": "Katmai", "Nehalem": "Nehalem", "Sandybridge": "Sandybridge", "Haswell": "Haswell",
           "SkylakeX": "SkylakeX"}
CORE = core_name()


def regression_config(
    rule: str, attack: str, info_mode: str = "all", *, roles: RoleConfig, lam: float | None
) -> ExperimentConfig:
    return ExperimentConfig(
        roles=roles,
        rule=AggregationRule(rule),
        attack=AttackConfig(kind=attack, lam=lam, interval=2, epsilon=0.5, info_mode=info_mode),
        trainer=TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=16),
        partition=PartitionConfig(rho=0.7),
        data=SyntheticDataConfig(classes=3, features=6, per_class=60, separation=3.0, test_per_class=30),
        rounds=20,
        seed=0,
    )


def run_cell(matrix: str, cell: str, directory: str) -> tuple[str, str, bool]:
    """The records and final-model digests of one cell, and whether its attack
    had started by the last round."""
    _, roles, lam = MATRICES[matrix]
    engine = Engine(regression_config(*cell.split("-"), roles=roles, lam=lam))
    engine.run()
    path = os.path.join(directory, f"{cell}.csv")
    write_records(engine.records, path)
    with open(path, "rb") as fh:
        records = hashlib.sha256(fh.read()).hexdigest()
    return records, hashlib.sha256(engine.models.tobytes()).hexdigest(), engine.records[-1].attack_started


@pytest.fixture(scope="module")
def digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


# the 7+2 cells go by their cell name, the others by cell and matrix
@pytest.mark.parametrize(
    "matrix, cell", MATRIX_CELLS, ids=[cell if m == "7+2" else f"{cell}-{m}" for m, cell in MATRIX_CELLS]
)
def test_regression_matrix(matrix, cell, digests, tmp_path):
    """The records digest against the one pinned for every core, then the
    final models against this core's set; each model failure names the core."""
    records, models, started = run_cell(matrix, cell, str(tmp_path))
    assert started == (cell.split("-")[1] in CRAFTING_ATTACKS)
    assert records == digests["records"][matrix][cell]
    core = CORE or "unknown (no OpenBLAS name getter found beside numpy)"
    sets = digests["models"]
    assert CORE in sets, f"OpenBLAS core {core} has no pinned final models; pinned cores: {', '.join(sets)}"
    assert models == sets[CORE][matrix][cell], f"final models differ from the digest pinned for OpenBLAS core {core}"


def test_every_matrix_csv_reads_back(tmp_path):
    """``read_records`` parses every cell's records CSV, though its rounded
    gap may differ from its rounded mtas - mtans, and writing what it read
    gives the same bytes."""
    unread = []
    for matrix, cell in MATRIX_CELLS:
        run_cell(matrix, cell, str(tmp_path))
        path, again = tmp_path / f"{cell}.csv", tmp_path / "again.csv"
        try:
            write_records(read_records(str(path)), str(again))
        except ValueError as exc:
            unread.append(f"{matrix} {exc}")
            continue
        if again.read_bytes() != path.read_bytes():
            unread.append(f"{matrix} {cell}: rewriting the parsed records changes the bytes")
    assert not unread, f"{len(unread)} of {len(MATRIX_CELLS)} CSVs do not read back; first: {unread[0]}"


def crafted_targets(rule: str, roles: RoleConfig, lam: float | None):
    """Run the selfish cell and yield, for each crafted round t, coordinate k
    and attacked receiver r, the values the optimum and regime tests read:
    (t, r, k, the resolved lambda, the benign values q sorted descending,
    the reachable bounds, the scalar solver's target, receiver r's crafted
    shares and its aggregate)."""
    engine = Engine(regression_config(rule, "selfish", roles=roles, lam=lam))
    bounds_of, benign_of = OPTIMUM_TERMS[rule]
    for t in range(1, engine.cfg.rounds + 1):
        pre_agg, crafted = engine.run_round()
        if crafted is None:
            continue
        for k in range(pre_agg.shape[1]):
            q = -np.sort(-pre_agg[: roles.n, k])
            bounds, benign = bounds_of(q, roles.m), benign_of(q, roles.m)
            for r in range(roles.n):
                target = solve_optimal_coordinate(pre_agg[r, k], benign, bounds, engine.lam)
                yield t, r, k, engine.lam, q, bounds, target, crafted[r, :, k], engine.models[r, k]


@pytest.mark.parametrize("rule, roles, lam", OPTIMUM_CELLS)
def test_crafted_aggregates_sit_on_the_optimum(rule, roles, lam):
    """On every crafted round each attacked receiver's aggregate equals, per
    coordinate, the optimum of (x - w)^2 - lam * (x - w_benign)^2 over the
    reachable interval, from the scalar bounds and solver and the oracles."""
    checks, mismatches = 0, []
    for t, r, k, _, _, _, target, _, got in crafted_targets(rule, roles, lam):
        checks += 1
        if not math.isclose(got, target, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            mismatches.append((t, r, k, got, target))
    assert checks > 0
    assert not mismatches, (
        f"{len(mismatches)} of {checks} missed; first (round, receiver, coordinate, got, target): {mismatches[0]}"
    )


def crafting_regimes(rule: str, m: int, lam: float, q: np.ndarray, bounds, target: float, shares: np.ndarray):
    """The solver regime of one crafted target and, for median and trimmed
    mean, the branch its crafted ``shares`` took (offset ``b`` is 1)."""
    if abs(lam - 1.0) <= LAMBDA_ONE_TOLERANCE:
        yield "lambda = 1 endpoint"
    elif lam > 1.0:
        yield "lambda > 1 far endpoint"
    else:
        yield "lower bound" if target == bounds.lower else "upper bound" if target == bounds.upper else "interior"
    n = q.size
    if rule == "median":
        upper_pivot, lower_pivot = q[(n - m) // 2], q[(n + m - 1) // 2]
        side = "above" if shares[0] > upper_pivot else "below" if shares[0] < lower_pivot else "between"
        yield f"first share {side} the pivots"
    elif rule == "trimmed_mean":
        split = m - int(np.count_nonzero((shares == q[-1] - 1.0) | (shares == q[0] + 1.0)))  # parked shares
        yield "split 0" if split == 0 else "split m" if split == m else "interior split"


def test_the_optimum_cells_reach_every_crafting_regime():
    """Each regime of each closed-form crafting occurs on some crafted target
    of the optimum cells, so that the optimum test judges every branch."""
    counts = {rule: Counter() for rule in CRAFTING_REGIMES}
    for param in OPTIMUM_CELLS:
        rule, roles, lam = param.values
        for _, _, _, resolved, q, bounds, target, shares, _ in crafted_targets(rule, roles, lam):
            counts[rule].update(crafting_regimes(rule, roles.m, resolved, q, bounds, target, shares))
    unhit = [f"{rule}: {regime}" for rule, regimes in CRAFTING_REGIMES.items()
             for regime in regimes if not counts[rule][regime]]
    assert not unhit, f"no optimum cell reaches {'; '.join(unhit)}; targets per regime: {counts}"


def matrix_digests() -> dict:
    """This interpreter's OpenBLAS core and every cell's records and
    final-model digests, each as matrix -> cell -> sha256."""
    records, models = {matrix: {} for matrix in MATRICES}, {matrix: {} for matrix in MATRICES}
    with tempfile.TemporaryDirectory() as directory:
        for matrix, cell in MATRIX_CELLS:
            records[matrix][cell], models[matrix][cell], _ = run_cell(matrix, cell, directory)
    return {"core": CORE, "records": records, "models": models}


def merge_digests(results: dict[str, dict]) -> dict:
    """The ``digests.json`` document from each forced kernel's
    ``matrix_digests``.  Raises ValueError when a child reports another core
    than its kernel's, or when a cell's records differ between children."""
    for kernel, result in results.items():
        if result["core"] != KERNELS[kernel]:
            raise ValueError(f"forced to {kernel}, the child reports core {result['core']}, not {KERNELS[kernel]}")
    first, *others = results.values()
    for other in others:
        for matrix, cell in MATRIX_CELLS:
            if other["records"][matrix][cell] != first["records"][matrix][cell]:
                cores = f"{first['core']} and {other['core']}"
                raise ValueError(f"records of {matrix} cell {cell} differ between cores {cores}")
    return {"records": first["records"], "models": {result["core"]: result["models"] for result in results.values()}}


def child_digests(kernel: str) -> dict:
    """``matrix_digests`` of a fresh interpreter whose OpenBLAS is forced to ``kernel``."""
    code = "import json, sys, test_regression; json.dump(test_regression.matrix_digests(), sys.stdout)"
    path = os.pathsep.join(filter(None, (os.path.dirname(DIGESTS_PATH), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path)
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, check=True).stdout)


if __name__ == "__main__":
    results = {kernel: child_digests(kernel) for kernel in KERNELS}
    try:
        document = merge_digests(results)
    except ValueError as exc:
        sys.exit(f"not writing {DIGESTS_PATH}: {exc}")
    with open(DIGESTS_PATH, "w") as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
