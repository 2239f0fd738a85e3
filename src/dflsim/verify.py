"""The per-coordinate reference crafting and its randomized self-checks.

The reference crafts one coordinate at a time; the batched crafting a run
executes (``dflsim.attack``) reproduces it bit for bit.  Each suite draws
random attack instances, runs the reference crafting, and checks the
claimed exact identity against a direct numpy aggregation of benign plus
crafted values — an independent route that shares no code with the
crafting itself.  The crafting functions are injectable so a deliberately
broken variant can demonstrate that the suites catch bugs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attack import LAMBDA_ONE_TOLERANCE, _check_m, _median_interval, check_offset
from .core import Rng

LAMBDA_CHOICES = (0.0, 0.5, 1.0, 2.0)
REL_TOL = 1e-9
ABS_TOL = 1e-12
# points of the solver suite's grid searched at a time: its three 256 KB
# work buffers stay in a core's L2, where the whole 100,000-point grid
# streams through memory on each of the objective's passes (blocks of
# 16,384 and 65,536 points were slower)
GRID_BLOCK = 32_768
# placements of the tightness suite aggregated at a time, for the same reason
TIGHTNESS_BLOCK = 1_000


# ---------------------------------------------------------------------------
# per-coordinate reference crafting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateBounds:
    """Closed interval of aggregates reachable on one coordinate."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"bounds must be finite, got [{self.lower}, {self.upper}]")
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def clamp(self, x: float) -> float:
        return min(max(x, self.lower), self.upper)


def solve_optimal_coordinate(w: float, w_benign: float, bounds: CoordinateBounds, lam: float) -> float:
    """Minimize ``(x-w)^2 - lam*(x-w_benign)^2`` over ``bounds``.

    For ``lam < 1`` the objective is strictly convex with stationary point
    ``p = (w - lam*w_benign) / (1 - lam)``, so the answer is ``p`` clamped.
    For ``lam == 1`` it is linear and an endpoint wins (lower on ties).
    For ``lam > 1`` it is concave, so the endpoint farther from ``p`` wins
    (lower on ties).
    """
    if not lam >= 0.0:  # NaN fails too
        raise ValueError(f"lam must be >= 0, got {lam}")
    if abs(lam - 1.0) <= LAMBDA_ONE_TOLERANCE:
        return bounds.upper if w > w_benign else bounds.lower
    if lam < 1.0:
        return bounds.clamp((w - lam * w_benign) / (1.0 - lam))
    p = w_benign + (w_benign - w) / (lam - 1.0)  # lam * w_benign would overflow for a huge lam
    return bounds.upper if abs(p - bounds.upper) > abs(p - bounds.lower) else bounds.lower


def _check_descending(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("benign coordinates must be a non-empty 1-D sequence")
    if not np.isfinite(q).all():
        raise ValueError("benign coordinates must be finite")
    if (q[1:] > q[:-1]).any():
        raise ValueError("benign coordinates must be sorted in descending order")
    return q


def fedavg_bounds(q: Sequence[float]) -> CoordinateBounds:
    """Mean of benign plus m crafted values can land anywhere in [min, max]
    of the benign values (and, with unbounded shares, beyond; the attack
    restricts itself to the benign range)."""
    q = np.asarray(q, dtype=np.float64)
    if q.size == 0:
        raise ValueError("need at least one benign value")
    return CoordinateBounds(float(q.min()), float(q.max()))


def median_bounds(q: Sequence[float], m: int) -> CoordinateBounds:
    """Interval the median of ``q`` (sorted descending) plus ``m`` crafted values can reach."""
    q = _check_descending(q)
    _check_m(m)
    return CoordinateBounds(*map(float, _median_interval(q, m)))


def trimmed_mean_bounds(q: Sequence[float], m: int) -> CoordinateBounds:
    """Interval the trimmed mean (m per side) of ``q`` (sorted descending) plus
    ``m`` crafted values can reach: the means of the bottom and top n - m values."""
    q = _check_descending(q)
    _check_m(m)
    n = q.size
    if n <= m:
        raise ValueError(f"trimmed-mean bounds need n > m, got n={n}, m={m}")
    return CoordinateBounds(float(q[m:].sum() / (n - m)), float(q[: n - m].sum() / (n - m)))


def craft_fedavg(q: Sequence[float], target: float, m: int) -> np.ndarray:
    """Crafted values whose mean together with ``q`` equals ``target``.

    One value absorbs the correction, the other m - 1 sit at the target.
    """
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    _check_m(m)
    bounds = fedavg_bounds(q)
    if not bounds.contains(target):
        raise ValueError(f"target {target} outside [{bounds.lower}, {bounds.upper}]")
    crafted = np.full(m, target, dtype=np.float64)
    crafted[0] = (n + 1) * target - q.sum()
    return crafted


def craft_median(q: Sequence[float], target: float, m: int, b: float = 1.0) -> np.ndarray:
    """Crafted values that drive the median of ``q`` plus them to ``target``.

    ``q`` must be sorted descending.  When the target sits strictly above
    q[(n-m)//2] (possible only for even totals) one value is reflected so
    the two middle entries average to the target while the rest park above
    the benign maximum; symmetrically below; otherwise all crafted values
    equal the target.
    """
    bounds = median_bounds(q, m)
    check_offset(b)
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    if not bounds.contains(target):
        raise ValueError(f"target {target} outside [{bounds.lower}, {bounds.upper}]")
    upper_pivot = q[(n - m) // 2]
    lower_pivot = q[(n + m - 1) // 2]
    crafted = np.empty(m, dtype=np.float64)
    if target > upper_pivot:
        crafted[0] = 2.0 * target - upper_pivot
        crafted[1:] = q[0] + b
    elif target < lower_pivot:
        crafted[0] = 2.0 * target - lower_pivot
        crafted[1:] = q[-1] - b
    else:
        crafted[:] = target
    return crafted


def craft_trimmed_mean(q: Sequence[float], target: float, m: int, b: float = 1.0) -> np.ndarray:
    """Crafted values that drive the trimmed mean (m per side) of ``q`` plus
    them to ``target``.

    ``q`` must be sorted descending.  Split j = 0..m parks m - j crafted
    values outside the benign range (below it when the target is at or below
    the benign trimmed mean, above it otherwise) and gives the other j a
    common filler value that lands the surviving mean on the target; the
    first feasible split wins.
    """
    bounds = trimmed_mean_bounds(q, m)
    check_offset(b)
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    if n < 2 * m + 1:
        raise ValueError(f"crafting needs n >= 2m + 1, got n={n}, m={m}")
    if not bounds.contains(target):
        raise ValueError(f"target {target} outside [{bounds.lower}, {bounds.upper}]")
    low = target <= float(q[m:n - m].mean())
    pivot = q[m - 1] if low else q[n - m]
    for j in range(m + 1):
        kept = (q[m:n - j] if low else q[j:n - m]).sum()
        threshold = (j * pivot + kept) / (n - m)
        # split m parks nothing and is feasible in exact arithmetic: take it
        # without a threshold that rounding can put past the target
        if j == m or (target <= threshold if low else target >= threshold):
            break
    crafted = np.full(m, q[-1] - b if low else q[0] + b)
    if j:
        crafted[m - j:] = ((n - m) * target - kept) / j
    return crafted


@dataclass
class SuiteResult:
    """Outcome of one randomized suite."""

    name: str
    trials: int
    failures: int = 0
    counters: dict = field(default_factory=dict)
    first_failure: dict | None = None
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def fail(self, **details) -> None:
        """Count one failed trial; keep the first one's details."""
        self.failures += 1
        if self.first_failure is None:
            self.first_failure = details

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        line = f"{status}  {self.name}: {self.trials} trials, {self.failures} failures ({self.seconds:.2f}s)"
        return f"{line}  [{extras}]" if extras else line


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _draw_instance(gen: np.random.Generator, parity: int | None = None):
    """Random (n, m, q, w, lam) with the colluding-minority constraint."""
    while True:
        n = int(gen.integers(5, 21))
        m_max = (n - 1) // 2
        m = int(gen.integers(1, m_max + 1))
        if parity is not None and (n + m) % 2 != parity:
            continue
        break
    # mix continuous values with coarse ones so exact ties are exercised
    if gen.random() < 0.2:
        q = np.round(gen.uniform(-5, 5, size=n), 1)
    else:
        q = gen.normal(0.0, 5.0, size=n)
    w = float(gen.normal(0.0, 5.0))
    lam = LAMBDA_CHOICES[int(gen.integers(len(LAMBDA_CHOICES)))]
    return n, m, q, w, lam


def check_fedavg_identity(trials: int = 10_000, seed: int = 0, craft=craft_fedavg) -> SuiteResult:
    """Mean of benign plus crafted must equal the per-coordinate optimum."""
    result = SuiteResult("fedavg crafting identity", trials)
    gen = Rng(seed).stream(10)
    start = time.perf_counter()
    for _ in range(trials):
        n, m, q, w, lam = _draw_instance(gen)
        bounds = fedavg_bounds(q)
        benign_agg = float(q.mean())
        target = solve_optimal_coordinate(w, benign_agg, bounds, lam)
        crafted = craft(q, target, m)
        got = float(np.mean(np.concatenate([q, crafted])))
        if not _close(got, target):
            result.fail(q=q.tolist(), m=m, w=w, lam=lam, target=target, aggregated=got)
    result.seconds = time.perf_counter() - start
    return result


def check_median_identity(trials: int = 10_000, seed: int = 0, craft=craft_median) -> SuiteResult:
    """Median of benign plus crafted must equal the per-coordinate optimum.

    Alternates even and odd total counts and counts how often the
    reflected-value branches (only reachable for even totals) fire.
    """
    result = SuiteResult("median crafting identity", trials)
    result.counters = {"even_total": 0, "odd_total": 0, "reflect_high": 0, "reflect_low": 0}
    gen = Rng(seed).stream(11)
    start = time.perf_counter()
    for trial in range(trials):
        n, m, q, w, lam = _draw_instance(gen, parity=trial % 2)
        q = -np.sort(-q)
        result.counters["even_total" if (n + m) % 2 == 0 else "odd_total"] += 1
        bounds = median_bounds(q, m)
        benign_agg = float(np.median(q))
        target = solve_optimal_coordinate(w, benign_agg, bounds, lam)
        if target > q[(n - m) // 2]:
            result.counters["reflect_high"] += 1
        elif target < q[(n + m - 1) // 2]:
            result.counters["reflect_low"] += 1
        crafted = craft(q, target, m)
        got = float(np.median(np.concatenate([q, crafted])))
        if not _close(got, target):
            result.fail(q=q.tolist(), m=m, w=w, lam=lam, target=target, aggregated=got)
    result.seconds = time.perf_counter() - start
    return result


def _trimmed_mean_values(values: np.ndarray, trim: int) -> float:
    values = np.sort(values)
    return float(values[trim:values.size - trim].mean())


def check_trimmed_mean_identity(trials: int = 10_000, seed: int = 0, craft=craft_trimmed_mean) -> SuiteResult:
    """Trimmed mean of benign plus crafted must equal the per-coordinate optimum."""
    result = SuiteResult("trimmed-mean crafting identity", trials)
    result.counters = {"below_benign_mean": 0, "above_benign_mean": 0}
    gen = Rng(seed).stream(12)
    start = time.perf_counter()
    for _ in range(trials):
        n, m, q, w, lam = _draw_instance(gen)
        q = -np.sort(-q)
        bounds = trimmed_mean_bounds(q, m)
        benign_agg = float(q[m:n - m].mean())
        target = solve_optimal_coordinate(w, benign_agg, bounds, lam)
        side = "below_benign_mean" if target <= benign_agg else "above_benign_mean"
        result.counters[side] += 1
        crafted = craft(q, target, m)
        got = _trimmed_mean_values(np.concatenate([q, crafted]), m)
        if not _close(got, target):
            result.fail(q=q.tolist(), m=m, w=w, lam=lam, target=target, aggregated=got)
    result.seconds = time.perf_counter() - start
    return result


def _fill_grid(grid: np.ndarray, ramp: np.ndarray, lower: float, upper: float, first: int) -> None:
    """Write points ``first`` to ``first + grid.size`` of
    ``np.linspace(lower, upper, ramp.size)`` into ``grid`` in place.

    ``ramp`` is ``np.arange(ramp.size, dtype=float)``.  The arithmetic is
    linspace's own (ramp times step plus lower, then the last point set to
    ``upper``), so the points are bit-identical.  A step that underflows to
    zero takes linspace's separate denormal branch, so that case calls it.
    """
    step = (upper - lower) / (ramp.size - 1)
    if step == 0:
        grid[:] = np.linspace(lower, upper, ramp.size)[first:first + grid.size]
        return
    np.multiply(ramp[first:first + grid.size], step, out=grid)
    grid += lower
    if first + grid.size == ramp.size:
        grid[-1] = upper


def _grid_best(w: float, w_benign: float, lam: float, lower: float, upper: float, ramp: np.ndarray,
               work: np.ndarray) -> float:
    """The grid point ``np.argmin`` picks of ``(x - w)**2 - lam * (x - w_benign)**2``
    over ``np.linspace(lower, upper, ramp.size)``.

    The grid is filled and searched ``work.shape[1]`` points at a time in the
    three rows of ``work`` (grid, objective, penalty), blocks small enough to
    stay in cache.  The objective is computed in place with the allocating
    expression's arithmetic.  A later block takes over only with a strictly
    smaller value, and a NaN, which ``np.argmin`` picks first, is never
    replaced, so the point is the first occurrence of the global minimum.
    """
    best = best_value = None
    for first in range(0, ramp.size, work.shape[1]):
        grid, objective, penalty = work[:, :ramp.size - first]
        _fill_grid(grid, ramp, lower, upper, first)
        np.square(np.subtract(grid, w, out=objective), out=objective)
        np.square(np.subtract(grid, w_benign, out=penalty), out=penalty)
        penalty *= lam
        objective -= penalty
        index = int(np.argmin(objective))
        value = objective[index]
        if best is None or (not np.isnan(best_value) and (np.isnan(value) or value < best_value)):
            best, best_value = float(grid[index]), value
    return best


def check_solver_against_grid(
    instances_per_regime: int = 1_000,
    grid_points: int = 100_000,
    seed: int = 0,
    solver=solve_optimal_coordinate,
) -> SuiteResult:
    """Closed-form optimum must match a dense grid argmin within one step.

    The grid search (:func:`_grid_best`) reuses one ``GRID_BLOCK``-point
    set of work buffers, allocated once per call, and finds the point that
    ``np.argmin`` over the whole ``np.linspace`` grid would.
    """
    result = SuiteResult("solver vs. grid search", instances_per_regime * len(LAMBDA_CHOICES))
    gen = Rng(seed).stream(13)
    ramp = np.arange(grid_points, dtype=float)
    work = np.empty((3, min(GRID_BLOCK, grid_points)))
    start = time.perf_counter()
    for lam in LAMBDA_CHOICES:
        for _ in range(instances_per_regime):
            w = float(gen.normal(0.0, 5.0))
            w_benign = float(gen.normal(0.0, 5.0))
            a, b = np.sort(gen.normal(0.0, 5.0, size=2))
            bounds = CoordinateBounds(float(a), float(b))
            solved = solver(w, w_benign, bounds, lam)
            best = _grid_best(w, w_benign, lam, bounds.lower, bounds.upper, ramp, work)
            step = (bounds.upper - bounds.lower) / (grid_points - 1)
            if abs(solved - best) > step + ABS_TOL:
                result.fail(
                    w=w, w_benign=w_benign, lam=lam, bounds=[bounds.lower, bounds.upper], solved=solved, grid_best=best
                )
    result.seconds = time.perf_counter() - start
    return result


def _tightness_aggregates(q: np.ndarray, crafted: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Medians and ``[m:n]`` trimmed means of ``q`` plus each row of
    ``crafted``, from one ``(trials, n + m)`` matrix sorted once."""
    n = q.size
    # filled in place, not by concatenate, which lays some shapes out in
    # Fortran order and so changes the trimmed means' summation order
    combined = np.empty((crafted.shape[0], n + m))
    combined[:, :n] = q
    combined[:, n:] = crafted
    combined.sort(axis=1)
    return np.median(combined, axis=1), combined[:, m:n].mean(axis=1)


def check_bounds_tightness(
    instances: int = 200,
    trials_per_instance: int = 10_000,
    seed: int = 0,
) -> SuiteResult:
    """Random crafted values never push the aggregate outside the claimed
    interval, and the explicit extreme constructions reach the endpoints."""
    result = SuiteResult("reachable-interval tightness", instances)
    gen = Rng(seed).stream(14)
    start = time.perf_counter()
    for _ in range(instances):
        n, m, q, _, _ = _draw_instance(gen)
        q = -np.sort(-q)
        crafted = gen.normal(0.0, 50.0, size=(trials_per_instance, m))
        med_bounds = median_bounds(q, m)
        tm_bounds = trimmed_mean_bounds(q, m)

        ok = True
        for first in range(0, trials_per_instance, TIGHTNESS_BLOCK):
            medians, tms = _tightness_aggregates(q, crafted[first:first + TIGHTNESS_BLOCK], m)
            ok &= np.all(medians >= med_bounds.lower - ABS_TOL) and np.all(medians <= med_bounds.upper + ABS_TOL)
            ok &= np.all(tms >= tm_bounds.lower - ABS_TOL) and np.all(tms <= tm_bounds.upper + ABS_TOL)

        # explicit extreme placements must achieve the endpoints
        high = np.concatenate([q, np.full(m, q[0] + 1.0)])
        low = np.concatenate([q, np.full(m, q[-1] - 1.0)])
        ok &= _close(float(np.median(high)), med_bounds.upper)
        ok &= _close(float(np.median(low)), med_bounds.lower)
        ok &= _close(_trimmed_mean_values(high, m), tm_bounds.upper)
        ok &= _close(_trimmed_mean_values(low, m), tm_bounds.lower)

        if not ok:
            result.fail(q=q.tolist(), m=m)
    result.seconds = time.perf_counter() - start
    return result


def run_all(trials: int = 10_000, seed: int = 0) -> list[SuiteResult]:
    """Run every suite; ``trials`` scales the identity checks."""
    if trials < 1:  # the identity suites would pass on 0 trials
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_regime = max(10, trials // 10)
    instances = max(10, trials // 50)
    return [
        check_fedavg_identity(trials, seed),
        check_median_identity(trials, seed),
        check_trimmed_mean_identity(trials, seed),
        check_solver_against_grid(per_regime, seed=seed),
        check_bounds_tightness(instances, seed=seed),
    ]
