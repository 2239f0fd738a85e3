import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dflsim.aggregation import AggregationRule
from dflsim.attack import (
    FLAME_ALPHA,
    FLAME_BETA,
    CoordinateBounds,
    _solve_optimal,
    attack_start_round,
    craft_fedavg,
    craft_median,
    craft_shared_model,
    craft_trimmed_mean,
    fedavg_bounds,
    median_bounds,
    solve_optimal_coordinate,
    trimmed_mean_bounds,
)
from dflsim.simulation import AttackConfig, ExperimentConfig, read_plan

from oracles import (
    attack_start_of,
    brute_median_interval,
    brute_trimmed_interval,
    craft_flame_of,
    grid_argmin,
    median_of,
    scalar_crafting,
    trimmed_mean_of,
)


def descending(gen, n):
    return -np.sort(-gen.normal(0.0, 5.0, size=n))


# ---------------------------------------------------------------------------
# bounds type
# ---------------------------------------------------------------------------

def test_bounds_validation():
    b = CoordinateBounds(-1.0, 2.0)
    assert b.clamp(5.0) == 2.0 and b.clamp(-5.0) == -1.0 and b.clamp(0.5) == 0.5
    with pytest.raises(ValueError, match=r"^lower 1.0 exceeds upper 0.0$"):
        CoordinateBounds(1.0, 0.0)
    with pytest.raises(ValueError, match=r"^bounds must be finite, got \[0.0, inf\]$"):
        CoordinateBounds(0.0, np.inf)


# ---------------------------------------------------------------------------
# per-coordinate solver
# ---------------------------------------------------------------------------

def test_solver_interior_optimum():
    # lam=0 reduces to staying as close to w as the interval allows
    assert solve_optimal_coordinate(1.0, 99.0, CoordinateBounds(0.0, 3.0), 0.0) == 1.0
    assert solve_optimal_coordinate(5.0, 99.0, CoordinateBounds(0.0, 3.0), 0.0) == 3.0


def test_solver_convex_clamps_stationary_point():
    # p = (w - lam*w_benign)/(1 - lam) = (1 - 0)/0.5 = 2
    assert solve_optimal_coordinate(1.0, 0.0, CoordinateBounds(-2.0, 2.0), 0.5) == 2.0


def test_solver_linear_case_picks_endpoint():
    assert solve_optimal_coordinate(1.0, 0.5, CoordinateBounds(0.0, 3.0), 1.0) == 3.0
    assert solve_optimal_coordinate(0.5, 1.0, CoordinateBounds(0.0, 3.0), 1.0) == 0.0
    # tie w == w_benign goes to the lower endpoint
    assert solve_optimal_coordinate(1.0, 1.0, CoordinateBounds(0.0, 3.0), 1.0) == 0.0


def test_solver_near_one_treated_as_one():
    bounds = CoordinateBounds(0.0, 3.0)
    assert solve_optimal_coordinate(1.0, 0.5, bounds, 1.0 + 1e-10) == 3.0
    assert solve_optimal_coordinate(1.0, 0.5, bounds, 1.0 - 1e-10) == 3.0


def test_solver_concave_picks_far_endpoint():
    # p = w_benign + (w_benign - w)/(lam - 1) = 2 + 1/1 = 3; lower endpoint 0 is farther from p than 4
    assert solve_optimal_coordinate(1.0, 2.0, CoordinateBounds(0.0, 4.0), 2.0) == 0.0
    # equidistant tie goes to the lower endpoint
    assert solve_optimal_coordinate(2.0, 2.0, CoordinateBounds(0.0, 4.0), 2.0) == 0.0


def test_solver_concave_far_endpoint_holds_at_a_huge_lam():
    # lam * w_benign overflows at lam 1e308; p = 2 + 2/(lam - 1) = 2 leaves 5 the
    # far endpoint, where the objective 25 - lam * 9 is below 3.61 - lam * 0.01
    assert solve_optimal_coordinate(0.0, 2.0, CoordinateBounds(1.9, 5.0), 1e308) == 5.0
    solved = _solve_optimal(np.array([[0.0]]), np.array([2.0]), np.array([1.9]), np.array([5.0]), 1e308)
    assert solved.tolist() == [[5.0]]


def test_solver_rejects_negative_lam():
    with pytest.raises(ValueError):
        solve_optimal_coordinate(0.0, 0.0, CoordinateBounds(0.0, 1.0), -0.5)


def test_solver_matches_grid_oracle():
    gen = np.random.default_rng(11)
    for _ in range(200):
        lam = float(gen.choice([0.0, 0.3, 0.5, 1.0, 1.7, 2.0]))
        w, wb = gen.normal(0.0, 5.0, size=2)
        lo, hi = np.sort(gen.normal(0.0, 5.0, size=2))
        bounds = CoordinateBounds(float(lo), float(hi))
        solved = solve_optimal_coordinate(float(w), float(wb), bounds, lam)
        best = grid_argmin(float(w), float(wb), float(lo), float(hi), lam, points=20_001)
        step = (hi - lo) / 20_000
        assert abs(solved - best) <= step + 1e-12


# ---------------------------------------------------------------------------
# reachable intervals
# ---------------------------------------------------------------------------

def test_fedavg_bounds_are_min_max():
    b = fedavg_bounds([1.0, 4.0, 2.0])
    assert (b.lower, b.upper) == (1.0, 4.0)


def test_median_bounds_examples():
    b = median_bounds([4.0, 3.0, 2.0, 1.0], m=2)
    assert (b.lower, b.upper) == (1.5, 3.5)
    b = median_bounds([7.0, 6.0, 5.0, 4.0, 3.0, 2.0], m=2)
    assert (b.lower, b.upper) == (3.5, 5.5)


def test_median_bounds_requires_descending():
    with pytest.raises(ValueError, match=r"^benign coordinates must be sorted in descending order$"):
        median_bounds([1.0, 2.0, 3.0, 4.0], m=1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_median_bounds_and_crafting_reject_non_finite_values(bad):
    q = [5.0, 4.0, 3.0, 2.0, 1.0]
    q = [bad] + q if bad > 0 else q + [bad]  # NaN compares false and lands last
    with pytest.raises(ValueError, match=r"^benign coordinates must be finite$"):
        median_bounds(q, m=2)
    with pytest.raises(ValueError, match=r"^benign coordinates must be finite$"):
        craft_median(q, 3.0, m=2)
    with pytest.raises(ValueError, match=r"^benign coordinates must be finite$"):
        craft_trimmed_mean(q, 3.0, m=2)


def test_median_bounds_requires_enough_values():
    with pytest.raises(ValueError, match=r"^median bounds need n >= m \+ 1, got n=2, m=2$"):
        median_bounds([2.0, 1.0], m=2)


def test_median_bounds_match_brute_force():
    gen = np.random.default_rng(5)
    for _ in range(300):
        n = int(gen.integers(3, 16))
        m = int(gen.integers(1, n))
        q = descending(gen, n)
        b = median_bounds(q, m)
        lo, hi = brute_median_interval(q, m)
        assert np.isclose(b.lower, lo, atol=1e-12)
        assert np.isclose(b.upper, hi, atol=1e-12)


def test_trimmed_bounds_example():
    b = trimmed_mean_bounds([9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0], m=2)
    assert (b.lower, b.upper) == (5.0, 7.0)


def test_trimmed_bounds_require_more_values_than_m():
    with pytest.raises(ValueError, match=r"^trimmed-mean bounds need n > m, got n=2, m=2$"):
        trimmed_mean_bounds([2.0, 1.0], m=2)


def test_trimmed_bounds_match_brute_force():
    gen = np.random.default_rng(6)
    for _ in range(300):
        n = int(gen.integers(3, 16))
        m = int(gen.integers(1, n))
        q = descending(gen, n)
        b = trimmed_mean_bounds(q, m)
        lo, hi = brute_trimmed_interval(q, m)
        assert np.isclose(b.lower, lo, atol=1e-12)
        assert np.isclose(b.upper, hi, atol=1e-12)


# ---------------------------------------------------------------------------
# crafting: fedavg
# ---------------------------------------------------------------------------

def test_craft_fedavg_example():
    crafted = craft_fedavg([1.0, 2.0, 3.0, 4.0], target=2.0, m=2)
    assert crafted.tolist() == [0.0, 2.0]
    assert np.isclose(np.mean([1.0, 2.0, 3.0, 4.0, 0.0, 2.0]), 2.0)


def test_craft_fedavg_identity_random():
    gen = np.random.default_rng(7)
    for _ in range(300):
        n = int(gen.integers(2, 15))
        m = int(gen.integers(1, 6))
        q = gen.normal(0.0, 5.0, size=n)
        target = float(gen.uniform(q.min(), q.max()))
        crafted = craft_fedavg(q, target, m)
        assert np.isclose(np.mean(np.concatenate([q, crafted])), target, rtol=1e-12, atol=1e-12)


def test_craft_fedavg_out_of_bounds():
    with pytest.raises(ValueError, match=r"^target 5.0 outside \[1.0, 2.0\]$"):
        craft_fedavg([1.0, 2.0], target=5.0, m=1)


# ---------------------------------------------------------------------------
# crafting: median
# ---------------------------------------------------------------------------

def test_craft_median_reflected_case():
    q = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0]
    crafted = craft_median(q, target=5.25, m=2, b=1.0)
    assert sorted(crafted.tolist()) == [5.5, 8.0]
    assert median_of(np.concatenate([q, crafted])) == 5.25


def test_craft_median_interior_case():
    q = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0]
    crafted = craft_median(q, target=4.5, m=2, b=1.0)
    assert crafted.tolist() == [4.5, 4.5]
    assert median_of(np.concatenate([q, crafted])) == 4.5


def test_craft_median_low_reflected_case():
    q = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0]
    bounds = median_bounds(q, 2)
    crafted = craft_median(q, target=bounds.lower, m=2, b=1.0)
    assert median_of(np.concatenate([q, crafted])) == bounds.lower
    # surplus values park strictly below the benign minimum
    assert crafted[1] < min(q)


def test_craft_median_identity_random_both_parities():
    gen = np.random.default_rng(8)
    exception_hits = 0
    for trial in range(600):
        n = int(gen.integers(3, 16))
        m = int(gen.integers(1, n))
        if (n + m) % 2 != trial % 2:
            m = m + 1 if m + 1 < n + 1 else m - 1
            if not 1 <= m <= n - 1:
                continue
        q = descending(gen, n)
        bounds = median_bounds(q, m)
        target = float(gen.uniform(bounds.lower, bounds.upper))
        crafted = craft_median(q, target, m)
        if target > q[(n - m) // 2] or target < q[(n + m - 1) // 2]:
            exception_hits += 1
        assert np.isclose(median_of(np.concatenate([q, crafted])), target, rtol=1e-12, atol=1e-12)
    assert exception_hits > 0


def test_craft_median_out_of_bounds():
    with pytest.raises(ValueError, match=r"^target 3.5 outside \[1.5, 2.5\]$"):
        craft_median([3.0, 2.0, 1.0], target=3.5, m=1)


def test_craft_median_rejects_bad_b():
    with pytest.raises(ValueError):
        craft_median([3.0, 2.0, 1.0], target=2.0, m=1, b=0.0)


# ---------------------------------------------------------------------------
# crafting: trimmed mean
# ---------------------------------------------------------------------------

def test_craft_trimmed_below_benign_mean():
    q = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0]
    crafted = craft_trimmed_mean(q, target=5.2, m=2, b=1.0)
    assert sorted(crafted.tolist()) == [2.0, 4.0]
    assert trimmed_mean_of(np.concatenate([q, crafted]), 2) == 5.2


def test_craft_trimmed_above_benign_mean():
    q = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0]
    crafted = craft_trimmed_mean(q, target=6.8, m=2, b=1.0)
    assert sorted(crafted.tolist()) == [8.0, 10.0]
    assert trimmed_mean_of(np.concatenate([q, crafted]), 2) == 6.8


def test_craft_trimmed_at_benign_mean():
    q = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0]
    crafted = craft_trimmed_mean(q, target=6.0, m=2, b=1.0)
    assert trimmed_mean_of(np.concatenate([q, crafted]), 2) == 6.0


def test_craft_trimmed_endpoints():
    q = np.array([9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0])
    bounds = trimmed_mean_bounds(q, 2)
    low = craft_trimmed_mean(q, bounds.lower, m=2)
    assert np.all(low < q.min())  # all values park below the benign range
    assert np.isclose(trimmed_mean_of(np.concatenate([q, low]), 2), bounds.lower)
    high = craft_trimmed_mean(q, bounds.upper, m=2)
    assert np.isclose(trimmed_mean_of(np.concatenate([q, high]), 2), bounds.upper)


def test_craft_trimmed_identity_random():
    gen = np.random.default_rng(9)
    for _ in range(600):
        m = int(gen.integers(1, 5))
        n = int(gen.integers(2 * m + 1, 2 * m + 12))
        q = descending(gen, n)
        bounds = trimmed_mean_bounds(q, m)
        target = float(gen.uniform(bounds.lower, bounds.upper))
        crafted = craft_trimmed_mean(q, target, m)
        assert np.isclose(trimmed_mean_of(np.concatenate([q, crafted]), m), target, rtol=1e-12, atol=1e-12)


# the target equals the benign trimmed mean (low side, 1.9 <= 1.9) or lies an
# ulp above it (high side, 1.94 > 1.9399999999999997); in both cases the
# threshold of the split that parks no value rounds past the target
ROUNDING_SPLIT_CASES = [
    ([0.0, 0.0, 2.0, 1.9, 1.9], 2, 1.9),
    ([2.9, 2.7, 2.6] + [1.94] * 7 + [-2.1, -2.9], 3, 1.94),
]


@pytest.mark.parametrize("benign, m, target", ROUNDING_SPLIT_CASES)
def test_craft_trimmed_takes_unparked_split_past_rounded_threshold(benign, m, target):
    q = -np.sort(-np.array(benign))
    assert trimmed_mean_bounds(q, m).contains(target)
    crafted = craft_trimmed_mean(q, target, m)
    assert np.allclose(crafted, target, rtol=0.0, atol=1e-12)  # no value parked
    assert np.isclose(trimmed_mean_of(np.concatenate([q, crafted]), m), target, rtol=0.0, atol=1e-12)
    batched = craft_shared_model(AggregationRule("trimmed_mean"), [[target]], np.array(benign)[:, None], m, 0.0)
    assert np.array_equal(batched[0, :, 0], crafted)


# (distinct benign values in quarters, m) with n - m a power of two, so every
# sum and threshold is exact.  The middle values sit high, so split m is
# reachable below the benign trimmed mean; no set of values reaches it on
# both sides, so the high side runs on the mirrored values and target.
SPLIT_CASES = [
    ([3.0, 2.25, 2.0, 1.0, 0.5, 0.0], 2),
    ([9.0, 7.5, 7.25, 7.0, 6.75, 6.5, 6.25, 6.0, 2.0, 1.0], 2),
    ([12.0, 11.0, 10.0, 9.0, 8.75, 8.5, 8.25, 8.0, 2.0, 1.5, 1.0, 0.0], 4),
]


def dyadic_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The coarsest k / 2**e strictly between ``lo`` < ``hi``."""
    e = 0
    while (k := math.floor(lo * 2**e) + 1) >= hi * 2**e:
        e += 1
    return Fraction(k, 2**e)


def low_split_targets(benign, m: int) -> list[Fraction]:
    """Per split j = 0..m, a target below the benign trimmed mean that the
    first feasible split j reaches: the lower bound for j = 0, else strictly
    between the thresholds (j * q[m - 1] + sum(q[m:n - j])) / (n - m) of
    splits j - 1 and j, with a dyadic filler value so the crafting is exact."""
    q, n = [Fraction(v) for v in benign], len(benign)
    pivot, benign_trimmed = q[m - 1], sum(q[m:n - m]) / (n - 2 * m)
    thresholds = [(j * pivot + sum(q[m:n - j])) / (n - m) for j in range(m + 1)]
    targets = [thresholds[0]]
    for j in range(1, m + 1):
        kept = sum(q[m:n - j])
        # (kept + j * filler) / (n - m) passes threshold j - 1 for a filler above
        # the first bound, stays below threshold j for one below the pivot, and
        # below the benign trimmed mean for one below the last bound
        filler = dyadic_between(((j - 1) * pivot + q[n - j]) / j, min(pivot, ((n - m) * benign_trimmed - kept) / j))
        targets.append((kept + j * filler) / (n - m))
        assert thresholds[j - 1] < targets[j] < min(thresholds[j], benign_trimmed)
    return targets


def split_m_past_its_rounded_threshold(n: int, m: int) -> list:
    """At most one (descending column, target) whose target, the column's
    benign trimmed mean, reaches split m only because split m is taken
    without a threshold: rounding puts that threshold below the target.
    The column's pivot and middle values are all v; for some (n, m), such
    as any with n - 2m = 2, no v rounds so."""
    for v in np.arange(1, 100) / 100:
        q = np.array([v + 1] * (m - 1) + [v] * (n - 2 * m + 1) + [v - 1] * m)
        target = float(q[m:n - m].mean())
        if (m * q[m - 1] + q[m:n - m].sum()) / (n - m) < target:
            return [(q, target)]
    return []


@pytest.mark.parametrize("benign, m", SPLIT_CASES)
def test_trimmed_mean_crafting_takes_every_split_on_both_sides(benign, m):
    low, targets = np.array(benign), low_split_targets(benign, m)
    for j, exact in enumerate(targets):
        assert float(exact) == exact
        for q, target in ((low, float(exact)), (-low[::-1], -float(exact))):
            crafted = craft_trimmed_mean(q, target, m)
            assert np.count_nonzero((crafted < q[-1]) | (crafted > q[0])) == m - j, (q, target)
            batched = craft_shared_model(AggregationRule("trimmed_mean"), [[target]], q[:, None], m, 0.0)
            assert batched[0, :, 0].tobytes() == crafted.tobytes()
            assert trimmed_mean_of(np.concatenate([q, crafted]), m) == target
    # one call needs every split at once: receiver r's target in low column c (mirrored column c)
    # is split (c + r) % (m + 1)'s (negated), so the cells of one column close at every split
    columns = [(q, [sign * float(targets[(c + r) % (m + 1)]) for r in range(m + 1)])
               for q, sign in ((low, 1.0), (-low[::-1], -1.0)) for c in range(m + 1)]
    columns += [(q, [target] * (m + 1)) for q, target in split_m_past_its_rounded_threshold(len(benign), m)]
    receivers = np.array([cell for _, cell in columns]).T
    batched = craft_shared_model(AggregationRule("trimmed_mean"), receivers, np.array([q for q, _ in columns]).T, m, 0.0)
    for k, (q, cells) in enumerate(columns):
        for r, target in enumerate(cells):
            assert batched[r, :, k].tobytes() == craft_trimmed_mean(q, target, m).tobytes(), (r, k)


def test_craft_trimmed_needs_enough_benign():
    with pytest.raises(ValueError, match=r"^crafting needs n >= 2m \+ 1, got n=4, m=2$"):
        craft_trimmed_mean([4.0, 3.0, 2.0, 1.0], target=2.5, m=2)


def test_craft_trimmed_out_of_bounds():
    with pytest.raises(ValueError, match=r"^target 4.9 outside \[2.5, 3.5\]$"):
        craft_trimmed_mean([5.0, 4.0, 3.0, 2.0, 1.0], target=4.9, m=1)


# ---------------------------------------------------------------------------
# crafting: flame
# ---------------------------------------------------------------------------

def test_craft_flame_frozen_value():
    benign = [np.array([v]) for v in (1.0, 1.0, 2.0, 2.0, 3.0, 3.0)]
    crafted = craft_shared_model(AggregationRule("flame"), np.array([[1.0]]), benign, m=2, lam=0.0)[0]
    # two closest (ties -> lowest indices) sum to 2; (2 + 5*1 - 0.01*12) / (2 + 5 - 0.06)
    expected = (2.0 + 5.0 - 0.12) / 6.94
    assert crafted.shape == (2, 1)
    assert np.allclose(crafted, expected)
    assert np.array_equal(crafted[0], crafted[1])


def test_craft_flame_selects_by_direction():
    ref = np.array([1.0, 0.0])
    benign = [
        np.array([0.0, 1.0]),   # far
        np.array([1.0, 0.1]),   # close
        np.array([1.0, -0.1]),  # close
        np.array([-1.0, 0.0]),  # opposite
        np.array([2.0, 0.3]),
        np.array([0.5, 2.0]),
    ]
    crafted = craft_shared_model(AggregationRule("flame"), ref[None], benign, m=2, lam=0.0)[0]
    take = (6 - 2) // 2
    dists = [1.0 - b @ ref / (np.linalg.norm(b) * np.linalg.norm(ref)) for b in benign]
    chosen = np.argsort(dists, kind="stable")[:take]
    expected = (sum(benign[i] for i in chosen) + 5.0 * ref - 0.01 * sum(benign)) / (take + 5.0 - 0.06)
    assert np.allclose(crafted[0], expected)


def test_craft_flame_degenerate_denominator():
    # (n - m) // 2 + FLAME_ALPHA - FLAME_BETA * n = 0 + 5.0 - 0.01 * 500 = 0.0
    with pytest.raises(ValueError, match=r"^crafting denominator 0.0 too close to zero$"):
        craft_shared_model(AggregationRule("flame"), [[1.0]], np.ones((500, 1)), m=499, lam=0.0)


# ---------------------------------------------------------------------------
# attack start
# ---------------------------------------------------------------------------

def _first_rounds(losses, epsilon, interval):
    """The start round returned for every prefix of ``losses``."""
    return [attack_start_round(losses[:t], epsilon, interval) for t in range(len(losses) + 1)]


def test_detector_fires_at_plateau():
    losses = [10.0 - t for t in range(10)] + [0.99, 0.98, 0.97]
    assert _first_rounds(losses, 0.1, 2) == [None] * 12 + [12, 12]


def test_detector_never_fires_on_constant_decrease():
    assert attack_start_round([10.0 - 0.5 * t for t in range(40)], 0.1, 2) is None


def test_detector_ignores_exact_plateau():
    # a hard plateau gives a zero gap, which must not count as "slowed down"
    assert attack_start_round([5.0, 4.0, 3.0] + [3.0] * 20, 0.5, 2) is None


def test_detector_latches_once_started():
    losses = [10.0 - t for t in range(10)] + [0.99, 0.98]
    assert attack_start_round(losses, 0.1, 2) == 12
    # a loss spike, or a later fall, never moves the start round
    assert attack_start_round(losses + [500.0], 0.1, 2) == 12
    assert attack_start_round(losses + [500.0, -100.0, 0.5], 0.1, 2) == 12


def test_detector_history_is_running_minimum():
    # the gaps are those of the running minimum 10, 8, 8, 7.9: the spike to 9
    # is no drop, and round 4's gap 0.1 < 0.5 * 2.0 fires (the raw losses' would be 1.1)
    assert _first_rounds([10.0, 8.0, 9.0, 7.9], 0.5, 1) == [None] * 4 + [4]


def test_detector_waits_for_full_window():
    assert attack_start_round([1.0, 0.999, 0.998], 0.9, 10) is None
    assert attack_start_round([], 0.9, 1) is None


@pytest.mark.parametrize("epsilon, interval, message", [
    (0.0, 2, "epsilon must lie in (0, 1), got 0.0"),
    (1.0, 2, "epsilon must lie in (0, 1), got 1.0"),
    (float("nan"), 2, "epsilon must lie in (0, 1), got nan"),
    (0.5, 0, "interval must be >= 1, got 0"),
])
def test_attack_start_checks_its_settings(epsilon, interval, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        attack_start_round([1.0, 0.5], epsilon, interval)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AttackConfig(epsilon=epsilon, interval=interval)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_attack_start_rejects_a_non_finite_loss(bad):
    with pytest.raises(ValueError, match=rf"^round 3: loss {bad} is not finite$"):
        attack_start_round([3.0, 2.0, bad, 1.0], 0.5, 1)


@settings(max_examples=600, deadline=None)
@given(
    losses=st.one_of(
        # falls of 0-4 (plateaus and exact ties) between rises, or any finite floats
        st.lists(st.integers(0, 4) | st.integers(-20, -1), max_size=30).map(lambda falls: list(100.0 - np.cumsum(falls))),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=30),
    ),
    epsilon=st.sampled_from([0.25, 0.5]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    interval=st.integers(1, 4) | st.integers(5, 35),
)
@example(losses=[4.0, 2.0, 1.0], epsilon=0.5, interval=1)  # a gap of exactly epsilon times the largest
def test_attack_start_matches_the_incremental_rule_on_every_prefix(losses, epsilon, interval):
    """Ties, plateaus, spikes and windows longer than the trace: the start
    round of every prefix is the plain loop's, and a round once returned
    stays for every longer prefix."""
    rounds = _first_rounds(losses, epsilon, interval)
    assert rounds == [attack_start_of(losses[:t], epsilon, interval) for t in range(len(losses) + 1)]
    started = [r for r in rounds if r is not None]
    assert len(set(started)) <= 1


# ---------------------------------------------------------------------------
# full-vector crafting
# ---------------------------------------------------------------------------

def test_default_lambda_per_rule():
    def lam(kind):
        return read_plan(ExperimentConfig(rule=AggregationRule(kind), attack=AttackConfig(kind="selfish")))[1]

    assert lam("fedavg") == 0.0
    assert lam("median") == 0.5
    assert lam("trimmed_mean") == 1.0
    assert lam("krum") == 0.0


def _random_instance(gen, n=7, m=3, dim=4):
    benign = [gen.normal(0.0, 3.0, size=dim) for _ in range(n)]
    receiver = gen.normal(0.0, 3.0, size=dim)
    return receiver, benign


def test_craft_shared_model_median_hits_optimum():
    gen = np.random.default_rng(21)
    receiver, benign = _random_instance(gen)
    crafted = craft_shared_model(AggregationRule("median"), receiver[None], benign, m=3, lam=0.5)[0]
    assert crafted.shape == (3, 4)
    combined = np.concatenate([np.stack(benign), crafted])
    post = np.median(combined, axis=0)
    benign_mat = np.stack(benign)
    benign_agg = np.median(benign_mat, axis=0)
    for k in range(4):
        q = np.sort(benign_mat[:, k])[::-1]
        bounds = median_bounds(q, 3)
        target = solve_optimal_coordinate(receiver[k], benign_agg[k], bounds, 0.5)
        assert np.isclose(post[k], target, rtol=1e-12, atol=1e-12)


def test_craft_shared_model_trimmed_lam1_sits_on_bounds():
    gen = np.random.default_rng(22)
    receiver, benign = _random_instance(gen)
    crafted = craft_shared_model(AggregationRule("trimmed_mean", trim=3), receiver[None], benign, m=3, lam=1.0)[0]
    combined = np.sort(np.concatenate([np.stack(benign), crafted]), axis=0)
    post = combined[3:7].mean(axis=0)
    benign_mat = np.stack(benign)
    for k in range(4):
        q = np.sort(benign_mat[:, k])[::-1]
        bounds = trimmed_mean_bounds(q, 3)
        assert np.isclose(post[k], bounds.lower, atol=1e-9) or np.isclose(post[k], bounds.upper, atol=1e-9)


def test_craft_shared_model_krum_target_uses_mean_construction():
    gen = np.random.default_rng(23)
    receiver, benign = _random_instance(gen)
    crafted = craft_shared_model(AggregationRule("krum"), receiver[None], benign, m=3, lam=0.0)[0]
    post = np.concatenate([np.stack(benign), crafted]).mean(axis=0)
    benign_mat = np.stack(benign)
    lo, hi = benign_mat.min(axis=0), benign_mat.max(axis=0)
    expected = np.clip(receiver, lo, hi)  # lam=0 pins the mean to the receiver's model
    assert np.allclose(post, expected, atol=1e-12)


def test_craft_shared_model_coordinate_independence():
    gen = np.random.default_rng(24)
    receiver, benign = _random_instance(gen, dim=2)
    full = craft_shared_model(AggregationRule("median"), receiver[None], benign, m=3, lam=0.5)[0]
    for k in range(2):
        single = craft_shared_model(
            AggregationRule("median"),
            receiver[None, k:k + 1],
            [b[k:k + 1] for b in benign],
            m=3,
            lam=0.5,
        )[0]
        assert np.array_equal(full[:, k:k + 1], single)


# ---------------------------------------------------------------------------
# all receivers at once against the per-coordinate reference
# ---------------------------------------------------------------------------

LAMBDAS = (0.0, 0.5, 1.0, 2.0, 1.0 + 1e-10, 1.0 - 1e-10)


@st.composite
def crafting_instances(draw):
    """(rule kind, receivers (R, d), benign (n, d), m, lam) with n >= 2m + 1
    and values rounded to 0.1, so that ties occur."""
    kind = draw(st.sampled_from(("median", "trimmed_mean", "fedavg")))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2 * m + 1, 2 * m + 6))
    r = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    values = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=(n + r) * d, max_size=(n + r) * d)
    rows = np.round(np.array(draw(values)), 1).reshape(n + r, d)
    return kind, rows[n:], rows[:n], m, draw(st.sampled_from(LAMBDAS))


@settings(max_examples=300, deadline=None)
@given(crafting_instances())
@example(("trimmed_mean", np.array([[1.9]]), np.array([[0.0], [0.0], [2.0], [1.9], [1.9]]), 2, 0.0))
def test_craft_shared_model_matches_scalar_crafting(instance):
    kind, receivers, benign, m, lam = instance
    crafted = craft_shared_model(AggregationRule(kind), receivers, list(benign), m, lam)
    assert crafted.shape == (receivers.shape[0], m, benign.shape[1])
    for r, receiver in enumerate(receivers):
        assert np.array_equal(crafted[r], scalar_crafting(kind, receiver, list(benign), m, lam))


@pytest.mark.parametrize("kind", ["median", "trimmed_mean"])
def test_craft_shared_model_keeps_the_scalar_craftings_signed_zeros(kind):
    # np.sort and the descending -np.sort(-x) can order +0.0 and -0.0 differently, and the
    # crafting takes its benign aggregate from the descending sort: numpy's sums start from
    # +0.0, so it still has agg_median's and agg_trimmed_mean's bytes, signs of zero included
    benign = np.array(
        [[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, 1.0], [5.0, -0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, -1.0], [0.0, 2.0, -1.0, -0.0]]
    )
    receivers = np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, 1.0, 0.0, 0.0], [-0.0, 0.0, -0.0, 0.5]])
    for lam in LAMBDAS:
        crafted = craft_shared_model(AggregationRule(kind), receivers, benign, 2, lam)
        for r, receiver in enumerate(receivers):
            assert crafted[r].tobytes() == scalar_crafting(kind, receiver, list(benign), 2, lam).tobytes(), (r, lam)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(crafting_instances(), st.sampled_from((np.nan, np.inf, -np.inf)), st.data())
def test_craft_shared_model_non_finite_share_fails_like_scalar_crafting(instance, bad, data):
    kind, receivers, benign, m, lam = instance
    benign = benign.copy()
    benign[data.draw(st.integers(0, benign.shape[0] - 1)), data.draw(st.integers(0, benign.shape[1] - 1))] = bad
    with pytest.raises(ValueError, match=r"^coordinate \d+: benign shares or reachable bounds not finite$"):
        craft_shared_model(AggregationRule(kind), receivers, list(benign), m, lam)
    with pytest.raises(ValueError, match=r"^(benign coordinates must be finite|bounds must be finite, got \[.+\])$"):
        np.stack([scalar_crafting(kind, w, list(benign), m, lam) for w in receivers])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["median", "trimmed_mean", "fedavg"])
def test_craft_shared_model_names_the_first_faulty_coordinate(kind):
    gen = np.random.default_rng(27)
    receivers, benign = gen.normal(size=(3, 4)), gen.normal(size=(7, 4))
    receivers[2, 0] = receivers[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"^receiver 1, coordinate 2: target outside the reachable bounds$"):
        craft_shared_model(AggregationRule(kind), receivers, benign, m=2, lam=0.5)
    benign[4, 3] = benign[0, 1] = np.inf  # checked before any target
    with pytest.raises(ValueError, match=r"^coordinate 1: benign shares or reachable bounds not finite$"):
        craft_shared_model(AggregationRule(kind), receivers, benign, m=2, lam=0.5)


@st.composite
def flame_instances(draw):
    """(receivers (R, d), benign (n, d), m) with n > m, values rounded to
    0.1 so that distances tie, and some receivers or shares all zero."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m + 1, m + 12))
    r = draw(st.integers(1, 5))
    d = draw(st.integers(1, 8))
    values = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=(n + r) * d, max_size=(n + r) * d)
    rows = np.round(np.array(draw(values)), 1).reshape(n + r, d)
    for row in draw(st.lists(st.integers(0, n + r - 1), max_size=3)):
        rows[row] = 0.0
    return rows[n:], rows[:n], m


@settings(max_examples=300, deadline=None)
@given(flame_instances())
# under SkylakeX kernels, cosines from BLAS dots instead of einsum sums select
# other shares here: through the benign norms and dots, then the receiver norms
@example((
    np.array([[-0.1, -0.2, 0.4]]),
    np.array([[0.8, -0.8, 0.8], [-0.2, -0.6, -0.1], [0.6, 1.0, -0.1], [0.3, -0.3, 0.3],
              [-0.0, 0.9, -0.6], [1.0, 0.7, -0.7], [0.1, -0.0, 0.2]]),
    2,
))
@example((
    np.array([[0.5, 0.2]]),
    np.array([[-0.7, 0.1], [0.2, 0.0], [-0.1, -0.3], [0.5, 0.0], [-0.2, 0.3], [0.8, 0.7], [-0.6, 0.8]]),
    2,
))
def test_craft_shared_model_flame_matches_per_receiver_crafting(instance):
    receivers, benign, m = instance
    crafted = craft_shared_model(AggregationRule("flame"), receivers, benign, m, lam=0.0)
    expected = np.stack([craft_flame_of(w, list(benign), m, FLAME_ALPHA, FLAME_BETA) for w in receivers])
    assert crafted.shape == expected.shape and crafted.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["median", "trimmed_mean", "fedavg", "flame"])
def test_craft_shared_model_rejects_bad_parameters(kind):
    gen = np.random.default_rng(26)
    receivers, benign = gen.normal(size=(2, 3)), list(gen.normal(size=(7, 3)))
    rule = AggregationRule(kind)
    with pytest.raises(ValueError):
        craft_shared_model(rule, receivers, benign, m=0, lam=0.5)
    with pytest.raises(ValueError):
        craft_shared_model(rule, receivers, benign, m=2, lam=-0.5)
    m_too_large, message = {
        "median": (7, r"^median bounds need n >= m \+ 1, got n=7, m=7$"),
        "trimmed_mean": (4, r"^crafting needs n >= 2m \+ 1, got n=7, m=4$"),
    }.get(kind, (None, None))
    if m_too_large is not None:
        with pytest.raises(ValueError):
            craft_shared_model(rule, receivers, benign, m=2, lam=0.5, b=0.0)
        with pytest.raises(ValueError, match=message):
            craft_shared_model(rule, receivers, benign, m=m_too_large, lam=0.5)
