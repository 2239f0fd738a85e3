"""The self-check suites must pass on the real crafting code and fail with a
recorded counterexample when handed a deliberately broken variant."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dflsim.verify
from dflsim.attack import CoordinateBounds
from dflsim.core import Rng
from dflsim.verify import (
    SuiteResult,
    _draw_instance,
    _fill_grid,
    _tightness_aggregates,
    check_bounds_tightness,
    check_fedavg_identity,
    check_median_identity,
    check_solver_against_grid,
    check_trimmed_mean_identity,
    run_all,
)

from oracles import tightness_aggregates_of


def test_all_suites_pass_at_reduced_scale():
    results = run_all(trials=500, seed=1)
    assert len(results) == 5
    assert len({r.name for r in results}) == 5
    for result in results:
        assert result.passed, result.describe()
        assert result.first_failure is None


def test_describe_mentions_counters():
    res = check_median_identity(trials=200, seed=0)
    text = res.describe()
    assert text.startswith("pass")
    assert "even_total=" in text


def test_broken_fedavg_craft_is_caught():
    def broken(q, target, m):
        return np.full(m, target + 0.1)

    res = check_fedavg_identity(trials=200, seed=0, craft=broken)
    assert not res.passed
    assert res.first_failure is not None
    assert {"q", "m", "target", "aggregated"} <= res.first_failure.keys()


def test_broken_median_craft_is_caught():
    # sending the bare target everywhere misses reflected targets beyond the
    # upper/lower pivots, which the even/odd harness is guaranteed to draw
    def broken(q, target, m):
        return np.full(m, target)

    res = check_median_identity(trials=2_000, seed=0, craft=broken)
    assert not res.passed


def test_broken_trimmed_mean_craft_is_caught():
    def broken(q, target, m):
        return np.full(m, target)

    res = check_trimmed_mean_identity(trials=2_000, seed=0, craft=broken)
    assert not res.passed


def test_broken_solver_is_caught_by_grid():
    def midpoint(w, w_benign, bounds, lam):
        return 0.5 * (bounds.lower + bounds.upper)

    res = check_solver_against_grid(instances_per_regime=50, grid_points=2_001, seed=0, solver=midpoint)
    assert not res.passed
    assert res.first_failure["solved"] != res.first_failure["grid_best"]


def test_suite_result_flags_failures():
    assert SuiteResult("x", trials=10).passed
    assert not SuiteResult("x", trials=10, failures=1).passed
    assert "FAIL" in SuiteResult("x", trials=10, failures=1).describe()


def test_bounds_suite_runs_vectorized():
    res = check_bounds_tightness(instances=20, trials_per_instance=500, seed=3)
    assert res.passed and res.trials == 20


@pytest.mark.parametrize("name", ["median_bounds", "trimmed_mean_bounds"])
def test_bounds_suite_catches_a_narrowed_interval(monkeypatch, name):
    real = getattr(dflsim.verify, name)

    def narrowed(q, m):
        bounds = real(q, m)
        cut = 0.05 * (bounds.upper - bounds.lower)
        return CoordinateBounds(bounds.lower + cut, bounds.upper - cut)

    monkeypatch.setattr(dflsim.verify, name, narrowed)
    res = check_bounds_tightness(instances=20, trials_per_instance=500, seed=3)
    assert not res.passed
    assert res.first_failure.keys() == {"q", "m"}


def test_tightness_aggregates_match_a_fresh_sort_of_the_concatenated_matrix():
    gen = Rng(0).stream(14)  # the tightness suite's draws at seed 0
    for instance in range(20):
        n, m, q, _, _ = _draw_instance(gen)
        q = -np.sort(-q)
        crafted = gen.normal(0.0, 50.0, size=(10_000, m))
        if instance == 1:
            assert (n, m) == (12, 1)  # a shape np.concatenate lays out in Fortran order
        medians, tms = _tightness_aggregates(q, crafted, m)
        expected_medians, expected_tms = tightness_aggregates_of(q, crafted, m)
        assert medians.tobytes() == expected_medians.tobytes()
        assert tms.tobytes() == expected_tms.tobytes()


finite = st.floats(min_value=-1e100, max_value=1e100)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 2_001, 100_000]), finite, finite | st.integers(0, 4))
@example(100_000, 0.0, 0)            # lower == upper
@example(2_001, 0.0, 3)              # a span of denormals: linspace's zero-step branch
@example(100_000, -3.25, 4)          # a span a few ulps wide
def test_fill_grid_matches_linspace(points, lower, upper):
    if isinstance(upper, int):       # upper a few ulps above lower
        ulps, upper = upper, lower
        for _ in range(ulps):
            upper = float(np.nextafter(upper, np.inf))
    lower, upper = min(lower, upper), max(lower, upper)
    grid = np.full(points, np.nan)
    _fill_grid(grid, np.arange(points, dtype=float), lower, upper)
    assert np.array_equal(grid, np.linspace(lower, upper, points))


# The values below were recorded from the suites as they stand and are
# compared with ==: any change to a drawn instance, a grid point or the
# counters shows up here, not only a change in pass/fail.

def test_run_all_counts_and_counters_are_pinned():
    got = [(r.name, r.trials, r.failures, r.counters, r.first_failure) for r in run_all(trials=2_000, seed=0)]
    assert got == [
        ("fedavg crafting identity", 2000, 0, {}, None),
        ("median crafting identity", 2000, 0,
         {"even_total": 1000, "odd_total": 1000, "reflect_high": 458, "reflect_low": 470}, None),
        ("trimmed-mean crafting identity", 2000, 0, {"below_benign_mean": 1005, "above_benign_mean": 995}, None),
        ("solver vs. grid search", 800, 0, {}, None),
        ("reachable-interval tightness", 40, 0, {}, None),
    ]


def test_broken_solver_counterexample_is_pinned_at_default_grid():
    def midpoint(w, w_benign, bounds, lam):
        return 0.5 * (bounds.lower + bounds.upper)

    res = check_solver_against_grid(instances_per_regime=50, seed=0, solver=midpoint)
    assert res.failures == 200
    assert res.first_failure == {
        "w": 2.9197342329462894, "w_benign": -1.9556045509789641, "lam": 0.0,
        "bounds": [-5.7543451986907534, 11.703115319180672],
        "solved": 2.974385060244959, "grid_best": 2.919655374224572,
    }


def test_broken_fedavg_counterexample_is_pinned():
    res = check_fedavg_identity(trials=200, seed=0, craft=lambda q, target, m: np.full(m, target + 0.1))
    assert res.failures == 200
    assert res.first_failure == {
        "q": [1.0853765869354899, 2.1991851091192944, -4.553977416696085, -1.518472255964458,
              -3.5520478263056465, -0.38044194441038565, -4.344650686069459],
        "m": 2, "w": 1.5608238134394938, "lam": 1.0,
        "target": 2.1991851091192944, "aggregated": -0.7185175794614067,
    }


def test_broken_median_counterexample_is_pinned():
    res = check_median_identity(trials=2_000, seed=0, craft=lambda q, target, m: np.full(m, target))
    assert res.failures == 928
    assert res.first_failure == {
        "q": [11.50090881680991, 8.28417529350623, 6.04718007261879, 2.2880753764486514,
              1.3631955687255064, 0.698399893916499, 0.3703372669541138],
        "m": 3, "w": -1.0688787772291433, "lam": 1.0,
        "target": 1.0307977313210026, "aggregated": 1.1969966500232545,
    }


def test_broken_trimmed_mean_counterexample_is_pinned():
    res = check_trimmed_mean_identity(trials=2_000, seed=0, craft=lambda q, target, m: np.full(m, target))
    assert res.failures == 2000
    assert res.first_failure == {
        "q": [8.777780399504293, 8.168016789056615, 5.707859320572174, 3.1056528986294984,
              2.5776440468379764, 2.5681159867507777, 1.603263459337152, 1.5180649826925596,
              1.4761851232012682, 0.5856103736624254, 0.012368676844310575, -0.8524229491328351,
              -2.325862675184479, -2.4593743216018584, -2.7473743743211165, -3.4993667469898644,
              -5.232613986374068, -9.03250623700637, -9.272229254716954, -11.04237232228266],
        "m": 7, "w": -2.8739240179103205, "lam": 0.0,
        "target": -2.8739240179103205, "aggregated": -1.4740327117993326,
    }
