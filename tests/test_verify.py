"""The self-check suites must pass on the real crafting code and fail with a
recorded counterexample when handed a deliberately broken variant."""

import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dflsim.attack
import dflsim.verify
from dflsim.core import Rng
from dflsim.verify import (
    GRID_BLOCK,
    LAMBDA_CHOICES,
    CoordinateBounds,
    SuiteResult,
    _draw_instance,
    _fill_grid,
    _grid_best,
    _tightness_aggregates,
    check_bounds_tightness,
    check_fedavg_identity,
    check_median_identity,
    check_solver_against_grid,
    check_trimmed_mean_identity,
    craft_fedavg,
    craft_median,
    craft_trimmed_mean,
    run_all,
    solve_optimal_coordinate,
)

from oracles import grid_argmin, tightness_aggregates_of


def test_all_suites_pass_at_reduced_scale():
    results = run_all(trials=500, seed=1)
    assert len(results) == 5
    assert len({r.name for r in results}) == 5
    for result in results:
        assert result.passed, result.describe()
        assert result.first_failure is None


@pytest.mark.parametrize("trials", [0, -3])
def test_run_all_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match=rf"^trials must be >= 1, got {trials}$"):
        run_all(trials=trials)


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


def test_broken_solver_is_caught_by_grid(monkeypatch):
    def midpoint(w, w_benign, bounds, lam):
        return 0.5 * (bounds.lower + bounds.upper)

    results = []
    for block in (7, GRID_BLOCK):  # the grid searched 7 points at a time, then in one block
        monkeypatch.setattr(dflsim.verify, "GRID_BLOCK", block)
        res = check_solver_against_grid(instances_per_regime=50, grid_points=2_001, seed=0, solver=midpoint)
        assert not res.passed
        assert res.first_failure["solved"] != res.first_failure["grid_best"]
        results.append((res.failures, res.first_failure))
    assert results[0] == results[1]


def test_suites_make_the_calls_perfbench_times(monkeypatch):
    """``perfbench`` times each trial of ``dflsim verify`` from one call to
    the next of a function the suite makes once a trial (its
    ``VERIFY_SUITES``), and traces the scalar functions the suites look up
    in ``dflsim.verify`` at call time (its ``VERIFY_GLOBALS``)."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    looked_up = ("solve_optimal_coordinate", "fedavg_bounds", "median_bounds", "trimmed_mean_bounds")
    for name in looked_up:
        monkeypatch.setattr(dflsim.verify, name, counted(name, getattr(dflsim.verify, name)))
    for check, craft in ((check_fedavg_identity, craft_fedavg), (check_median_identity, craft_median),
                         (check_trimmed_mean_identity, craft_trimmed_mean)):
        assert check(30, seed=2, craft=counted("craft", craft)).trials == calls.pop("craft") == 30
    res = check_solver_against_grid(5, grid_points=101, seed=2, solver=counted("solver", solve_optimal_coordinate))
    assert res.trials == calls.pop("solver") == 4 * 5
    before = calls["median_bounds"]
    assert check_bounds_tightness(7, trials_per_instance=10, seed=2).trials == calls["median_bounds"] - before == 7
    assert all(calls[name] >= 1 for name in looked_up), calls


REFERENCE = ("CoordinateBounds", "solve_optimal_coordinate", "_check_descending", "fedavg_bounds", "median_bounds",
             "trimmed_mean_bounds", "craft_fedavg", "craft_median", "craft_trimmed_mean")


def test_the_reference_crafting_lives_only_in_verify():
    """The run module holds no copy of the per-coordinate reference, and each
    exported name is the ``dflsim.verify`` object that perfbench patches."""
    assert [name for name in REFERENCE if hasattr(dflsim.attack, name)] == []
    for name in REFERENCE:
        if not name.startswith("_"):
            assert getattr(dflsim, name) is getattr(dflsim.verify, name), name


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
    results = []
    for block in (7, 500):  # blocks of 7 placements, then all 500 in one
        monkeypatch.setattr(dflsim.verify, "TIGHTNESS_BLOCK", block)
        res = check_bounds_tightness(instances=20, trials_per_instance=500, seed=3)
        assert not res.passed
        assert res.first_failure.keys() == {"q", "m"}
        results.append((res.failures, res.first_failure))
    assert results[0] == results[1]


def test_tightness_aggregates_match_a_fresh_sort_of_the_concatenated_matrix():
    gen = Rng(0).stream(14)  # the tightness suite's draws at seed 0
    shapes = set()
    for _ in range(20):
        n, m, q, _, _ = _draw_instance(gen)
        q = -np.sort(-q)
        crafted = gen.normal(0.0, 50.0, size=(10_000, m))
        shapes.add((n, m))
        medians, tms = _tightness_aggregates(q, crafted, m)
        expected_medians, expected_tms = tightness_aggregates_of(q, crafted, m)
        assert medians.tobytes() == expected_medians.tobytes()
        assert tms.tobytes() == expected_tms.tobytes()
        # and the same, row for row, from blocks of 7 placements
        blocks = [_tightness_aggregates(q, crafted[first:first + 7], m) for first in range(0, 10_000, 7)]
        for got, expected in zip(zip(*blocks), (medians, tms)):
            assert np.concatenate(got).tobytes() == expected.tobytes()
    assert (12, 1) in shapes  # a shape np.concatenate lays out in Fortran order


finite = st.floats(min_value=-1e100, max_value=1e100)


@settings(max_examples=200, deadline=None)
# (points, block): one block below the block size, and blocks that do not divide the points
@given(st.sampled_from([(2, GRID_BLOCK), (3, 7), (2_001, 7), (2_001, GRID_BLOCK), (100_000, GRID_BLOCK),
                        (100_000, 4_099)]), finite, finite | st.integers(0, 4))
@example((100_000, GRID_BLOCK), 0.0, 0)   # lower == upper
@example((2_001, 7), 0.0, 3)              # a span of denormals: linspace's zero-step branch
@example((100_000, 4_099), -3.25, 4)      # a span a few ulps wide
def test_fill_grid_matches_linspace(shape, lower, upper):
    points, block = shape
    if isinstance(upper, int):            # upper a few ulps above lower
        ulps, upper = upper, lower
        for _ in range(ulps):
            upper = float(np.nextafter(upper, np.inf))
    lower, upper = min(lower, upper), max(lower, upper)
    ramp = np.arange(points, dtype=float)
    blocks = []
    for first in range(0, points, block):
        blocks.append(np.full(min(block, points - first), np.nan))
        _fill_grid(blocks[-1], ramp, lower, upper, first)
    assert np.concatenate(blocks).tobytes() == np.linspace(lower, upper, points).tobytes()


def grid_instances():
    """(w, w_benign, lam, lower, upper, points): the solver suite's own draws,
    then coarse values on which grid points tie, then objectives with NaNs."""
    gen = Rng(0).stream(13)
    for lam in LAMBDA_CHOICES:
        for _ in range(50):
            w, w_benign = float(gen.normal(0.0, 5.0)), float(gen.normal(0.0, 5.0))
            lower, upper = np.sort(gen.normal(0.0, 5.0, size=2))
            yield w, w_benign, lam, float(lower), float(upper), 1_000
    coarse = np.random.default_rng(5)
    for lam in LAMBDA_CHOICES:
        for _ in range(100):
            w, w_benign = coarse.integers(-8, 9, size=2) / 4.0
            lower, upper = np.sort(coarse.integers(-4, 5, size=2)).astype(float)
            yield w, w_benign, lam, lower, upper, int(coarse.choice([2, 9, 17, 100]))
    # (x - 0)**2 - (x - 0)**2 is 0 up to about 1.3e154 and inf - inf = NaN above
    yield 0.0, 0.0, 1.0, 0.0, 1e156, 1_000                   # the first NaN, at point 14 (block 2)
    yield 0.0, 0.0, 1.0, -1e156, 1e156, 1_000                # NaN from the first point on
    yield float("inf"), float("inf"), 0.5, -1.0, 1.0, 100    # NaN everywhere


def test_grid_search_in_blocks_of_7_picks_the_whole_grid_argmin():
    ties = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for w, w_benign, lam, lower, upper, points in grid_instances():
            got = _grid_best(w, w_benign, lam, lower, upper, np.arange(points, dtype=float), np.empty((3, 7)))
            expected = grid_argmin(w, w_benign, lower, upper, lam, points)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (w, w_benign, lam, lower, upper, points)
            grid = np.linspace(lower, upper, points)
            objective = (grid - w) ** 2 - lam * (grid - w_benign) ** 2
            ties += np.count_nonzero(objective == objective.min()) > 1
    assert ties > 50  # the first of several equal minima is the one picked


# The values below were recorded from the suites as they stand and are
# compared with ==: any change to a drawn instance, a grid point or the
# counters shows up here, not only a change in pass/fail.

def test_run_all_counts_and_counters_are_pinned():
    got = [(r.name, r.trials, r.failures, r.counters, r.first_failure) for r in run_all(trials=2_000, seed=0)]
    assert got == [
        ("fedavg crafting identity", 2000, 0, {}, None),
        ("median crafting identity", 2000, 0,
         {"even_total": 1000, "odd_total": 1000, "reflect_high": 467, "reflect_low": 474}, None),
        ("trimmed-mean crafting identity", 2000, 0, {"below_benign_mean": 982, "above_benign_mean": 1018}, None),
        ("solver vs. grid search", 800, 0, {}, None),
        ("reachable-interval tightness", 40, 0, {}, None),
    ]


def test_broken_solver_counterexample_is_pinned_at_default_grid():
    def midpoint(w, w_benign, bounds, lam):
        return 0.5 * (bounds.lower + bounds.upper)

    res = check_solver_against_grid(instances_per_regime=50, seed=0, solver=midpoint)
    assert res.failures == 200
    assert res.first_failure == {
        "w": 10.584081189248238, "w_benign": -8.184929379032562, "lam": 0.0,
        "bounds": [-2.538218845801157, -1.1626882904451756],
        "solved": -1.8504535681231664, "grid_best": -1.1626882904451756,
    }


def test_broken_fedavg_counterexample_is_pinned():
    res = check_fedavg_identity(trials=200, seed=0, craft=lambda q, target, m: np.full(m, target + 0.1))
    assert res.failures == 200
    assert res.first_failure == {
        "q": [2.8870508049736103, 2.798920077367689, -7.946186067597552, 1.7605909301030311,
              6.970793395408942, -0.9386998656695342, 7.254879041435122, 2.4033653121640706,
              5.710236459288972, -1.9394047569683315, 2.370240408195059, 2.6462998075172033],
        "m": 2, "w": -2.591896320880675, "lam": 1.0,
        "target": -7.946186067597552, "aggregated": 0.5918366722159407,
    }


def test_broken_median_counterexample_is_pinned():
    res = check_median_identity(trials=2_000, seed=0, craft=lambda q, target, m: np.full(m, target))
    assert res.failures == 941
    assert res.first_failure == {
        "q": [4.3, 4.0, 3.8, 3.6, 3.1, 2.6, 2.2, 2.1, 1.9, 1.1, 1.1, 1.0, -1.8, -2.6, -3.4, -3.8, -3.9, -4.0, -4.8],
        "m": 3, "w": -4.8086241957009515, "lam": 0.5,
        "target": 1.05, "aggregated": 1.0750000000000002,
    }


def test_broken_trimmed_mean_counterexample_is_pinned():
    res = check_trimmed_mean_identity(trials=2_000, seed=0, craft=lambda q, target, m: np.full(m, target))
    assert res.failures == 2000
    assert res.first_failure == {
        "q": [7.6802921848857935, 6.758705762605867, 4.399183355352337, 4.012524249450014,
              3.4475235335751324, 2.7281455104904233, -0.052442008770674196, -1.4542682368112447,
              -1.5618948694957744, -1.590052895598367, -2.2650514879595236, -2.7216606672330186,
              -5.5824508703506375],
        "m": 3, "w": -2.9204400761269103, "lam": 0.0,
        "target": -0.5039627742703671, "aggregated": 0.4017646960028408,
    }
