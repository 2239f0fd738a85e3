import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dflsim.aggregation import (
    RULE_KINDS,
    AggregationRule,
    _admitted_by_clustering,
    _row_dots,
    agg_fedavg,
    agg_flame,
    agg_fltrust,
    agg_krum,
    agg_median,
    agg_trimmed_mean,
    aggregate,
)
from dflsim.attack import FLAME_ALPHA, FLAME_BETA, craft_shared_model

from oracles import (
    admitted_by_clustering,
    craft_flame_of,
    flame_of,
    fltrust_of,
    median_rows_of,
    trimmed_mean_rows_of,
)


def vecs(*rows):
    return [np.asarray(r, dtype=np.float64) for r in rows]


# ---------------------------------------------------------------------------
# fedavg
# ---------------------------------------------------------------------------

def test_fedavg_mean():
    out = agg_fedavg(vecs([1.0, 2.0], [3.0, 4.0]))
    assert out.tolist() == [2.0, 3.0]


def test_fedavg_single_model_is_identity():
    out = agg_fedavg(vecs([1.5, -2.0, 0.25]))
    assert out.tolist() == [1.5, -2.0, 0.25]


def test_fedavg_empty_raises():
    with pytest.raises(ValueError, match=r"^cannot aggregate zero models$"):
        agg_fedavg([])


def test_models_not_stacked_as_rows_raise():
    with pytest.raises(ValueError, match=r"^expected k models of one dimension d, got shape \(3,\)$"):
        agg_krum(np.zeros(3), assumed_attackers=0)


def test_mixed_dimensions_raise():
    models = [np.zeros(3), np.ones(4)]
    with pytest.raises(ValueError, match=r"^mixed model dimensions: setting an array element with a sequence\. .+\.$"):
        agg_fedavg(models)
    with pytest.raises(ValueError, match=r"^mixed model dimensions: setting an array element with a sequence\. .+\.$"):
        aggregate(AggregationRule("median"), models)


# ---------------------------------------------------------------------------
# median
# ---------------------------------------------------------------------------

def test_median_odd_count():
    assert agg_median(vecs([1.0], [2.0], [9.0])).tolist() == [2.0]


def test_median_even_count_averages_middle():
    out = agg_median(vecs([1.0, 10.0], [3.0, 30.0], [5.0, 50.0], [7.0, 70.0]))
    assert out.tolist() == [4.0, 40.0]


def test_median_with_crafted_values():
    out = agg_median(vecs([7.0], [6.0], [5.0], [4.0], [3.0], [2.0], [5.5], [8.0]))
    assert out.tolist() == [5.25]


# ---------------------------------------------------------------------------
# trimmed mean
# ---------------------------------------------------------------------------

def test_trimmed_mean_drops_extremes():
    out = agg_trimmed_mean(vecs([1.0], [2.0], [3.0], [100.0]), trim=1)
    assert out.tolist() == [2.5]


def test_trimmed_mean_zero_trim_is_fedavg():
    models = vecs([1.0, 5.0], [2.0, 6.0], [3.0, 7.0])
    assert np.array_equal(agg_trimmed_mean(models, 0), agg_fedavg(models))


def test_trimmed_mean_crafted_example():
    models = vecs([9.0], [8.0], [7.0], [6.0], [5.0], [4.0], [3.0], [2.0], [4.0])
    assert agg_trimmed_mean(models, 2).tolist() == [5.2]


def test_trimmed_mean_empty_after_trim():
    with pytest.raises(ValueError, match=r"^trimming 1 per side leaves nothing of 2 models$"):
        agg_trimmed_mean(vecs([1.0], [2.0]), trim=1)


# ---------------------------------------------------------------------------
# krum
# ---------------------------------------------------------------------------

def test_krum_picks_densest_model():
    out = agg_krum(vecs([0.0], [0.1], [10.0]), assumed_attackers=0)
    assert out.tolist() == [0.0]  # tie between the close pair goes to index 0


def test_krum_ignores_far_outlier():
    out = agg_krum(vecs([1.0], [1.0], [1.0], [50.0]), assumed_attackers=1)
    assert out.tolist() == [1.0]


def test_krum_too_few_models():
    with pytest.raises(ValueError, match=r"^krum needs at least assumed_attackers \+ 3 = 4 models, got 3$"):
        agg_krum(vecs([1.0], [2.0], [3.0]), assumed_attackers=1)


def test_krum_returns_an_input_row():
    gen = np.random.default_rng(3)
    models = [gen.normal(size=4) for _ in range(8)]
    out = agg_krum(models, assumed_attackers=2)
    assert any(np.array_equal(out, m) for m in models)


# ---------------------------------------------------------------------------
# fltrust
# ---------------------------------------------------------------------------

def test_fltrust_keeps_aligned_rescaled():
    out = agg_fltrust(vecs([2.0, 0.0], [0.0, 3.0]), reference=np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0])


def test_fltrust_all_negative_returns_reference():
    ref = np.array([1.0, 0.0])
    out = agg_fltrust(vecs([-2.0, 0.0]), reference=ref)
    assert np.array_equal(out, ref)


def test_fltrust_zero_reference_raises():
    with pytest.raises(ValueError, match=r"^reference model has zero norm$"):
        agg_fltrust(vecs([1.0, 0.0]), reference=np.zeros(2))


def test_fltrust_reference_of_another_dimension_raises():
    with pytest.raises(ValueError, match=r"^reference has dimension \(3,\), models have \(2,\)$"):
        agg_fltrust(vecs([1.0, 0.0]), reference=np.ones(3))


def test_fltrust_weights_by_cosine():
    # 45-degree model gets trust cos(45) and is rescaled to norm 1
    out = agg_fltrust(vecs([1.0, 0.0], [1.0, 1.0]), reference=np.array([1.0, 0.0]))
    c = np.cos(np.pi / 4)
    expected = (np.array([1.0, 0.0]) + c * np.array([c, c])) / (1.0 + c)
    assert np.allclose(out, expected)


@st.composite
def fltrust_inputs(draw):
    """(k, d) models and a nonzero (d,) reference, values rounded to 0.1,
    with some rows all zero and sometimes every row pointing away from the
    reference (all trusts zero)."""
    k = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    values = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=(k + 1) * d, max_size=(k + 1) * d)
    rows = np.round(np.array(draw(values)), 1).reshape(k + 1, d)
    mat, reference = rows[:k], rows[k]
    reference[0] = draw(st.sampled_from((0.5, -0.7, 1.0)))
    for row in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        mat[row] = 0.0
    if draw(st.booleans()):
        mat[:] = -np.abs(mat) * np.sign(reference)  # every cosine <= 0
    return mat, reference


@settings(max_examples=300, deadline=None)
@given(fltrust_inputs())
@example((np.array([[-2.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0])))
def test_fltrust_matches_per_row_trust_loop(instance):
    mat, reference = instance
    assert agg_fltrust(mat, reference).tobytes() == fltrust_of(mat, reference).tobytes()


# ---------------------------------------------------------------------------
# flame
# ---------------------------------------------------------------------------

def test_flame_majority_cluster_wins():
    # six models share a direction (pairwise cosine distance zero), two point away
    majority = [np.array([s, 0.0]) for s in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    minority = [np.array([-1.0, 0.0]), np.array([-1.0, 0.01])]
    out = agg_flame(majority + minority)
    norms = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    clip_to = np.median(norms)  # 1.75
    clipped = np.minimum(norms, clip_to)
    assert np.allclose(out, [clipped.mean(), 0.0])


def test_flame_norm_clipping_bounds_output():
    same_dir = [np.array([100.0, 0.0])] + [np.array([1.0, 0.0])] * 5
    out = agg_flame(same_dir)
    assert np.linalg.norm(out) <= 1.0 + 1e-12


def test_flame_identical_models_pass_through():
    models = [np.array([2.0, -1.0])] * 5
    assert np.allclose(agg_flame(models), [2.0, -1.0])


@st.composite
def clustering_inputs(draw):
    """(k, d) models with values rounded to 0.1, so that distances tie, some
    rows duplicated and some all zero (cosine 0 to every other row)."""
    k = draw(st.integers(1, 25))
    d = draw(st.integers(1, 6))
    values = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=k * d, max_size=k * d)
    mat = np.round(np.array(draw(values)), 1).reshape(k, d)
    rows = st.integers(0, k - 1)
    for target, source in draw(st.lists(st.tuples(rows, rows), max_size=k)):
        mat[target] = mat[source]
    for row in draw(st.lists(rows, max_size=3)):
        mat[row] = 0.0
    return mat


@settings(max_examples=300, deadline=None)
@given(clustering_inputs())
# under SkylakeX kernels, norms from BLAS dots instead of einsum self-dots
# differ in the last bit here, and the admitted set with them
@example(np.array([[0.4, -0.7], [0.4, 0.7], [-0.6, 0.3], [-1.0, -0.5]]))
def test_flame_clustering_matches_oracle(mat):
    assert _admitted_by_clustering(mat, np.sqrt(_row_dots(mat, mat))) == admitted_by_clustering(mat)


@settings(max_examples=300, deadline=None)
@given(clustering_inputs())
@example(np.zeros((5, 3)))                                                     # every norm 0
@example(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]))  # 5 admitted, median norm 0
@example(np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [-1.0, 0.3], [0.2, -1.0]]))  # 3 admitted, tied median norm
@example(np.array([[3.0, 4.0], [4.0, 3.0], [5.0, 0.0], [0.0, 5.0], [-2.0, -1.0]]))  # 4 admitted, all norms 5
@example(np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [3.0, 3.0], [-1.0, 0.0]]))  # 4 admitted, tied middle pair
def test_flame_clips_to_the_np_median_of_the_admitted_norms(mat):
    assert agg_flame(mat).tobytes() == flame_of(mat).tobytes()


def test_flame_peaks_below_four_copies_of_its_input():
    """The pairwise cosines come from one (k, k) Gram matrix: gathering both
    rows of each of the 4950 pairs here would take ~160 MB."""
    mat = np.random.default_rng(7).normal(size=(100, 2000))
    tracemalloc.start()
    try:
        agg_flame(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * mat.nbytes


# ---------------------------------------------------------------------------
# operand alignment
# ---------------------------------------------------------------------------

def shifted(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` in a buffer that starts 8 bytes into its allocation."""
    out = np.empty(a.size + 1)[1:].reshape(a.shape)
    out[...] = a
    return out


# rule -> its output for (k, d) models and two (2, d) receivers
COSINE_RULES = {
    "fltrust": lambda models, receivers: agg_fltrust(models, receivers[0]),
    "flame": lambda models, receivers: agg_flame(models),
    "craft_flame": lambda models, receivers: craft_shared_model(AggregationRule("flame"), receivers, models, 1, 0.5),
}


@pytest.mark.parametrize("rule", COSINE_RULES)
def test_cosine_rules_do_not_depend_on_operand_alignment(rule):
    """Every dot on the cosine and norm paths is an einsum sum, so operands
    8 bytes off give the same bytes; under OpenBLAS's Prescott kernels a BLAS
    dot rounds by its operands' alignment."""
    run, gen = COSINE_RULES[rule], np.random.default_rng(20)
    differ = 0
    for _ in range(200):
        k, d = int(gen.integers(3, 12)), int(gen.integers(2, 120))
        models, receivers = gen.normal(size=(k, d)), gen.normal(size=(2, d))
        differ += run(models, receivers).tobytes() != run(shifted(models), shifted(receivers)).tobytes()
    assert differ == 0, f"{differ} of 200 cases differ"


# rule -> (its output, its per-pair oracle's) for (k, d) models and two (2, d) receivers
COSINE_ORACLES = {
    "fltrust": (COSINE_RULES["fltrust"], lambda models, receivers: fltrust_of(models, receivers[0])),
    "flame": (COSINE_RULES["flame"], lambda models, receivers: flame_of(models)),
    "craft_flame": (COSINE_RULES["craft_flame"], lambda models, receivers: np.stack(
        [craft_flame_of(w, list(models), 1, FLAME_ALPHA, FLAME_BETA) for w in receivers])),
}


@pytest.mark.parametrize("d", [7850, 8192])
@pytest.mark.parametrize("rule", COSINE_ORACLES)
def test_cosine_rules_match_their_oracles_up_to_einsums_buffer_length(rule, d):
    """The oracles' 1-D dots equal the engine's row and Gram dots up to
    einsum's 8192-element buffer, which covers the paper's MNIST model
    (d = 7850); past it einsum sums a 1-D or single-row operand in chunks."""
    run, oracle = COSINE_ORACLES[rule]
    gen = np.random.default_rng(d)
    models, receivers = gen.normal(size=(7, d)), gen.normal(size=(2, d))
    assert run(models, receivers).tobytes() == oracle(models, receivers).tobytes()


# ---------------------------------------------------------------------------
# dispatcher + rule type
# ---------------------------------------------------------------------------

def test_rule_validation():
    with pytest.raises(ValueError):
        AggregationRule("average")
    with pytest.raises(ValueError):
        AggregationRule("trimmed_mean", trim=-1)


def test_rule_resolved_fills_selfish_count():
    rule = AggregationRule("trimmed_mean").resolved(num_selfish=4)
    assert rule.trim == 4
    krum = AggregationRule("krum").resolved(num_selfish=2)
    assert krum.assumed_attackers == 2


def test_dispatcher_routes_all_kinds():
    models = vecs([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0])
    ref = np.array([1.0, 1.0])
    assert np.allclose(aggregate(AggregationRule("fedavg"), models), [4.0, 5.0])
    assert np.allclose(aggregate(AggregationRule("median"), models), [4.0, 5.0])
    assert np.allclose(aggregate(AggregationRule("trimmed_mean", trim=1), models), [4.0, 5.0])
    # equally spaced models: every score ties, lowest index wins
    assert np.allclose(aggregate(AggregationRule("krum", assumed_attackers=1), models), [1.0, 2.0])
    out = aggregate(AggregationRule("fltrust"), models, receiver_pre_agg=ref)
    assert out.shape == (2,)
    out = aggregate(AggregationRule("flame"), models, receiver_pre_agg=ref)
    assert out.shape == (2,)


def test_dispatcher_requires_resolved_params():
    models = vecs([1.0], [2.0], [3.0])
    with pytest.raises(ValueError):
        aggregate(AggregationRule("trimmed_mean"), models)
    with pytest.raises(ValueError):
        aggregate(AggregationRule("fltrust"), models)


# ---------------------------------------------------------------------------
# many receivers: a (R, k, d) stack in one call
# ---------------------------------------------------------------------------

COORDINATE_WISE = ("fedavg", "median", "trimmed_mean")
SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 0.1, 0.2, 0.5)


def one_receiver_of(rule: AggregationRule, mat: np.ndarray, own) -> np.ndarray:
    """One receiver's aggregate of its (k, d) models, by the per-receiver oracle."""
    return {
        "fedavg": lambda: mat.mean(axis=0),
        "median": lambda: median_rows_of(mat),
        "trimmed_mean": lambda: trimmed_mean_rows_of(mat, rule.trim),
        "krum": lambda: agg_krum(mat, rule.assumed_attackers),
        "fltrust": lambda: fltrust_of(mat, own),
        "flame": lambda: agg_flame(mat),
    }[rule.kind]()


@st.composite
def receiver_stacks(draw):
    """A resolved rule, a (R, k, d) stack of R receivers' models and their
    (R, d) own models (fltrust only).  The coordinate-wise rules draw
    signed zeros, infinities and NaN among their values; the others draw
    finite values rounded to 0.1 and nonzero own models."""
    kind = draw(st.sampled_from(RULE_KINDS))
    trim = draw(st.integers(0, 4)) if kind == "trimmed_mean" else None
    attackers = draw(st.integers(0, 3)) if kind == "krum" else None
    rule = AggregationRule(kind, trim, attackers)
    receivers, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    fewest = 2 * trim + 1 if kind == "trimmed_mean" else attackers + 3 if kind == "krum" else 1
    k = draw(st.integers(fewest, 20))
    if kind in COORDINATE_WISE:
        values = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-1e3, 1e3))
    else:
        values = st.floats(-1.0, 1.0).map(lambda x: round(x, 1))
    size = receivers * (k + 1) * d
    rows = np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(receivers, k + 1, d)
    stack, owns = np.ascontiguousarray(rows[:, :k]), np.ascontiguousarray(rows[:, k])
    if kind != "fltrust":
        return rule, stack, None
    owns[:, 0] = draw(st.sampled_from((0.5, -0.7, 1.0)))
    return rule, stack, owns


def _ramp(receivers: int, k: int) -> np.ndarray:
    """A (receivers, k, 1) stack of distinct values whose sums round by order."""
    return (0.1 * np.arange(1, receivers * k + 1) + 1e-3 / 3).reshape(receivers, k, 1)


@pytest.mark.parametrize("kind", RULE_KINDS)
def test_receiver_stack_of_no_receivers_raises(kind):
    rule = AggregationRule(kind).resolved(num_selfish=0)
    with pytest.raises(ValueError, match=r"^cannot aggregate zero models$"):
        aggregate(rule, np.zeros((0, 5, 3)), receiver_pre_agg=np.zeros((0, 3)))


@settings(max_examples=300, deadline=None)
@given(receiver_stacks())
# d = 1 with >= 9 kept rows: numpy sums such a lane pairwise, not row by row
@example((AggregationRule("fedavg"), _ramp(3, 11), None))
@example((AggregationRule("trimmed_mean", trim=2), _ramp(2, 13), None))
@example((AggregationRule("median"), _ramp(4, 10), None))
def test_receiver_stack_matches_each_receiver_alone(instance):
    rule, stack, owns = instance
    with np.errstate(all="ignore"):  # inf - inf and the like
        out = aggregate(rule, stack, receiver_pre_agg=owns)
        assert out.shape == (stack.shape[0], stack.shape[2])
        for r, mat in enumerate(stack):
            expected = one_receiver_of(rule, mat, None if owns is None else owns[r])
            assert out[r].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

finite_row = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_row, min_size=3, max_size=9), st.randoms(use_true_random=False))
def test_permutation_invariance(rows, rnd):
    models = vecs(*rows)
    shuffled = list(models)
    rnd.shuffle(shuffled)
    assert np.allclose(agg_fedavg(models), agg_fedavg(shuffled), atol=1e-9)
    assert np.array_equal(agg_median(models), agg_median(shuffled))
    trim = (len(models) - 1) // 2
    assert np.array_equal(agg_trimmed_mean(models, trim), agg_trimmed_mean(shuffled, trim))


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_row, min_size=3, max_size=9))
def test_output_within_coordinate_range(rows):
    models = vecs(*rows)
    mat = np.stack(models)
    lo, hi = mat.min(axis=0), mat.max(axis=0)
    for out in (
        agg_fedavg(models),
        agg_median(models),
        agg_trimmed_mean(models, (len(models) - 1) // 2),
    ):
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)
