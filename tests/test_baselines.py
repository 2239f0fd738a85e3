import numpy as np
import pytest

from dflsim.baselines import (
    GAUSSIAN_SIGMA,
    TRIM_ATTACK_DELTA_HI,
    TRIM_ATTACK_DELTA_LO,
    craft_directed_deviation,
    craft_gaussian,
)
from dflsim.core import Rng

from oracles import directed_deviation_of, gaussian_shares_of


# ---------------------------------------------------------------------------
# gaussian noise attack
# ---------------------------------------------------------------------------

def test_gaussian_shape_and_scale():
    crafted = craft_gaussian(dim=50, m=4, gens=[Rng(0).stream(1), Rng(0).stream(2)])
    assert crafted.shape == (2, 4, 50)
    flat = crafted.ravel()
    # 400 values of sigma 200: sample mean within 4 sigma/sqrt(N), std in a generous band
    assert GAUSSIAN_SIGMA == 200.0
    assert abs(flat.mean()) < 4 * 200.0 / np.sqrt(flat.size)
    assert 150.0 < flat.std() < 250.0


def test_gaussian_is_deterministic_per_stream():
    a = craft_gaussian(5, 2, [Rng(3).stream(9, 1)])
    b = craft_gaussian(5, 2, [Rng(3).stream(9, 1)])
    assert np.array_equal(a, b)


def test_gaussian_equals_a_loop_over_receivers():
    gens, again = ([Rng(8).stream(4, r) for r in range(3)] for _ in range(2))
    crafted = craft_gaussian(7, 2, gens)
    expected = np.stack([gaussian_shares_of(7, 2, gen, GAUSSIAN_SIGMA) for gen in again])
    assert crafted.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# directed-deviation attack
# ---------------------------------------------------------------------------

def test_directed_deviation_opposes_trend():
    benign = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
    # coordinate 0 rising (mean 2 > 0), coordinate 1 falling (mean 6 < 10)
    prev = np.array([[0.0, 10.0]])
    crafted = craft_directed_deviation(benign, prev, m=4, gens=[Rng(1).stream(2)])
    assert crafted.shape == (1, 4, 2)
    assert np.all(crafted[0, :, 0] < 1.0)   # strictly below min benign
    assert np.all(crafted[0, :, 1] > 7.0)   # strictly above max benign


def test_directed_deviation_sampling_interval():
    benign = np.array([[2.0], [4.0]])
    prev = np.array([[0.0]])
    crafted = craft_directed_deviation(benign, prev, m=100, gens=[Rng(2).stream(3)])
    # rising: offsets of [0.5, 2] times |min| give the interval [min - 2*|min|, min - 0.5*|min|] = [-2, 1]
    assert (TRIM_ATTACK_DELTA_LO, TRIM_ATTACK_DELTA_HI) == (0.5, 2.0)
    assert np.all(crafted >= -2.0) and np.all(crafted <= 1.0)
    assert crafted.min() < -1.0  # actually spreads over the interval


def test_directed_deviation_zero_extreme_uses_absolute_offset():
    benign = np.array([[0.0], [1.0]])
    prev = np.array([[-5.0]])  # rising, and the minimum is exactly zero
    crafted = craft_directed_deviation(benign, prev, m=50, gens=[Rng(4).stream(5)])
    assert np.all(crafted >= -2.0) and np.all(crafted <= -0.5)


def test_directed_deviation_needs_one_generator_per_receiver():
    benign = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match=r"^need one generator per receiver, got 1 for 2 previous aggregates$"):
        craft_directed_deviation(benign, np.zeros((2, 1)), 1, [Rng(0).stream(1)])


def test_directed_deviation_equals_a_loop_over_receivers():
    # coordinate 0's benign minimum and coordinate 2's maximum are exactly zero
    benign = np.array([[0.0, 1.5, -4.0, 2.0], [3.0, -2.5, -1.0, 7.0], [1.0, 0.5, 0.0, -3.0]])
    # distinct previous aggregates: each coordinate rises for some receivers and falls for others
    previous = np.array([[-1.0, 9.0, -9.0, 0.0], [5.0, -9.0, 0.0, 9.0], [1.0, -0.1, -2.0, 2.0]])
    gens, again = ([Rng(6).stream(2, r) for r in range(3)] for _ in range(2))
    crafted = craft_directed_deviation(benign, previous, 4, gens)
    expected = np.stack([
        directed_deviation_of(list(benign), prev, 4, gen, TRIM_ATTACK_DELTA_LO, TRIM_ATTACK_DELTA_HI)
        for prev, gen in zip(previous, again)
    ])
    assert crafted.tobytes() == expected.tobytes()
    assert (crafted[:, :, 0] < 0.0).any() and (crafted[:, :, 0] > 3.0).any()  # both branches taken
