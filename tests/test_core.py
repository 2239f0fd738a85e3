import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim.core import STREAM_ATTACK, STREAM_DATA, STREAM_PARTITION, STREAM_TEST, STREAM_TRAIN, RoleConfig, Rng


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

def test_roles_accepts_default_experiment_setup():
    roles = RoleConfig(n=14, m=6)
    assert roles.total == 20


def test_roles_boundary_of_threat_model():
    RoleConfig(n=3, m=1)  # 4 == 3*1 + 1, allowed
    with pytest.raises(ValueError, match=r"^n \+ m = 3 violates n \+ m >= 3m \+ 1 for m = 1$"):
        RoleConfig(n=2, m=1)
    with pytest.raises(ValueError, match=r"^n \+ m = 19 violates n \+ m >= 3m \+ 1 for m = 7$"):
        RoleConfig(n=12, m=7)


def test_roles_rejects_empty_groups():
    with pytest.raises(ValueError, match=r"^need at least one non-selfish client$"):
        RoleConfig(n=0, m=1)
    with pytest.raises(ValueError, match=r"^need at least one selfish client$"):
        RoleConfig(n=5, m=0)


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

def test_rng_is_reproducible():
    a = Rng(42).stream(2, 7, 3).normal(size=8)
    b = Rng(42).stream(2, 7, 3).normal(size=8)
    assert np.array_equal(a, b)


def test_rng_streams_are_distinct():
    a = Rng(42).stream(2, 7, 3).normal(size=8)
    b = Rng(42).stream(2, 7, 4).normal(size=8)
    c = Rng(43).stream(2, 7, 3).normal(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_independent_of_other_draws():
    rng = Rng(7)
    first = rng.stream(1, 1).normal(size=4)
    rng.stream(9, 9).normal(size=100)  # unrelated draws must not disturb it
    again = rng.stream(1, 1).normal(size=4)
    assert np.array_equal(first, again)


def test_rng_rejects_negative_path():
    with pytest.raises(ValueError):
        Rng(1).stream(-1)


# the raw 64-bit Philox outputs of fresh streams: key (seed, 0), counter (0, client, round, tag)
@pytest.mark.parametrize("seed, path, raw", [
    (0, (STREAM_TRAIN, 1, 0), [5454858145300733856, 15677872626478766277]),
    (2**64 - 1, (10,), [16631299096278499205, 4414599123899508890]),
    (5, (STREAM_ATTACK, 300, 13), [516626732435411829, 8713089170509614960]),
])
def test_stream_first_draws_are_pinned(seed, path, raw):
    assert Rng(seed).stream(*path).bit_generator.random_raw(2).tolist() == raw


def test_stream_state_holds_the_seed_as_key_and_the_path_as_counter():
    state = Rng(5).stream(STREAM_ATTACK, 300, 13).bit_generator.state["state"]
    assert state["key"].tolist() == [5, 0]
    assert state["counter"].tolist() == [0, 13, 300, STREAM_ATTACK]
    assert Rng(5).stream(STREAM_TEST).bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, STREAM_TEST]


def test_every_path_of_a_run_and_of_verify_has_distinct_first_draws():
    rng = Rng(0)
    paths = [(STREAM_DATA,), (STREAM_PARTITION,), (STREAM_TEST,), *((tag,) for tag in range(10, 15))]
    paths += [(tag, t, c) for tag in (STREAM_TRAIN, STREAM_ATTACK) for t in range(301) for c in range(20)]
    firsts = {tuple(rng.stream(*path).bit_generator.random_raw(2).tolist()) for path in paths}
    assert len(firsts) == len(paths) == 12048


PATH_ERROR = r"^stream path must have at most 3 parts, each in \[0, 2\*\*64\), got "


@pytest.mark.parametrize("path, shown", [((1, 2, 3, 4), "(1, 2, 3, 4)"), ((2**64,), "(18446744073709551616,)")])
def test_stream_rejects_a_path_beyond_the_counter(path, shown):
    with pytest.raises(ValueError, match=PATH_ERROR + re.escape(shown) + "$"):
        Rng(1).stream(*path)


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
def test_rng_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        Rng(seed)


# ---------------------------------------------------------------------------
# re-keyed generators: Rng.reset must reproduce Rng.stream exactly
# ---------------------------------------------------------------------------

def philox_generators(count):
    return [np.random.Generator(np.random.Philox(0)) for _ in range(count)]


def full_state(gen):
    state = gen.bit_generator.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()}, "buffer": state["buffer"].tolist()}


def first_draws(gen):
    # an odd count of 32-bit draws leaves half a 64-bit word for the next draws
    return gen.integers(0, 2**32, size=3, dtype=np.uint32).tolist(), gen.random(3).tolist(), gen.normal(size=3).tolist()


def assert_fresh_streams(rng, gens, *prefix):
    for i, gen in enumerate(gens):
        fresh = rng.stream(*prefix, i)
        assert full_state(gen) == full_state(fresh), (prefix, i)
        assert first_draws(gen) == first_draws(fresh), (prefix, i)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("round_", [0, 1, 2**32 - 1, 2**32, 2**40])
def test_reset_generators_equal_fresh_streams(seed, round_):
    rng = Rng(seed)
    gens = philox_generators(100)
    assert rng.reset(gens, STREAM_TRAIN, round_) is gens
    assert_fresh_streams(rng, gens, STREAM_TRAIN, round_)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    prefix=st.lists(st.integers(0, 2**64 - 1), max_size=2),
    count=st.integers(1, 30),
)
def test_reset_matches_stream_for_any_seed_and_path(seed, prefix, count):
    rng = Rng(seed)
    assert_fresh_streams(rng, rng.reset(philox_generators(count), *prefix), *prefix)


def test_reset_after_a_partial_draw_equals_a_fresh_stream():
    rng = Rng(11)
    gens = rng.reset(philox_generators(5), STREAM_TRAIN, 3)
    for gen in gens:
        gen.integers(0, 2**32, size=3, dtype=np.uint32)
        state = gen.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] not in (0, 4)
    rng.reset(gens, STREAM_ATTACK, 4)
    assert_fresh_streams(rng, gens, STREAM_ATTACK, 4)


def test_reset_rejects_negative_path():
    with pytest.raises(ValueError):
        Rng(1).reset(philox_generators(2), 2, -1)


@pytest.mark.parametrize("prefix, shown", [((1, 2, 3), "(1, 2, 3, 0)"), ((2, 2**64), "(2, 18446744073709551616, 0)")])
def test_reset_rejects_a_path_beyond_the_counter(prefix, shown):
    for count in (2, 0):  # no generators too: the counter is built before any is re-keyed
        with pytest.raises(ValueError, match=PATH_ERROR + re.escape(shown) + "$"):
            Rng(1).reset(philox_generators(count), *prefix)
