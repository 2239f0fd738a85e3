import numpy as np
import pytest

from dflsim.core import (
    EmptyGroup,
    RoleConfig,
    Rng,
    ThreatModelViolation,
    check_same_dimension,
    DimensionMismatch,
)


# ---------------------------------------------------------------------------
# model dimensions
# ---------------------------------------------------------------------------

def test_check_same_dimension():
    assert check_same_dimension([np.zeros(3), np.ones(3)]) == 3
    with pytest.raises(DimensionMismatch):
        check_same_dimension([np.zeros(3), np.zeros(4)])


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

def test_roles_accepts_default_experiment_setup():
    roles = RoleConfig(n=14, m=6)
    assert roles.total == 20
    assert list(roles.selfish_ids) == list(range(14, 20))
    assert not roles.is_selfish(0)
    assert roles.is_selfish(14)


def test_roles_boundary_of_threat_model():
    RoleConfig(n=3, m=1)  # 4 == 3*1 + 1, allowed
    with pytest.raises(ThreatModelViolation):
        RoleConfig(n=2, m=1)
    with pytest.raises(ThreatModelViolation):
        RoleConfig(n=12, m=7)


def test_roles_rejects_empty_groups():
    with pytest.raises(EmptyGroup):
        RoleConfig(n=0, m=1)
    with pytest.raises(EmptyGroup):
        RoleConfig(n=5, m=0)


def test_roles_id_range_check():
    roles = RoleConfig(n=3, m=1)
    with pytest.raises(ValueError):
        roles.is_selfish(4)


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
