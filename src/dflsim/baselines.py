"""Baseline attacks used for comparison."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# default sampling interval of the directed-deviation attack
TRIM_ATTACK_DELTA_LO = 0.5
TRIM_ATTACK_DELTA_HI = 2.0

# default scale of the noise attack
GAUSSIAN_SIGMA = 200.0


def check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < np.inf:  # NaN fails too
        raise ValueError(f"sigma must be a finite value > 0, got {sigma}")


def check_deltas(delta_lo: float, delta_hi: float) -> None:
    if not 0.0 < delta_lo < delta_hi < np.inf:
        raise ValueError(f"need 0 < delta_lo < delta_hi < inf, got delta_lo {delta_lo}, delta_hi {delta_hi}")


def craft_gaussian(dim: int, m: int, gen: np.random.Generator, sigma: float = GAUSSIAN_SIGMA) -> np.ndarray:
    """(m, dim) noise shares drawn i.i.d. from N(0, sigma^2)."""
    check_sigma(sigma)
    return gen.normal(0.0, sigma, size=(m, dim))


def craft_directed_deviation(
    benign_shares: Sequence[np.ndarray],
    prev_aggregate: np.ndarray,
    m: int,
    gen: np.random.Generator,
    delta_lo: float = TRIM_ATTACK_DELTA_LO,
    delta_hi: float = TRIM_ATTACK_DELTA_HI,
) -> np.ndarray:
    """Shares placed strictly outside the benign range, against the benign trend.

    Per coordinate, if the benign mean moved up relative to the receiver's
    previous aggregate, the crafted values sample below the benign minimum;
    otherwise above the benign maximum.  Offsets scale with the magnitude of
    the extreme value, falling back to an absolute offset when it is zero.
    """
    check_deltas(delta_lo, delta_hi)
    benign = np.stack([np.asarray(s, dtype=np.float64) for s in benign_shares])
    prev_aggregate = np.asarray(prev_aggregate, dtype=np.float64)
    q_min = benign.min(axis=0)
    q_max = benign.max(axis=0)
    rising = benign.mean(axis=0) > prev_aggregate

    scale_min = np.where(q_min != 0.0, np.abs(q_min), 1.0)
    scale_max = np.where(q_max != 0.0, np.abs(q_max), 1.0)
    u = gen.uniform(delta_lo, delta_hi, size=(m, benign.shape[1]))
    below = q_min - u * scale_min
    above = q_max + u * scale_max
    return np.where(rising, below, above)

