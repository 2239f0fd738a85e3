"""Baseline attacks used for comparison."""

from __future__ import annotations

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


def craft_gaussian(dim: int, m: int, gens, sigma: float = GAUSSIAN_SIGMA) -> np.ndarray:
    """(R, m, dim) noise shares for R receivers, receiver r's drawn i.i.d.
    from N(0, sigma^2) with ``gens[r]``."""
    check_sigma(sigma)
    return np.stack([gen.normal(0.0, sigma, size=(m, dim)) for gen in gens])


def craft_directed_deviation(
    benign: np.ndarray,
    previous: np.ndarray,
    m: int,
    gens,
    delta_lo: float = TRIM_ATTACK_DELTA_LO,
    delta_hi: float = TRIM_ATTACK_DELTA_HI,
) -> np.ndarray:
    """(R, m, d) shares placed strictly outside the range of the (n, d)
    ``benign`` shares, against the benign trend seen by each of R receivers.

    Per coordinate, if the benign mean moved up relative to receiver r's
    previous aggregate ``previous[r]``, its crafted values sample below the
    benign minimum; otherwise above the benign maximum.  Offsets scale with
    the magnitude of the extreme value, falling back to an absolute offset
    when it is zero; receiver r draws its scales from ``gens[r]``.
    """
    check_deltas(delta_lo, delta_hi)
    if len(gens) != len(previous):
        raise ValueError(f"need one generator per receiver, got {len(gens)} for {len(previous)} previous aggregates")
    q_min, q_max = benign.min(axis=0), benign.max(axis=0)
    rising = benign.mean(axis=0) > previous

    scale_min = np.where(q_min != 0.0, np.abs(q_min), 1.0)
    scale_max = np.where(q_max != 0.0, np.abs(q_max), 1.0)
    u = np.stack([gen.uniform(delta_lo, delta_hi, size=(m, benign.shape[1])) for gen in gens])
    return np.where(rising[:, None], q_min - u * scale_min, q_max + u * scale_max)
