"""Baseline attacks used for comparison."""

from __future__ import annotations

import numpy as np

# the directed-deviation attack's offsets, in multiples of the benign extreme
TRIM_ATTACK_DELTA_LO = 0.5
TRIM_ATTACK_DELTA_HI = 2.0

# scale of the noise attack
GAUSSIAN_SIGMA = 200.0


def craft_gaussian(dim: int, m: int, gens) -> np.ndarray:
    """(R, m, dim) noise shares for R receivers, receiver r's drawn i.i.d.
    from N(0, GAUSSIAN_SIGMA^2) with ``gens[r]``."""
    return np.stack([gen.normal(0.0, GAUSSIAN_SIGMA, size=(m, dim)) for gen in gens])


def craft_directed_deviation(benign: np.ndarray, previous: np.ndarray, m: int, gens) -> np.ndarray:
    """(R, m, d) shares placed strictly outside the range of the (n, d)
    ``benign`` shares, against the benign trend seen by each of R receivers.

    Per coordinate, if the benign mean moved up relative to receiver r's
    previous aggregate ``previous[r]``, its crafted values sample below the
    benign minimum; otherwise above the benign maximum.  Offsets are drawn
    from [TRIM_ATTACK_DELTA_LO, TRIM_ATTACK_DELTA_HI] times the magnitude of
    the extreme value, or times 1 when it is zero; receiver r draws its
    scales from ``gens[r]``.
    """
    if len(gens) != len(previous):
        raise ValueError(f"need one generator per receiver, got {len(gens)} for {len(previous)} previous aggregates")
    q_min, q_max = benign.min(axis=0), benign.max(axis=0)
    rising = benign.mean(axis=0) > previous

    scale_min = np.where(q_min != 0.0, np.abs(q_min), 1.0)
    scale_max = np.where(q_max != 0.0, np.abs(q_max), 1.0)
    u = np.stack([gen.uniform(TRIM_ATTACK_DELTA_LO, TRIM_ATTACK_DELTA_HI, size=(m, benign.shape[1])) for gen in gens])
    return np.where(rising[:, None], q_min - u * scale_min, q_max + u * scale_max)
