"""Crafting of shared models by colluding selfish clients.

The selfish clients send their true models to each other but craft what they
send to every non-selfish receiver.  Per receiver the crafted shares steer
the receiver's aggregate, coordinate by coordinate, to the constrained
optimum of

    L(x) = (x - w)^2 - lam * (x - w_benign)^2

where ``w`` is the receiver's own pre-aggregation coordinate, ``w_benign``
the benign-only aggregate, and the feasible interval is exactly the set of
aggregates the selfish coalition can reach.  Closed-form crafting routines
make the receiver's aggregation rule hit that optimum exactly for FedAvg,
coordinate-wise median and trimmed mean.  This module holds what a run
executes: that crafting for all receivers and coordinates at once, and the
attack start.  ``dflsim.verify`` holds the per-coordinate reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .aggregation import AggregationRule, _cosines, _row_dots, agg_fedavg

# treat lam this close to 1 as exactly 1 (the objective degenerates to linear)
LAMBDA_ONE_TOLERANCE = 1e-9

# constants of the flame-tailored crafting
FLAME_ALPHA = 5.0
FLAME_BETA = 0.01
FLAME_DENOM_EPS = 1e-12


# ---------------------------------------------------------------------------
# checks and the median's reachable interval, shared with dflsim.verify
# ---------------------------------------------------------------------------

def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def check_offset(b: float) -> None:
    if not 0.0 < b < np.inf:  # NaN fails too
        raise ValueError(f"b must be a finite value > 0, got {b}")


def _median_interval(q: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) ends of the interval the median of ``q`` plus ``m``
    crafted values can reach, per column of ``q``, of shape (n,) or (n, d)
    and sorted descending along axis 0.  Pushing all crafted values above
    the benign maximum (or below the minimum) shifts the median rank by m
    in either direction, which gives the endpoints."""
    n = q.shape[0]
    if n < m + 1:
        raise ValueError(f"median bounds need n >= m + 1, got n={n}, m={m}")
    return 0.5 * (q[(n + m - 1) // 2] + q[(n + m) // 2]), 0.5 * (q[(n - m - 1) // 2] + q[(n - m) // 2])


# ---------------------------------------------------------------------------
# attack start
# ---------------------------------------------------------------------------

def check_plateau(epsilon: float, interval: int) -> None:
    if not (0.0 < epsilon < 1.0):  # NaN fails too
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")


def attack_start_round(losses: Sequence[float], epsilon: float, interval: int) -> int | None:
    """The round at which crafting begins, from the coalition's mean training
    loss of rounds 1, 2, ...: the first round t > ``interval`` at which the
    running minimum of the losses fell over the last ``interval`` rounds by a
    gap that is positive but below ``epsilon`` times the largest such gap up
    to t, or None.  Losses after that round never change it."""
    check_plateau(epsilon, interval)
    losses = np.asarray(losses, dtype=np.float64)
    finite = np.isfinite(losses)
    if not finite.all():
        raise ValueError(f"round {finite.argmin() + 1}: loss {losses[finite.argmin()]} is not finite")
    best = np.minimum.accumulate(losses)
    gaps = best[:-interval] - best[interval:]  # gaps[j] closes round j + interval + 1
    hits = np.flatnonzero((gaps > 0.0) & (gaps < epsilon * np.maximum.accumulate(gaps)))
    return int(hits[0]) + interval + 1 if hits.size else None


# ---------------------------------------------------------------------------
# full-vector crafting
# ---------------------------------------------------------------------------

def _solve_optimal(w: np.ndarray, w_benign: np.ndarray, lower: np.ndarray, upper: np.ndarray, lam: float) -> np.ndarray:
    """``dflsim.verify.solve_optimal_coordinate`` over arrays: receiver
    coordinates ``w`` (R, d) against per-coordinate aggregates and bounds (d,)."""
    if abs(lam - 1.0) <= LAMBDA_ONE_TOLERANCE:
        return np.where(w > w_benign, upper, lower)
    if lam < 1.0:
        p = (w - lam * w_benign) / (1.0 - lam)
        above_lower = np.where(lower > p, lower, p)
        return np.where(upper < above_lower, upper, above_lower)
    p = w_benign + (w_benign - w) / (lam - 1.0)  # as in the reference solver
    return np.where(np.abs(p - upper) > np.abs(p - lower), upper, lower)


def _targets(receivers, benign, benign_agg, lower, upper, lam) -> np.ndarray:
    """Optimal targets (R, d) of the receivers' coordinates.  Finite benign
    shares and bounds give lower <= upper, and the solver returns a clamp or
    an endpoint, so only a NaN receiver coordinate (at lam < 1) can put a
    target outside them: each fault raises at its first coordinate."""
    finite = np.isfinite(benign).all(axis=0) & np.isfinite(lower) & np.isfinite(upper)
    if not finite.all():
        raise ValueError(f"coordinate {finite.argmin()}: benign shares or reachable bounds not finite")
    target = _solve_optimal(receivers, benign_agg, lower, upper, lam)
    if np.isnan(target).any():
        r, k = np.argwhere(np.isnan(target))[0]
        raise ValueError(f"receiver {r}, coordinate {k}: target outside the reachable bounds")
    return target


def _craft_fedavg_all(receivers, benign, m, lam, b) -> np.ndarray:
    """``dflsim.verify.craft_fedavg`` for every receiver and coordinate at once."""
    n = benign.shape[0]
    columns = np.ascontiguousarray(benign.T)
    lower, upper = columns.min(axis=1), columns.max(axis=1)
    target = _targets(receivers, benign, agg_fedavg(benign), lower, upper, lam)
    crafted = np.repeat(target[:, None, :], m, axis=1)
    crafted[:, 0] = (n + 1) * target - columns.sum(axis=1)
    return crafted


def _craft_median_all(receivers, benign, m, lam, b) -> np.ndarray:
    """``median_bounds`` and ``craft_median`` of ``dflsim.verify`` for every
    receiver and coordinate at once."""
    n = benign.shape[0]
    q = -np.sort(-benign, axis=0)
    lower, upper = _median_interval(q, m)
    # agg_median(benign) bit for bit: the ascending sort's middle rows are q's, a + b is b + a, and
    # numpy's sums start from +0.0, so the signs of zeros, which the two sorts may order apart, drop out
    target = _targets(receivers, q, q[(n - 1) // 2: n // 2 + 1].mean(axis=0), lower, upper, lam)
    upper_pivot = q[(n - m) // 2]
    lower_pivot = q[(n + m - 1) // 2]
    above = target > upper_pivot
    below = target < lower_pivot
    crafted = np.empty((receivers.shape[0], m, benign.shape[1]))
    crafted[:, 0] = np.where(above, 2.0 * target - upper_pivot, np.where(below, 2.0 * target - lower_pivot, target))
    crafted[:, 1:] = np.where(above, q[0] + b, np.where(below, q[-1] - b, target))[:, None, :]
    return crafted


def _craft_trimmed_mean_all(receivers, benign, m, lam, b) -> np.ndarray:
    """``trimmed_mean_bounds`` and ``craft_trimmed_mean`` of
    ``dflsim.verify`` for every receiver and coordinate at once.

    The reference's loop over splits j = 0..m, run over arrays: split j parks
    m - j crafted values outside the benign range and gives the other j a
    common filler value.  Each split's kept sums and thresholds are computed
    per coordinate and side, every cell still open takes the first feasible
    split, split m is taken without a threshold, and the loop stops once no
    cell is open (after split 0 at lambda 1, where every target is a bound).
    """
    n = benign.shape[0]
    if n < 2 * m + 1:
        raise ValueError(f"crafting needs n >= 2m + 1, got n={n}, m={m}")
    q = -np.sort(-benign, axis=0)
    rows = np.ascontiguousarray(q.T)  # each column sum a contiguous row-slice sum, in a 1-D sum's order
    lower, upper = rows[:, m:].sum(axis=1) / (n - m), rows[:, : n - m].sum(axis=1) / (n - m)  # trimmed_mean_bounds
    # agg_trimmed_mean(benign, m) bit for bit: the ascending sort's kept rows are q's, reversed into the
    # same row-by-row sum, which starts from +0.0 like the median's
    target = _targets(receivers, q, np.ascontiguousarray(q[m:n - m][::-1]).mean(axis=0), lower, upper, lam)
    low = target <= rows[:, m:n - m].sum(axis=1) / (n - 2 * m)
    signed = np.where(low, target, -target)  # above it, target >= threshold is -target <= -threshold
    split, open_, low_sums, high_sums = np.zeros(target.shape, dtype=np.int64), np.ones(target.shape, bool), [], []
    for j in range(m + 1):
        # below the benign trimmed mean split j keeps q[m:n-j], pivots on q[m-1]; above it q[j:n-m] and q[n-m]
        low_sums.append(rows[:, m:n - j].sum(axis=1))
        high_sums.append(rows[:, j:n - m].sum(axis=1))
        take = open_ if j == m else open_ & (
            signed <= np.where(low, (j * q[m - 1] + low_sums[j]) / (n - m), -(j * q[n - m] + high_sums[j]) / (n - m))
        )
        np.copyto(split, j, where=take)
        open_ &= ~take
        if not open_.any():
            break
    column = np.arange(target.shape[1])
    sums = np.where(low, np.array(low_sums)[split, column], np.array(high_sums)[split, column])
    filler = ((n - m) * target - sums) / np.maximum(split, 1)
    park = np.where(low, q[-1] - b, q[0] + b)
    parked = np.arange(m)[None, :, None] < (m - split)[:, None, :]
    return np.where(parked, park[:, None, :], filler[:, None, :])


def _craft_flame_all(receivers, benign, m, lam, b) -> np.ndarray:
    """Crafted shares against the clustering defense, all m identical, for
    every receiver at once.  The (n - m) // 2 benign shares closest in
    cosine distance to a receiver's own model (ties by sender index) anchor
    its shares, so they stay inside the majority cluster while biasing the
    clipped average: one (R, n) array of distances, a stable sort per
    receiver and one sum over each receiver's gathered shares."""
    n = benign.shape[0]
    if n <= m:
        raise ValueError(f"need more benign shares than selfish clients, got n={n}, m={m}")
    take = (n - m) // 2
    denom = take + FLAME_ALPHA - FLAME_BETA * n
    if abs(denom) < FLAME_DENOM_EPS:
        raise ValueError(f"crafting denominator {denom} too close to zero")
    norms = np.sqrt(_row_dots(receivers, receivers))[:, None], np.sqrt(_row_dots(benign, benign))
    dists = 1.0 - _cosines(np.einsum("ik,jk->ij", receivers, benign), *norms)
    selected = np.argsort(dists, axis=1, kind="stable")[:, :take]
    crafted = (benign[selected].sum(axis=1) + FLAME_ALPHA * receivers - FLAME_BETA * benign.sum(axis=0)) / denom
    return np.repeat(crafted[:, None, :], m, axis=1)


def craft_shared_model(
    rule: AggregationRule,
    receivers: np.ndarray,
    benign_shares: Sequence[np.ndarray],
    m: int,
    lam: float,
    b: float = 1.0,
) -> np.ndarray:
    """Craft the m shares the coalition sends to each non-selfish receiver.

    ``receivers`` holds the R receivers' own pre-aggregation models, one per
    row; ``benign_shares`` are the n models the non-selfish clients send.
    Returns an (R, m, d) array: entry [r, k] is the share selfish sender
    n + k sends to receiver r.  The bounds, the benign aggregate and the
    sorted benign values do not depend on the receiver, so each rule
    crafts all receivers in one array computation that reproduces the
    per-coordinate reference in ``dflsim.verify`` bit for bit.  Rules without a tailored
    construction (krum, fltrust) receive the FedAvg-based crafting.
    """
    _check_m(m)
    check_offset(b)
    if not lam >= 0.0:  # NaN fails too
        raise ValueError(f"lam must be >= 0, got {lam}")
    receivers = np.asarray(receivers, dtype=np.float64)
    benign = np.asarray(benign_shares, dtype=np.float64)
    return _CRAFTERS.get(rule.kind, _craft_fedavg_all)(receivers, benign, m, lam, b)


_CRAFTERS = {"median": _craft_median_all, "trimmed_mean": _craft_trimmed_mean_all, "flame": _craft_flame_all}
