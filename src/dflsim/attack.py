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
coordinate-wise median and trimmed mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import AggregationRule, _cosines, _row_dots, agg_fedavg, agg_median, agg_trimmed_mean

# treat lam this close to 1 as exactly 1 (the objective degenerates to linear)
LAMBDA_ONE_TOLERANCE = 1e-9

# constants of the flame-tailored crafting
FLAME_ALPHA = 5.0
FLAME_BETA = 0.01
FLAME_DENOM_EPS = 1e-12


@dataclass(frozen=True)
class CoordinateBounds:
    """Closed interval of aggregates reachable on one coordinate."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"bounds must be finite, got [{self.lower}, {self.upper}]")
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def clamp(self, x: float) -> float:
        return min(max(x, self.lower), self.upper)


# ---------------------------------------------------------------------------
# per-coordinate optimum
# ---------------------------------------------------------------------------

def solve_optimal_coordinate(w: float, w_benign: float, bounds: CoordinateBounds, lam: float) -> float:
    """Minimize ``(x-w)^2 - lam*(x-w_benign)^2`` over ``bounds``.

    For ``lam < 1`` the objective is strictly convex with stationary point
    ``p = (w - lam*w_benign) / (1 - lam)``, so the answer is ``p`` clamped.
    For ``lam == 1`` it is linear and an endpoint wins (lower on ties).
    For ``lam > 1`` it is concave, so the endpoint farther from ``p`` wins
    (lower on ties).
    """
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if abs(lam - 1.0) <= LAMBDA_ONE_TOLERANCE:
        return bounds.upper if w > w_benign else bounds.lower
    if lam < 1.0:
        return bounds.clamp((w - lam * w_benign) / (1.0 - lam))
    p = w_benign + (w_benign - w) / (lam - 1.0)  # lam * w_benign would overflow for a huge lam
    return bounds.upper if abs(p - bounds.upper) > abs(p - bounds.lower) else bounds.lower


# ---------------------------------------------------------------------------
# reachable intervals
# ---------------------------------------------------------------------------

def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def check_offset(b: float) -> None:
    if not 0.0 < b < np.inf:  # NaN fails too
        raise ValueError(f"b must be a finite value > 0, got {b}")


def _check_descending(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("benign coordinates must be a non-empty 1-D sequence")
    if not np.isfinite(q).all():
        raise ValueError("benign coordinates must be finite")
    if (q[1:] > q[:-1]).any():
        raise ValueError("benign coordinates must be sorted in descending order")
    return q


def fedavg_bounds(q: Sequence[float]) -> CoordinateBounds:
    """Mean of benign plus m crafted values can land anywhere in [min, max]
    of the benign values (and, with unbounded shares, beyond; the attack
    restricts itself to the benign range)."""
    q = np.asarray(q, dtype=np.float64)
    if q.size == 0:
        raise ValueError("need at least one benign value")
    return CoordinateBounds(float(q.min()), float(q.max()))


def _column_sums(rows: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Sums of ``rows[start:stop]`` per column (the one sum of a 1-D ``rows``),
    each added in the order of a 1-D sum: a reduction along a contiguous last
    axis (one along axis 0 adds in another order and changes the last bits)."""
    return np.ascontiguousarray(rows[start:stop].T).sum(axis=-1)


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


def _trimmed_mean_interval(q: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) ends of the interval the trimmed mean (m per side) of
    ``q`` plus ``m`` crafted values can reach, shaped and sorted as in
    :func:`_median_interval`: the means of the bottom and top n - m values."""
    n = q.shape[0]
    if n <= m:
        raise ValueError(f"trimmed-mean bounds need n > m, got n={n}, m={m}")
    return _column_sums(q, m, n) / (n - m), _column_sums(q, 0, n - m) / (n - m)


def median_bounds(q: Sequence[float], m: int) -> CoordinateBounds:
    """Interval the median of ``q`` (sorted descending) plus ``m`` crafted values can reach."""
    q = _check_descending(q)
    _check_m(m)
    return CoordinateBounds(*map(float, _median_interval(q, m)))


def trimmed_mean_bounds(q: Sequence[float], m: int) -> CoordinateBounds:
    """Interval the trimmed mean (m per side) of ``q`` (sorted descending) plus ``m`` crafted values can reach."""
    q = _check_descending(q)
    _check_m(m)
    return CoordinateBounds(*map(float, _trimmed_mean_interval(q, m)))


# ---------------------------------------------------------------------------
# crafting for one coordinate
# ---------------------------------------------------------------------------

def craft_fedavg(q: Sequence[float], target: float, m: int) -> np.ndarray:
    """Crafted values whose mean together with ``q`` equals ``target``.

    One value absorbs the correction, the other m - 1 sit at the target.
    """
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    _check_m(m)
    bounds = fedavg_bounds(q)
    if not bounds.contains(target):
        raise ValueError(f"target {target} outside [{bounds.lower}, {bounds.upper}]")
    crafted = np.full(m, target, dtype=np.float64)
    crafted[0] = (n + 1) * target - q.sum()
    return crafted


def craft_median(q: Sequence[float], target: float, m: int, b: float = 1.0) -> np.ndarray:
    """Crafted values that drive the median of ``q`` plus them to ``target``.

    ``q`` must be sorted descending.  When the target sits strictly above
    q[(n-m)//2] (possible only for even totals) one value is reflected so
    the two middle entries average to the target while the rest park above
    the benign maximum; symmetrically below; otherwise all crafted values
    equal the target.
    """
    bounds = median_bounds(q, m)
    check_offset(b)
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    if not bounds.contains(target):
        raise ValueError(f"target {target} outside [{bounds.lower}, {bounds.upper}]")
    upper_pivot = q[(n - m) // 2]
    lower_pivot = q[(n + m - 1) // 2]
    crafted = np.empty(m, dtype=np.float64)
    if target > upper_pivot:
        crafted[0] = 2.0 * target - upper_pivot
        crafted[1:] = q[0] + b
    elif target < lower_pivot:
        crafted[0] = 2.0 * target - lower_pivot
        crafted[1:] = q[-1] - b
    else:
        crafted[:] = target
    return crafted


def craft_trimmed_mean(q: Sequence[float], target: float, m: int, b: float = 1.0) -> np.ndarray:
    """Crafted values that drive the trimmed mean (m per side) of ``q`` plus
    them to ``target``.

    ``q`` must be sorted descending.  Split j = 0..m parks m - j crafted
    values outside the benign range (below it when the target is at or below
    the benign trimmed mean, above it otherwise) and gives the other j a
    common filler value that lands the surviving mean on the target; the
    first feasible split wins.
    """
    bounds = trimmed_mean_bounds(q, m)
    check_offset(b)
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    if n < 2 * m + 1:
        raise ValueError(f"crafting needs n >= 2m + 1, got n={n}, m={m}")
    if not bounds.contains(target):
        raise ValueError(f"target {target} outside [{bounds.lower}, {bounds.upper}]")
    low = target <= float(q[m:n - m].mean())
    pivot = q[m - 1] if low else q[n - m]
    for j in range(m + 1):
        kept = (q[m:n - j] if low else q[j:n - m]).sum()
        threshold = (j * pivot + kept) / (n - m)
        # split m parks nothing and is feasible in exact arithmetic: take it
        # without a threshold that rounding can put past the target
        if j == m or (target <= threshold if low else target >= threshold):
            break
    crafted = np.full(m, q[-1] - b if low else q[0] + b)
    if j:
        crafted[m - j:] = ((n - m) * target - kept) / j
    return crafted


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
    """:func:`solve_optimal_coordinate` over arrays: receiver coordinates
    ``w`` of shape (R, d) against per-coordinate aggregates and bounds (d,)."""
    if abs(lam - 1.0) <= LAMBDA_ONE_TOLERANCE:
        return np.where(w > w_benign, upper, lower)
    if lam < 1.0:
        p = (w - lam * w_benign) / (1.0 - lam)
        above_lower = np.where(lower > p, lower, p)
        return np.where(upper < above_lower, upper, above_lower)
    p = w_benign + (w_benign - w) / (lam - 1.0)  # as in solve_optimal_coordinate
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
    """:func:`craft_fedavg` for every receiver and coordinate at once."""
    n = benign.shape[0]
    columns = np.ascontiguousarray(benign.T)
    lower, upper = columns.min(axis=1), columns.max(axis=1)
    target = _targets(receivers, benign, agg_fedavg(benign), lower, upper, lam)
    crafted = np.repeat(target[:, None, :], m, axis=1)
    crafted[:, 0] = (n + 1) * target - columns.sum(axis=1)
    return crafted


def _craft_median_all(receivers, benign, m, lam, b) -> np.ndarray:
    """:func:`median_bounds` and :func:`craft_median` for every receiver and
    coordinate at once."""
    n = benign.shape[0]
    q = -np.sort(-benign, axis=0)
    lower, upper = _median_interval(q, m)
    target = _targets(receivers, q, agg_median(benign), lower, upper, lam)
    upper_pivot = q[(n - m) // 2]
    lower_pivot = q[(n + m - 1) // 2]
    above = target > upper_pivot
    below = target < lower_pivot
    crafted = np.empty((receivers.shape[0], m, benign.shape[1]))
    crafted[:, 0] = np.where(above, 2.0 * target - upper_pivot, np.where(below, 2.0 * target - lower_pivot, target))
    crafted[:, 1:] = np.where(above, q[0] + b, np.where(below, q[-1] - b, target))[:, None, :]
    return crafted


def _craft_trimmed_mean_all(receivers, benign, m, lam, b) -> np.ndarray:
    """:func:`trimmed_mean_bounds` and :func:`craft_trimmed_mean` for every
    receiver and coordinate at once.

    The scalar loop over splits j = 0..m becomes a table of m + 1 thresholds
    per coordinate and side, computed once per call; each cell takes the
    first feasible split.  Split j parks m - j crafted values outside the
    benign range and gives the other j a common filler value.
    """
    n = benign.shape[0]
    if n < 2 * m + 1:
        raise ValueError(f"crafting needs n >= 2m + 1, got n={n}, m={m}")
    q = -np.sort(-benign, axis=0)
    lower, upper = _trimmed_mean_interval(q, m)
    target = _targets(receivers, q, agg_trimmed_mean(benign, m), lower, upper, lam)
    splits = np.arange(m + 1)[:, None]
    # below the benign trimmed mean: split j keeps q[m:n-j], pivots on q[m-1]
    low_sums = np.stack([_column_sums(q, m, n - j) for j in range(m + 1)])
    low_thresholds = (splits * q[m - 1] + low_sums) / (n - m)
    # above it: split j keeps q[j:n-m], pivots on q[n-m]
    high_sums = np.stack([_column_sums(q, j, n - m) for j in range(m + 1)])
    high_thresholds = (splits * q[n - m] + high_sums) / (n - m)

    go_low = target <= _column_sums(q, m, n - m) / (n - 2 * m)
    feasible = np.where(
        go_low[:, None, :],
        target[:, None, :] <= low_thresholds,
        target[:, None, :] >= high_thresholds,
    )
    feasible[:, m] = True  # feasible in exact arithmetic, see craft_trimmed_mean
    split = feasible.argmax(axis=1)

    sums = np.where(go_low, np.take_along_axis(low_sums, split, axis=0), np.take_along_axis(high_sums, split, axis=0))
    filler = ((n - m) * target - sums) / np.maximum(split, 1)
    park = np.where(go_low, q[-1] - b, q[0] + b)
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
    per-coordinate functions above bit for bit.  Rules without a tailored
    construction (krum, fltrust) receive the FedAvg-based crafting.
    """
    _check_m(m)
    check_offset(b)
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    receivers = np.asarray(receivers, dtype=np.float64)
    benign = np.asarray(benign_shares, dtype=np.float64)
    return _CRAFTERS.get(rule.kind, _craft_fedavg_all)(receivers, benign, m, lam, b)


_CRAFTERS = {"median": _craft_median_all, "trimmed_mean": _craft_trimmed_mean_all, "flame": _craft_flame_all}
