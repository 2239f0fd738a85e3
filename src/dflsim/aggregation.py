"""Aggregation rules applied by each client to the shared models it received.

All functions take the k models as a (k, d) float64 matrix, or as k
equal-length rows, and return a single vector of length d.  The
coordinate-wise rules (fedavg, median, trimmed mean) also take a (R, k, d)
stack, the inputs of R receivers, and return their (R, d) aggregates;
:func:`aggregate` runs the other rules on such a stack one (k, d) slice at
a time.  They are insensitive to input order except for documented
deterministic tie-breaks (lowest sender index wins).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class AggregationRule:
    """An aggregation rule identifier plus its parameters.

    ``trim`` is the per-side trim count for trimmed_mean, ``assumed_attackers``
    the f of krum; both default to the number of selfish clients when resolved
    by the engine.
    """

    kind: str
    trim: int | None = None
    assumed_attackers: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown aggregation rule {self.kind!r}, expected one of {RULE_KINDS}")
        if self.trim is not None and self.trim < 0:
            raise ValueError(f"trim must be >= 0, got {self.trim}")
        if self.assumed_attackers is not None and self.assumed_attackers < 0:
            raise ValueError(f"assumed_attackers must be >= 0, got {self.assumed_attackers}")

    def resolved(self, num_selfish: int) -> "AggregationRule":
        """Fill rule parameters that default to the selfish count."""
        if self.kind == "trimmed_mean" and self.trim is None:
            return replace(self, trim=num_selfish)
        if self.kind == "krum" and self.assumed_attackers is None:
            return replace(self, assumed_attackers=num_selfish)
        return self


def _stack(models, ndims=(2,)) -> np.ndarray:
    """The models as one (k, d) float64 matrix, or a (R, k, d) stack when 3
    is in ``ndims``, with R, k >= 1, in C order so that sums over axis -2
    add row by row."""
    try:
        mat = np.ascontiguousarray(models, dtype=np.float64)
    except ValueError as exc:  # rows of different lengths
        raise ValueError(f"mixed model dimensions: {exc}") from None
    if 0 in mat.shape[: max(1, mat.ndim - 1)]:  # no receiver or no model
        raise ValueError("cannot aggregate zero models")
    if mat.ndim not in ndims:
        raise ValueError(f"expected k models of one dimension d, got shape {mat.shape}")
    return mat


def agg_fedavg(models) -> np.ndarray:
    """Coordinate-wise arithmetic mean."""
    return _stack(models, (2, 3)).mean(axis=-2)


def agg_median(models) -> np.ndarray:
    """Coordinate-wise median (mean of the two middle values for even counts)."""
    # np.median's own slice, mean and NaN rule, bit for bit; (a + b) / 2 keeps a -0.0 pair's sign
    mat = np.sort(_stack(models, (2, 3)), axis=-2)
    count = mat.shape[-2]
    middle = mat[..., (count - 1) // 2: count // 2 + 1, :].mean(axis=-2)
    return np.where(np.isnan(mat[..., -1, :]), mat[..., -1, :], middle)


def agg_trimmed_mean(models, trim: int) -> np.ndarray:
    """Coordinate-wise mean after dropping the ``trim`` largest and smallest values."""
    mat = _stack(models, (2, 3))
    count = mat.shape[-2]
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got {trim}")
    if count <= 2 * trim:
        raise ValueError(f"trimming {trim} per side leaves nothing of {count} models")
    mat = np.sort(mat, axis=-2)
    return mat[..., trim:count - trim, :].mean(axis=-2)


def agg_krum(models, assumed_attackers: int) -> np.ndarray:
    """Select the model whose summed squared distance to its nearest
    ``count - assumed_attackers - 2`` neighbours is smallest.

    Ties go to the lowest sender index.
    """
    mat = _stack(models)
    count = mat.shape[0]
    if count < assumed_attackers + 3:
        raise ValueError(f"krum needs at least assumed_attackers + 3 = {assumed_attackers + 3} models, got {count}")
    diff = mat[:, None, :] - mat[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)  # squared distances between rows
    np.fill_diagonal(sq, np.inf)
    closest = np.sort(sq, axis=1)[:, : count - assumed_attackers - 2]
    scores = closest.sum(axis=1)
    return mat[int(np.argmin(scores))].copy()


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcasting the leading ones, each
    by einsum's sum of products, as are the cosine paths' Gram matrices:
    never a BLAS dot, whose rounding can depend on where operands sit."""
    return np.einsum("...k,...k->...", a, b)


def _cosines(dots: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> np.ndarray:
    """Cosine similarities from einsum dots and ``sqrt`` of :func:`_row_dots`
    norms, 0 where either norm is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / (norms_a * norms_b)
    return np.where((norms_a != 0.0) & (norms_b != 0.0), cos, 0.0)


def agg_fltrust(models, reference: np.ndarray) -> np.ndarray:
    """Trust-weighted average anchored at a reference model.

    Each model gets trust ``max(0, cos(model, reference))``, is rescaled to
    the reference norm, and the trust-weighted mean is returned.  When every
    trust is zero the reference itself is returned.
    """
    mat = _stack(models)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape != mat.shape[1:]:
        raise ValueError(f"reference has dimension {reference.shape}, models have {mat.shape[1:]}")
    ref_norm = float(np.sqrt(_row_dots(reference, reference)))
    if ref_norm == 0.0:
        raise ValueError("reference model has zero norm")
    norms = np.sqrt(_row_dots(mat, mat))
    cos = _cosines(_row_dots(mat, reference), norms, ref_norm)
    trusts = np.where(cos > 0.0, cos, 0.0)  # max(0, cos), NaN included
    total = trusts.sum()
    if total == 0.0:
        return reference.copy()
    scaled = np.where(norms[:, None] > 0.0, mat * (ref_norm / np.where(norms == 0.0, 1.0, norms))[:, None], mat)
    return (trusts[:, None] * scaled).sum(axis=0) / total


@lru_cache
def _pairs(count: int) -> np.ndarray:
    """The (2, count(count-1)/2) read-only ``np.triu_indices(count, 1)``, built once per count."""
    pairs = np.array(np.triu_indices(count, 1))
    pairs.flags.writeable = False
    return pairs


def _admitted_by_clustering(mat: np.ndarray, norms: np.ndarray) -> list[int]:
    """Indices admitted by single-linkage clustering on pairwise cosine
    distance, from one Gram matrix and the rows' :func:`_row_dots` ``norms``.

    One union-find pass merges pairs in increasing distance order, a whole
    group of equal distances at a time, up to the first group after which a
    cluster has floor(count/2) + 1 members: a strict majority, so the only one.
    A NaN distance sorts last, in pair order, and is a group of its own.
    """
    count = mat.shape[0]
    if count < 3:
        return list(range(count))
    pairs = _pairs(count)
    dist = 1.0 - _cosines(np.einsum("ik,jk->ij", mat, mat), norms[:, None], norms)[pairs[0], pairs[1]]
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    parent, size = list(range(count)), [1] * count

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    winner = None
    for a, b, group_end in zip(*pairs[:, order].tolist(), (dist[1:] != dist[:-1]).tolist() + [True]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            size[ra] += size[rb]
            if size[ra] >= count // 2 + 1:
                winner = ra
        if winner is not None and group_end:
            break  # the last pair merges everything, so a winner exists
    return [x for x in range(count) if find(x) == winner]


def agg_flame(models) -> np.ndarray:
    """Cluster out directional outliers, clip norms, and average.

    Pairwise cosine distances feed a single-linkage clustering cut at the
    smallest threshold producing a majority cluster, found in one
    union-find pass over the k(k-1)/2 sorted pairs of k models; admitted
    models are norm-clipped to the median admitted norm and averaged.  The
    additive noise of the original defense is omitted.
    """
    mat = _stack(models)
    norms = np.sqrt(_row_dots(mat, mat))
    admitted = _admitted_by_clustering(mat, norms)
    kept, norms = mat[admitted], norms[admitted]
    ranked, mid = np.sort(norms), norms.size // 2  # a NaN sorts last
    middle = ranked[mid] if norms.size % 2 else (ranked[mid - 1] + ranked[mid]) / 2
    clip_to = float(ranked[-1] if np.isnan(ranked[-1]) else middle)  # np.median's value and NaN rule, without numpy.ma
    scale = np.ones_like(norms)
    mask = norms > clip_to
    scale[mask] = clip_to / norms[mask]  # 0 where the median norm is 0
    return (kept * scale[:, None]).mean(axis=0)


def _given(value, what: str):
    if value is None:
        raise ValueError(f"the rule needs {what}")
    return value


# rule kind -> its aggregation of (models, resolved rule, receiver's own model)
_RULES = {
    "fedavg": lambda models, rule, own: agg_fedavg(models),
    "median": lambda models, rule, own: agg_median(models),
    "trimmed_mean": lambda models, rule, own: agg_trimmed_mean(models, _given(rule.trim, "its trim; call resolved()")),
    "krum": lambda models, rule, own: agg_krum(models, _given(rule.assumed_attackers, "its f; call resolved()")),
    "fltrust": lambda models, rule, own: agg_fltrust(models, _given(own, "the receiver's own model as reference")),
    "flame": lambda models, rule, own: agg_flame(models),
}
RULE_KINDS = tuple(_RULES)


def aggregate(rule: AggregationRule, models, receiver_pre_agg: np.ndarray | None = None) -> np.ndarray:
    """Aggregate (k, d) models into one (d,) model, or a (R, k, d) array into
    R receivers' (R, d) models; fltrust anchors at ``receiver_pre_agg``, (d,) or (R, d)."""
    run = _RULES[rule.kind]
    if rule.kind in ("fedavg", "median", "trimmed_mean") or getattr(models, "ndim", 2) != 3 or not len(models):
        return run(models, rule, receiver_pre_agg)
    owns = [None] * len(models) if receiver_pre_agg is None else receiver_pre_agg
    return np.array([run(mat, rule, own) for mat, own in zip(models, owns, strict=True)])
