"""Aggregation rules applied by each client to the shared models it received.

All functions take the k models as a (k, d) float64 matrix, or as k
equal-length rows, and return a single vector of length d.  They are
insensitive to input order except for documented deterministic tie-breaks
(lowest sender index wins).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, EmptyAfterTrim, EmptyInput, TooFewModels, ZeroReference


@dataclass(frozen=True)
class AggregationRule:
    """An aggregation rule identifier plus its parameters.

    ``trim`` is the per-side trim count for trimmed_mean, ``assumed_attackers``
    the f of krum; both default to the number of selfish clients when resolved
    by the engine.  ``clip`` toggles norm clipping in flame.
    """

    kind: str
    trim: int | None = None
    assumed_attackers: int | None = None
    clip: bool = True

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown aggregation rule {self.kind!r}, expected one of {RULE_KINDS}")
        if self.trim is not None and self.trim < 0:
            raise ValueError(f"trim must be >= 0, got {self.trim}")
        if self.assumed_attackers is not None and self.assumed_attackers < 0:
            raise ValueError(f"assumed_attackers must be >= 0, got {self.assumed_attackers}")

    def resolved(self, num_selfish: int) -> "AggregationRule":
        """Fill rule parameters that default to the selfish count."""
        trim = self.trim
        attackers = self.assumed_attackers
        if self.kind == "trimmed_mean" and trim is None:
            trim = num_selfish
        if self.kind == "krum" and attackers is None:
            attackers = num_selfish
        return AggregationRule(self.kind, trim, attackers, self.clip)


def _stack(models) -> np.ndarray:
    """The models as one (k, d) float64 matrix, k >= 1, in C order so that
    sums over axis 0 add row by row."""
    try:
        mat = np.ascontiguousarray(models, dtype=np.float64)
    except ValueError as exc:  # rows of different lengths
        raise DimensionMismatch(f"mixed model dimensions: {exc}") from None
    if mat.shape[:1] == (0,):
        raise EmptyInput("cannot aggregate zero models")
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected k models of one dimension d, got shape {mat.shape}")
    return mat


def agg_fedavg(models) -> np.ndarray:
    """Coordinate-wise arithmetic mean."""
    return _stack(models).mean(axis=0)


def agg_median(models) -> np.ndarray:
    """Coordinate-wise median (mean of the two middle values for even counts)."""
    return np.median(_stack(models), axis=0)


def agg_trimmed_mean(models, trim: int) -> np.ndarray:
    """Coordinate-wise mean after dropping the ``trim`` largest and smallest values."""
    mat = _stack(models)
    count = mat.shape[0]
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got {trim}")
    if count <= 2 * trim:
        raise EmptyAfterTrim(f"trimming {trim} per side leaves nothing of {count} models")
    mat = np.sort(mat, axis=0)
    return mat[trim:count - trim].mean(axis=0)


def pairwise_sq_distances(mat: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances between rows."""
    diff = mat[:, None, :] - mat[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def agg_krum(models, assumed_attackers: int) -> np.ndarray:
    """Select the model whose summed squared distance to its nearest
    ``count - assumed_attackers - 2`` neighbours is smallest.

    Ties go to the lowest sender index.
    """
    mat = _stack(models)
    count = mat.shape[0]
    if count < assumed_attackers + 3:
        raise TooFewModels(
            f"krum needs at least assumed_attackers + 3 = {assumed_attackers + 3} models, got {count}"
        )
    sq = pairwise_sq_distances(mat)
    np.fill_diagonal(sq, np.inf)
    closest = np.sort(sq, axis=1)[:, : count - assumed_attackers - 2]
    scores = closest.sum(axis=1)
    return mat[int(np.argmin(scores))].copy()


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcasting the leading ones, each
    by the BLAS dot of ``np.dot`` (a matrix product rounds differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cosines(dots: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> np.ndarray:
    """Cosine similarities from :func:`_row_dots` dots and ``sqrt`` of
    :func:`_row_dots` norms, 0 where either norm is 0.  Equal bit for bit to
    ``np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))`` per pair."""
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
        raise DimensionMismatch(
            f"reference has dimension {reference.shape}, models have {mat.shape[1:]}"
        )
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        raise ZeroReference("reference model has zero norm")
    cos = _cosines(_row_dots(mat, reference), np.sqrt(_row_dots(mat, mat)), ref_norm)
    trusts = np.where(cos > 0.0, cos, 0.0)  # max(0, cos), NaN included
    total = trusts.sum()
    if total == 0.0:
        return reference.copy()
    norms = np.linalg.norm(mat, axis=1)  # not the cosines' norms: these round differently, and records pin them
    scaled = np.where(norms[:, None] > 0.0, mat * (ref_norm / np.where(norms == 0.0, 1.0, norms))[:, None], mat)
    return (trusts[:, None] * scaled).sum(axis=0) / total


def _admitted_by_clustering(mat: np.ndarray) -> list[int]:
    """Indices admitted by single-linkage clustering on pairwise cosine distance.

    One union-find pass merges pairs in increasing distance order, a whole
    group of equal distances at a time, up to the first group after which a
    cluster has floor(count/2) + 1 members: a strict majority, so the only one.
    """
    count = mat.shape[0]
    if count < 3:
        return list(range(count))
    i, j = np.triu_indices(count, 1)
    norms = np.sqrt(_row_dots(mat, mat))
    dist = 1.0 - _cosines(_row_dots(mat[i], mat[j]), norms[i], norms[j])
    order = np.argsort(dist)
    dist = dist[order]
    group_ends = np.append(dist[1:] != dist[:-1], True)
    parent, size = list(range(count)), [1] * count

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    winner = None
    for a, b, group_end in zip(i[order].tolist(), j[order].tolist(), group_ends.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            size[ra] += size[rb]
            if size[ra] >= count // 2 + 1:
                winner = ra
        if winner is not None and group_end:
            break  # the last pair merges everything, so a winner exists
    return [x for x in range(count) if find(x) == winner]


def agg_flame(models, clip: bool = True) -> np.ndarray:
    """Cluster out directional outliers, clip norms, and average.

    Pairwise cosine distances feed a single-linkage clustering cut at the
    smallest threshold producing a majority cluster, found in one
    union-find pass over the k(k-1)/2 sorted pairs of k models; admitted
    models are norm-clipped to the median admitted norm and averaged.  The
    additive noise of the original defense is omitted.
    """
    mat = _stack(models)
    admitted = _admitted_by_clustering(mat)
    kept = mat[admitted]
    if clip:
        norms = np.linalg.norm(kept, axis=1)
        clip_to = float(np.median(norms))
        scale = np.ones_like(norms)
        mask = norms > clip_to
        if clip_to > 0.0:
            scale[mask] = clip_to / norms[mask]
        else:
            scale[mask] = 0.0
        kept = kept * scale[:, None]
    return kept.mean(axis=0)


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
    "flame": lambda models, rule, own: agg_flame(models, clip=rule.clip),
}
RULE_KINDS = tuple(_RULES)


def aggregate(rule: AggregationRule, models, receiver_pre_agg: np.ndarray | None = None) -> np.ndarray:
    """Aggregate the models with ``rule``; fltrust anchors at ``receiver_pre_agg``."""
    return _RULES[rule.kind](models, rule, receiver_pre_agg)
