"""Independent oracles used by the tests.

Everything here checks results by brute force or numerics only — none of it
shares code with the library's closed-form implementations.  The exceptions
are :func:`scalar_crafting`, which composes ``dflsim.verify``'s per-coordinate
reference crafting functions, :func:`trainer_loss_and_grad`, the trainer's
own step that the gradient checks judge, and :func:`reference_run`, which
shares the config types, the seeded streams, the datasets, the partition,
the scalar crafting and ``agg_krum`` with the library, and nothing of its
round engine.
"""

import numpy as np

from dflsim import simulation
from dflsim.aggregation import AggregationRule, agg_fedavg, agg_krum, agg_median, agg_trimmed_mean
from dflsim.attack import FLAME_ALPHA, FLAME_BETA
from dflsim.baselines import GAUSSIAN_SIGMA, TRIM_ATTACK_DELTA_HI, TRIM_ATTACK_DELTA_LO
from dflsim.core import STREAM_ATTACK, STREAM_DATA, STREAM_PARTITION, STREAM_TEST, STREAM_TRAIN, Rng
from dflsim.reporting import ExperimentRecord
from dflsim.simulation import generate_synthetic, partition_non_iid
from dflsim.verify import (
    craft_fedavg,
    craft_median,
    craft_trimmed_mean,
    fedavg_bounds,
    median_bounds,
    solve_optimal_coordinate,
    trimmed_mean_bounds,
)


def median_of(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def median_rows_of(models) -> np.ndarray:
    """Coordinate-wise median of one receiver's (k, d) models by ``np.median``."""
    return np.median(np.asarray(models, dtype=np.float64), axis=0)


def trimmed_mean_rows_of(models, trim: int) -> np.ndarray:
    """Coordinate-wise trimmed mean of one receiver's (k, d) models."""
    mat = np.sort(np.asarray(models, dtype=np.float64), axis=0)
    return mat[trim:mat.shape[0] - trim].mean(axis=0)


def trimmed_mean_of(values, trim: int) -> float:
    values = np.sort(np.asarray(values, dtype=np.float64))
    return float(values[trim:values.size - trim].mean())


def brute_median_interval(q, m: int, probe: float = 1e6) -> tuple[float, float]:
    """Median interval reachable by appending m values, found by pushing all
    appended values far below / far above the benign range."""
    q = np.asarray(q, dtype=np.float64)
    lo = median_of(np.concatenate([q, np.full(m, q.min() - probe)]))
    hi = median_of(np.concatenate([q, np.full(m, q.max() + probe)]))
    return lo, hi


def brute_trimmed_interval(q, m: int, probe: float = 1e6) -> tuple[float, float]:
    """Trimmed-mean interval reachable by appending m values (trim m per side)."""
    q = np.asarray(q, dtype=np.float64)
    lo = trimmed_mean_of(np.concatenate([q, np.full(m, q.min() - probe)]), m)
    hi = trimmed_mean_of(np.concatenate([q, np.full(m, q.max() + probe)]), m)
    return lo, hi


def tightness_aggregates_of(q: np.ndarray, crafted: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``crafted``: the median and the [m:n] trimmed mean of the
    n values ``q`` plus that row, from a tiled, concatenated and freshly
    sorted matrix."""
    combined = np.concatenate([np.tile(q, (crafted.shape[0], 1)), crafted], axis=1)
    return np.median(combined, axis=1), np.sort(combined, axis=1)[:, m:q.size].mean(axis=1)


def grid_argmin(w: float, w_benign: float, lower: float, upper: float, lam: float, points: int = 100_001) -> float:
    """Dense-grid minimizer of (x - w)^2 - lam * (x - w_benign)^2 on [lower, upper]."""
    grid = np.linspace(lower, upper, points)
    objective = (grid - w) ** 2 - lam * (grid - w_benign) ** 2
    return float(grid[int(np.argmin(objective))])


def finite_difference_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function."""
    grad = np.empty_like(x, dtype=np.float64)
    for k in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[k] += h
        lo[k] -= h
        grad[k] = (fn(hi) - fn(lo)) / (2.0 * h)
    return grad


def dot_of(a: np.ndarray, b: np.ndarray) -> float:
    """One dot product by einsum's sum of products, as the engine takes
    every dot on its cosine and norm paths.  Equal to the engine's dots for
    d <= 8192 only: past einsum's 8192-element buffer, a (d,) or a (1, d)
    operand is summed in chunks, while (k >= 2, d) rows and a Gram product
    are summed in one pass."""
    return float(np.einsum("k,k->", a, b))


def norm_of(a: np.ndarray) -> float:
    """The square root of :func:`dot_of` ``a`` with itself."""
    return float(np.sqrt(dot_of(a, a)))


def cosine_of(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, 0 when either vector has zero norm."""
    na = norm_of(a)
    nb = norm_of(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot_of(a, b) / (na * nb)


def fltrust_of(models: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """FLTrust with one cosine call per model: the trust loop that
    ``agg_fltrust`` must reproduce bit for bit."""
    ref_norm = norm_of(reference)
    trusts = np.array([max(0.0, cosine_of(row, reference)) for row in models])
    total = trusts.sum()
    if total == 0.0:
        return reference.copy()
    norms = np.array([norm_of(row) for row in models])
    scaled = np.where(norms[:, None] > 0.0, models * (ref_norm / np.where(norms == 0.0, 1.0, norms))[:, None], models)
    return (trusts[:, None] * scaled).sum(axis=0) / total


def craft_flame_of(receiver: np.ndarray, benign: list, m: int, alpha: float, beta: float) -> np.ndarray:
    """The (m, d) flame-tailored shares for one receiver, one cosine call
    per benign share."""
    n = len(benign)
    take = (n - m) // 2
    dists = np.array([1.0 - cosine_of(s, receiver) for s in benign])
    selected = np.argsort(dists, kind="stable")[:take]
    total_selected = np.sum([benign[i] for i in selected], axis=0) if take > 0 else np.zeros_like(receiver)
    crafted = (total_selected + alpha * receiver - beta * np.sum(benign, axis=0)) / (take + alpha - beta * n)
    return np.tile(crafted, (m, 1))


def admitted_by_clustering(mat: np.ndarray) -> list[int]:
    """Indices admitted by FLAME's single-linkage clustering, by brute force.

    Sorts every pair by (cosine distance, i, j), NaN distances last, merges
    one group of equal distances at a time (each NaN a group of its own) and
    rescans all clusters after each group, stopping at the first group after
    which some cluster has floor(count/2) + 1 members.  Ties between equally
    large clusters go to the one containing the smallest index.
    """
    count = mat.shape[0]
    need = count // 2 + 1
    if count < 3:
        return list(range(count))

    edges = []
    for i in range(count):
        for j in range(i + 1, count):
            edges.append((1.0 - cosine_of(mat[i], mat[j]), i, j))
    edges.sort(key=lambda e: (np.isnan(e[0]), 0.0 if np.isnan(e[0]) else e[0], e[1], e[2]))

    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def components() -> dict[int, list[int]]:
        comps: dict[int, list[int]] = {}
        for i in range(count):
            comps.setdefault(find(i), []).append(i)
        return comps

    pos = 0
    while pos < len(edges):
        threshold = edges[pos][0]
        first = pos
        while pos < len(edges) and (pos == first or edges[pos][0] == threshold):  # NaN != NaN
            _, i, j = edges[pos]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
            pos += 1
        winners = [c for c in components().values() if len(c) >= need]
        if winners:
            winners.sort(key=lambda c: (-len(c), min(c)))
            return sorted(winners[0])
    # unreachable: once all edges are merged there is a single cluster of
    # size count >= need; kept as a defensive fallback
    return list(range(count))


def trainer_loss_and_grad(model: np.ndarray, x: np.ndarray, y: np.ndarray, num_classes: int):
    """The trainer's own training step (``simulation._step``, not an oracle)
    on one model and one full batch: the loss and the flat gradient."""
    batch = np.ones((1, len(x), x.shape[1] + 1))
    batch[0, :, :-1] = x
    labelled = np.arange(len(x)) * num_classes + y
    counts = np.array([len(x)], float)
    losses, grads = simulation._step(
        simulation._rows(model[None], num_classes), batch, labelled[None], counts, 1.0,
        np.full((1, len(x), num_classes), counts[0]),
    )
    return float(losses[0]), simulation._flat(grads)[0]


def loss_and_grad_of(model: np.ndarray, x: np.ndarray, y: np.ndarray, num_classes: int, width: int | None = None):
    """Mean softmax cross-entropy and its gradient for one model and one
    batch, in the trainer's arithmetic: the batch padded with zero rows to
    ``width`` (its own length by default), each row ``[x | 1]`` against
    each class's ``[w | b]``, and the padding masked out of the loss only."""
    batch, features = x.shape
    width = batch if width is None else width
    padded = np.zeros((width, features + 1))
    padded[:batch, :features] = x
    padded[:batch, features] = 1.0
    labels = np.zeros(width, dtype=np.int64)
    labels[:batch] = y
    rows = np.concatenate(
        [model[: num_classes * features].reshape(num_classes, features), model[num_classes * features:, None]], axis=1
    )
    logits = padded @ rows.T                           # (W, C)
    logits = logits - logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    loss = -float((log_probs[np.arange(width), labels] * (np.arange(width) < batch)).sum() / batch)
    probs = np.exp(log_probs)
    probs[np.arange(width), labels] -= 1.0
    probs /= batch
    grad = probs.T @ padded                            # (C, F + 1)
    return loss, np.concatenate([grad[:, :features].ravel(), grad[:, features]])


def local_update_of(model: np.ndarray, features: np.ndarray, labels: np.ndarray, num_classes: int, cfg, gen, width):
    """One client's local epochs, one minibatch after another, each padded
    to the run's ``width``: the per-client loop the lockstep trainer must
    reproduce bit for bit.  Returns (model, mean batch loss)."""
    model = np.asarray(model, dtype=np.float64).copy()
    losses = []
    for _ in range(cfg.local_epochs):
        order = gen.permutation(len(labels))
        for start in range(0, len(labels), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grad = loss_and_grad_of(model, features[batch], labels[batch], num_classes, width)
            losses.append(loss)
            model -= cfg.learning_rate * (grad + cfg.weight_decay * model)
    return model, float(np.mean(losses))


def flame_of(mat: np.ndarray) -> np.ndarray:
    """FLAME without noise: the brute-force admitted rows, each clipped to
    ``np.median`` of their norms, averaged."""
    kept = mat[admitted_by_clustering(mat)]
    norms = np.array([norm_of(row) for row in kept])
    clip_to = float(np.median(norms))
    scale = np.ones_like(norms)
    mask = norms > clip_to
    scale[mask] = clip_to / norms[mask]
    return (kept * scale[:, None]).mean(axis=0)


def gaussian_shares_of(dim: int, m: int, gen, sigma: float) -> np.ndarray:
    """One receiver's (m, dim) noise shares, drawn alone from its ``gen``."""
    return gen.normal(0.0, sigma, size=(m, dim))


def directed_deviation_of(benign_shares, prev_aggregate, m: int, gen, delta_lo: float, delta_hi: float) -> np.ndarray:
    """One receiver's (m, d) directed-deviation shares from a list of benign
    rows and its previous aggregate: per coordinate, below the benign minimum
    if the benign mean rose above ``prev_aggregate``, else above the maximum,
    offset by a draw from ``gen`` times the extreme's magnitude (1 at zero)."""
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


def attack_start_of(losses, epsilon: float, interval: int):
    """First round (from 1) at which the plateau rule fires, fed one loss a
    round: the running minimum's drop over the last ``interval`` rounds is
    positive but below ``epsilon`` times the largest such drop so far."""
    history, max_gap = [], 0.0
    for t, loss in enumerate(losses, start=1):
        history.append(min(history[-1], float(loss)) if history else float(loss))
        if len(history) > interval:
            gap = history[-1 - interval] - history[-1]
            max_gap = max(max_gap, gap)
            if 0.0 < gap < epsilon * max_gap:
                return t
    return None


def scalar_crafting(kind, receiver, benign, m, lam, b=1.0):
    """The (m, d) shares for one receiver, coordinate by coordinate, from the
    scalar bounds, solver and crafting functions."""
    benign = np.stack(benign)
    desc = -np.sort(-benign, axis=0)
    columns = []
    for k in range(benign.shape[1]):
        if kind == "median":
            bounds = median_bounds(desc[:, k], m)
            target = solve_optimal_coordinate(receiver[k], agg_median(benign)[k], bounds, lam)
            columns.append(craft_median(desc[:, k], target, m, b))
        elif kind == "trimmed_mean":
            bounds = trimmed_mean_bounds(desc[:, k], m)
            target = solve_optimal_coordinate(receiver[k], agg_trimmed_mean(benign, m)[k], bounds, lam)
            columns.append(craft_trimmed_mean(desc[:, k], target, m, b))
        else:
            bounds = fedavg_bounds(benign[:, k])
            target = solve_optimal_coordinate(receiver[k], agg_fedavg(benign)[k], bounds, lam)
            columns.append(craft_fedavg(benign[:, k], target, m))
    return np.stack(columns, axis=1)


def aggregate_of(rule, shares, own) -> np.ndarray:
    """One receiver's aggregate of its (k, d) ``shares``; fltrust anchors at
    ``own``, the receiver's trained model."""
    if rule.kind == "fedavg":
        return np.mean(shares, axis=0)
    if rule.kind == "median":
        return median_rows_of(shares)
    if rule.kind == "trimmed_mean":
        return trimmed_mean_rows_of(shares, rule.trim)
    if rule.kind == "krum":
        return agg_krum(shares, rule.assumed_attackers)
    if rule.kind == "fltrust":
        return fltrust_of(shares, own)
    return flame_of(shares)


def correct_count_of(model: np.ndarray, x: np.ndarray, y: np.ndarray, num_classes: int) -> int:
    """How many rows of ``x`` one flat model labels ``y``: a plain argmax
    over the classes of the class-major logits ``W @ x.T + b``.  Under
    OpenBLAS's Nehalem kernels the row-major ``x @ W.T`` rounds some logits
    differently from the engine's class-major product, and can flip a
    near-tie."""
    weights = model[: num_classes * x.shape[1]].reshape(num_classes, x.shape[1])
    return int(np.sum(np.argmax(weights @ x.T + model[num_classes * x.shape[1]:, None], axis=0) == y))


def reference_run(cfg):
    """One experiment on synthetic data, the plain way: every client trains
    alone, every receiver builds its own list of shares and aggregates it
    alone, and every model is evaluated alone.  Returns the records and the
    (N, d) final models."""
    roles, attack = cfg.roles, cfg.attack
    n, m, total = roles.n, roles.m, roles.total
    defenders = cfg.rule.resolved(m)
    attackers = attack.selfish_rule or (AggregationRule("median") if cfg.rule.kind == "flame" else cfg.rule)
    attackers = attackers.resolved(m)
    lam = attack.lam if attack.lam is not None else {"median": 0.5, "trimmed_mean": 1.0}.get(cfg.rule.kind, 0.0)

    rng = Rng(cfg.seed)
    train, test = generate_synthetic(cfg.data, rng.stream(STREAM_DATA), rng.stream(STREAM_TEST))
    owner = partition_non_iid(train, total, cfg.partition, rng.stream(STREAM_PARTITION))
    shards = [(train.features[owner == c], train.labels[owner == c]) for c in range(total)]
    classes = train.num_classes
    width = min(cfg.trainer.batch_size, max(len(labels) for _, labels in shards))  # every batch pads to it
    models = np.zeros((total, classes * train.num_features + classes))
    records, selfish_losses = [], []
    for t in range(1, cfg.rounds + 1):
        trained = [
            local_update_of(models[c], *shards[c], classes, cfg.trainer, rng.stream(STREAM_TRAIN, t, c), width)
            for c in range(total)
        ]
        pre = np.array([model for model, _ in trained])
        selfish_losses.append(float(np.mean([loss for _, loss in trained[n:]])))

        crafted = None  # receiver -> the (m, d) shares the selfish senders send it
        benign = list(pre[:n])
        if attack.kind == "selfish" and attack_start_of(selfish_losses, attack.epsilon, attack.interval) is not None:
            if defenders.kind == "flame":
                crafted = [craft_flame_of(pre[r], benign, m, FLAME_ALPHA, FLAME_BETA) for r in range(n)]
            else:
                crafted = [scalar_crafting(defenders.kind, pre[r], benign, m, lam, attack.b) for r in range(n)]
        elif attack.kind == "gaussian":
            gens = [rng.stream(STREAM_ATTACK, t, r) for r in range(n)]
            crafted = [gaussian_shares_of(pre.shape[1], m, gens[r], GAUSSIAN_SIGMA) for r in range(n)]
        elif attack.kind == "trim":
            gens = [rng.stream(STREAM_ATTACK, t, r) for r in range(n)]
            crafted = [
                directed_deviation_of(benign, models[r], m, gens[r], TRIM_ATTACK_DELTA_LO, TRIM_ATTACK_DELTA_HI)
                for r in range(n)
            ]

        aggregates = []
        for i in range(total):
            if attack.kind == "independent":
                rule, shares = AggregationRule("fedavg"), [pre[i]]
            elif attack.kind == "two_coalitions":
                rule, shares = AggregationRule("fedavg"), list(pre[:n] if i < n else pre[n:])
            elif i < n:
                rule, shares = defenders, benign + list(crafted[i] if crafted is not None else pre[n:])
            else:
                rule, shares = attackers, list(pre[n:] if attack.info_mode == "selfish_only" else pre)
            aggregates.append(aggregate_of(rule, np.array(shares), pre[i]))
        models = np.array(aggregates)

        correct = [correct_count_of(model, test.features, test.labels, classes) for model in models]
        mtans, mtas = sum(correct[:n]) / (n * test.size), sum(correct[n:]) / (m * test.size)
        records.append(ExperimentRecord(t, mtas, mtans, mtas - mtans, selfish_losses[-1], crafted is not None))
    return records, models
