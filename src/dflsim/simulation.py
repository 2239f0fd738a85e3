"""Datasets, local training, and the decentralized round engine.

A round has three steps: every client trains locally on its own shard,
clients exchange shared models, and every client aggregates what it received
with its own rule.  Selfish clients send their true models to each other and
— once co-training plateaus — crafted models to everyone else.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .aggregation import AggregationRule, aggregate
from .attack import attack_start_round, check_offset, check_plateau, craft_shared_model
from .baselines import craft_directed_deviation, craft_gaussian
from .core import (
    STREAM_ATTACK,
    STREAM_DATA,
    STREAM_PARTITION,
    STREAM_TEST,
    STREAM_TRAIN,
    ConfigError,
    EmptyDataset,
    NumericalDivergence,
    RoleConfig,
    Rng,
)
from .reporting import ExperimentRecord


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus integer labels.

    ``num_classes`` is carried explicitly because a client shard may be
    missing classes entirely.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be 1-D and match the number of rows")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


def _class_means(classes: int, features: int, separation: float, gen: np.random.Generator) -> np.ndarray:
    """Class centres at mutual distance ``separation`` (orthogonal directions
    when the feature space allows, random unit directions otherwise)."""
    if features >= classes:
        q, _ = np.linalg.qr(gen.normal(size=(features, classes)))
        directions = q.T
    else:
        directions = gen.normal(size=(classes, features))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return (separation / np.sqrt(2.0)) * directions


def _sample_blobs(means: np.ndarray, per_class: int, gen: np.random.Generator) -> Dataset:
    classes, features = means.shape
    labels = np.repeat(np.arange(classes), per_class)
    points = means[labels] + gen.normal(size=(labels.size, features))
    perm = gen.permutation(labels.size)
    return Dataset(points[perm], labels[perm], classes)


def generate_synthetic(cfg: SyntheticDataConfig, gen: np.random.Generator, test_gen: np.random.Generator):
    """The (train, test) pair of balanced Gaussian blobs with unit covariance:
    the class centres and the training set from ``gen``, the test set around
    the same centres from ``test_gen``."""
    means = _class_means(cfg.classes, cfg.features, cfg.separation, gen)
    return _sample_blobs(means, cfg.per_class, gen), _sample_blobs(means, cfg.test_per_class, test_gen)


def load_csv(path: str) -> Dataset:
    """Load ``f0,...,fk,label`` rows; labels must be non-negative integers."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # a missing file or a directory: the config names a bad path
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:  # decoded whole, so exc.start is the byte's offset in the file
        raise ConfigError(f"{path}: byte {exc.start} ({exc.object[exc.start]:#04x}) is not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if not header or header[-1].strip() != "label":
        raise ConfigError(f"{path}: expected a header ending in 'label'")
    rows = []
    for row in filter(None, reader):
        if len(row) != len(header):
            raise ConfigError(f"{path}: rows do not match the header width")
        for j, cell in enumerate(row):
            try:
                row[j] = float(cell)
            except ValueError:
                row[j] = None
            if row[j] is None or not math.isfinite(row[j]):  # float() also reads nan and inf
                what = "a number" if row[j] is None else "a finite number"
                raise ConfigError(f"{path}:{reader.line_num}: column {header[j].strip()!r}: {cell!r} is not {what}")
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    labels = data[:, -1]
    if np.any(labels != np.round(labels)) or labels.min() < 0:
        raise ConfigError(f"{path}: labels must be non-negative integers")
    labels = labels.astype(np.int64)
    if labels.max() < 1:
        raise ConfigError(f"{path}: the labels give 1 class, need at least 2")
    return Dataset(data[:, :-1], labels, int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionConfig:
    """Label-skewed partition: an example of label y lands in group y with
    probability ``rho`` and in each other group with ``(1-rho)/(groups-1)``,
    then goes to a uniformly chosen client of that group.

    ``groups=None`` means one group per class; ``rho = 1/groups`` is IID.
    """

    rho: float = 0.7
    groups: int | None = None

    def __post_init__(self) -> None:
        if self.groups is not None and self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")


def _check_partition(groups: int | None, clients: int, rho: float, path: str, what: str) -> None:
    """Reject more partition groups than clients, and a partition.rho
    outside [1/groups, 1], or outside (0, 1] while the group count waits
    on the classes of a csv file (``groups`` None).  ``path`` names the
    config value that set the group count."""
    if groups and groups > clients:
        raise ConfigError(f"{path} = {groups}: cannot spread {groups} {what} over {clients} clients")
    if not ((1.0 / groups <= rho if groups else 0.0 < rho) and rho <= 1.0):  # NaN fails both
        span = f"[1/groups, 1] = [{1.0 / groups:.4f}, 1]" if groups else "(0, 1]"
        raise ConfigError(f"partition.rho = {rho}: must lie in {span}")


def partition_non_iid(
    data: Dataset,
    num_clients: int,
    cfg: PartitionConfig,
    gen: np.random.Generator,
) -> np.ndarray:
    """The (size,) client of each example: every example goes to exactly
    one client, and client c belongs to group c % groups."""
    groups = cfg.groups if cfg.groups is not None else data.num_classes
    path = "partition.groups" if cfg.groups is not None else "the data's class count (partition.groups null)"
    _check_partition(groups, num_clients, cfg.rho, path, "groups")

    own = data.labels % groups
    if groups == 1:
        chosen_group = own
    else:
        u = gen.random(data.size)
        offset = gen.integers(1, groups, size=data.size)
        chosen_group = np.where(u < cfg.rho, own, (own + offset) % groups)

    owner = np.empty(data.size, dtype=np.int64)
    for g in range(groups):  # a draw of size 0 takes nothing from gen, so an empty group needs no guard
        mask = chosen_group == g
        owner[mask] = g + groups * gen.integers(0, len(range(g, num_clients, groups)), size=int(mask.sum()))
    return owner


# ---------------------------------------------------------------------------
# multinomial logistic trainer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainerConfig:
    """Plain mini-batch gradient descent with decoupled weight decay."""

    learning_rate: float = 0.1
    local_epochs: int = 3
    batch_size: int = 32
    weight_decay: float = 5e-4

    def __post_init__(self) -> None:
        for name in ("learning_rate", "weight_decay"):
            if not 0.0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be a finite value >= 0, got {getattr(self, name)}")
        for name in ("local_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def model_dim(num_classes: int, num_features: int) -> int:
    return num_classes * num_features + num_classes


def _rows(models: np.ndarray, num_classes: int) -> np.ndarray:
    """The (N, C, F+1) class rows ``[w_c | b_c]`` of flat (N, d) models, a fresh C-ordered array."""
    cut = models.shape[1] - num_classes  # the C biases come last
    weights = models[:, :cut].reshape(len(models), num_classes, cut // num_classes)
    return np.concatenate([weights, models[:, cut:, None]], axis=2)


def _flat(rows: np.ndarray) -> np.ndarray:
    """The flat (N, d) models of (N, C, F+1) class rows: weights, then biases."""
    return np.concatenate([rows[..., :-1].reshape(len(rows), -1), rows[..., -1]], axis=1)


class TrainingPlan:
    """What local training reads that depends only on the data, its
    ``owner`` client per row and the trainer config, built once per run:
    the rows as ``[x | 1]`` with an all-zero padding row last, each
    client's rows (in data order) broadcast to one row per epoch for its
    draw to permute, the clients grouped by batch count for the loss means,
    and the ``steps`` of an epoch.  Step j holds the active clients (a basic
    slice if all are), its slot columns, the (k,) batch row counts, their
    (k, W) loss mask (None if every batch is full), the (k, W) flat
    offsets of each slot's class log-probabilities and the counts as a
    (k, W, C) divisor of the class probabilities, W the run's batch width."""

    def __init__(self, data: Dataset, owner: np.ndarray, cfg: TrainerConfig):
        self.cfg, self.sizes, self.num_classes = cfg, np.bincount(owner), data.num_classes
        self.features = np.zeros((data.size + 1, data.num_features + 1))
        self.features[:-1, :-1], self.features[:-1, -1] = data.features, 1.0
        self.labels = np.append(data.labels, 0)
        batches = -(-self.sizes // cfg.batch_size)
        width = min(cfg.batch_size, int(self.sizes.max()))  # no batch is wider than the largest shard
        order, ends = np.argsort(owner, kind="stable"), np.cumsum(self.sizes)  # each client's rows, in client order
        self.slot_width = batches.max() * width
        self.client_rows = [np.broadcast_to(order[e - n:e], (cfg.local_epochs, n)) for e, n in zip(ends, self.sizes)]
        self.means = [(np.flatnonzero(batches == n), n) for n in set(batches.tolist())]  # np.unique adds ~1 MB of RSS
        self.steps = []
        for j in range(batches.max()):
            act = slice(None) if batches.min() > j else np.flatnonzero(batches > j)
            counts = np.minimum(self.sizes[act] - j * width, width).astype(np.float64)
            cells = np.arange(counts.size * width).reshape(-1, width)
            valid = None if (counts == width).all() else (cells % width < counts[:, None]).astype(np.float64)
            divisor = np.repeat(counts, width * data.num_classes).reshape(-1, width, data.num_classes)
            self.steps.append((act, slice(j * width, (j + 1) * width), counts, valid, cells * data.num_classes, divisor))


def _step(rows, x, labelled, counts, valid, divisor):
    """Mean softmax cross-entropy and its gradient for k models at once.

    ``rows`` is (k, C, F+1), ``x`` (k, W, F+1) and ``labelled`` the (k, W)
    flat indices of the labels' log-probabilities; batch i is its first
    ``counts[i]`` rows, marked by ``valid[i]`` (``valid`` None when every
    batch is full), and zero rows pad the rest.  ``divisor`` holds the
    counts broadcast to (k, W, C).
    Both products are one stacked matmul, the same BLAS call per slice as
    one padded batch.  A zero row's logits are finite and its products
    exact zeros, so only the loss reads the mask.
    """
    logits = x @ rows.transpose(0, 2, 1)
    shift = np.maximum(logits[..., 0], logits[..., 1])  # the class max by slices (C >= 2): max(axis=2) is per row
    for c in range(2, rows.shape[1]):
        np.maximum(shift, logits[..., c], out=shift)
    logits -= shift[..., None]
    exps = np.exp(logits)
    if rows.shape[1] < 8:  # numpy's pairwise sum adds under 8 terms left to right, as these slices do
        total = exps[..., 0] + exps[..., 1]
        for c in range(2, rows.shape[1]):
            total += exps[..., c]
    else:  # and from 8 on in 8 interleaved partial sums
        total = exps.sum(axis=2)
    log_probs = logits - np.log(total)[..., None]
    picked = log_probs.reshape(-1)[labelled]
    if valid is not None:
        picked *= valid
    losses = -(picked.sum(axis=1) / counts)  # np.mean's sum and division, without its per-call cost
    probs = np.exp(log_probs, out=exps)  # exps is dead: its buffer takes the probabilities
    probs.reshape(-1)[labelled] -= 1.0  # a fresh ufunc result is C-contiguous, so reshape gives a view
    probs /= divisor  # a same-shape divide: a broadcast over the class axis costs ~4x as much
    return losses, probs.transpose(0, 2, 1) @ x


def train_clients(models: np.ndarray, plan: TrainingPlan, gens):
    """Run the local epochs of all clients in lockstep; return (models, mean batch losses).

    Client i trains ``models[i]``, as class rows from entry to exit, on its
    ``plan.sizes[i]`` rows, drawing its permutations for all epochs
    from ``gens[i]`` in one ``permuted`` call.  Step j of an epoch trains
    every client that has a j-th minibatch in one (k, W, F+1) pass, and
    each client ends as it would training alone on batches padded the same way.
    """
    cfg = plan.cfg
    # row of each batch slot; padding slots read the zero row, the last
    slots = np.full((cfg.local_epochs, plan.sizes.size, plan.slot_width), len(plan.labels) - 1)
    for cid, gen in enumerate(gens):
        gen.permuted(plan.client_rows[cid], axis=1, out=slots[:, cid, : plan.sizes[cid]])
    rows, labels = _rows(np.asarray(models, dtype=np.float64), plan.num_classes), plan.labels[slots]
    losses = np.zeros((plan.sizes.size, cfg.local_epochs, len(plan.steps)))
    for epoch in range(cfg.local_epochs):
        for j, (act, cols, counts, valid, cells, divisor) in enumerate(plan.steps):
            batch, own = slots[epoch, act, cols], rows[act]  # act is a slice, and own a view, when all are active
            losses[act, epoch, j], grad = _step(
                own, plan.features.take(batch, axis=0), labels[epoch, act, cols] + cells, counts, valid, divisor
            )
            grad += cfg.weight_decay * own  # in grad's own buffer: the same sum and product, one temporary fewer
            own -= np.multiply(grad, cfg.learning_rate, out=grad)
            if not isinstance(act, slice):  # own is a gathered copy
                rows[act] = own
    means = np.empty(plan.sizes.size)  # a client's row is contiguous: np.mean's pairwise sum and division
    for clients, n in plan.means:
        means[clients] = losses[clients, :, :n].reshape(-1, cfg.local_epochs * n).sum(axis=1) / (cfg.local_epochs * n)
    return _flat(rows), means


def group_accuracy(models, data: Dataset, sizes=None) -> float | list[float]:
    """Mean accuracy of a group on a shared test set: total correct over
    total predictions, so identical models give identical group means
    regardless of group size.  The (U, d) models are scored in one
    class-major pass, (U, C, n) logits from ``data.features.T`` (C-ordered
    for the engine's column-major test set): an example counts when its
    label's class reaches the class maximum and no earlier class does, a
    NaN counting as the maximum, which is ``np.argmax``'s rule.  With
    ``sizes`` the rows are consecutive groups of those sizes, all scored in
    the one pass, and the result is the list of their accuracies."""
    models = np.asarray(models, dtype=np.float64)
    groups = [len(models)] if sizes is None else list(sizes)
    if not all(groups):
        raise ValueError("cannot average accuracy over an empty group")
    if sum(groups) != len(models):
        raise ValueError(f"group sizes {groups} do not add up to the {len(models)} models")
    if data.size == 0:
        raise ValueError("cannot evaluate on an empty set")
    classes, size, cut = data.num_classes, data.size, data.num_classes * data.num_features
    logits = models[:, :cut].reshape(len(models), classes, data.num_features) @ data.features.T
    logits += models[:, cut:, None]
    top = logits.max(axis=1, keepdims=True)
    hit = logits == top
    if np.isnan(top).any():  # max propagates NaN: only a NaN maximum's column holds a NaN logit
        hit |= np.isnan(logits)
    labelled = hit.reshape(len(models), -1).take(data.labels * size + np.arange(size), axis=1)  # hit[:, y, i]
    correct = labelled & ~(hit & (np.arange(classes)[:, None] < data.labels)).any(axis=1)
    ends = accumulate(groups)  # group g scores correct[end - rows:end]
    accuracies = [int(np.count_nonzero(correct[end - rows:end])) / (rows * size) for rows, end in zip(groups, ends)]
    return accuracies if sizes is not None else accuracies[0]


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticDataConfig:
    classes: int = 4
    features: int = 20
    per_class: int = 400
    separation: float = 3.0
    test_per_class: int = 250

    def __post_init__(self) -> None:
        for name, least in (("classes", 2), ("features", 2), ("per_class", 1), ("test_per_class", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (np.isfinite(self.separation) and self.separation >= 0.0):
            raise ValueError(f"separation must be a finite value >= 0, got {self.separation}")


@dataclass(frozen=True)
class CsvDataConfig:
    path: str
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class AttackConfig:
    """Which attack (or degenerate collaboration mode) the selfish clients run.

    :func:`read_plan` resolves the nulls: ``lam=None`` to the per-rule
    default, ``selfish_rule=None`` to the experiment's rule (median when the
    experiment runs the clustering defense, whose tailored crafting assumes it).
    """

    kind: str = "none"
    lam: float | None = None
    b: float = 1.0
    epsilon: float = 0.1
    interval: int = 50
    info_mode: str = "all"
    selfish_rule: AggregationRule | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}, expected one of {ATTACK_KINDS}")
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lambda must be a finite value >= 0, got {self.lam}")  # the JSON key, not the field name
        check_offset(self.b)
        check_plateau(self.epsilon, self.interval)
        if self.info_mode not in ("all", "selfish_only"):
            raise ValueError(f"info_mode must be 'all' or 'selfish_only', got {self.info_mode!r}")
        if self.info_mode == "selfish_only" and self.kind != "selfish":
            raise ValueError(f"attack.info_mode 'selfish_only' needs attack.kind 'selfish', got {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    roles: RoleConfig = field(default_factory=lambda: RoleConfig(n=14, m=6))
    rule: AggregationRule = field(default_factory=lambda: AggregationRule("median"))
    attack: AttackConfig = field(default_factory=AttackConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    data: SyntheticDataConfig | CsvDataConfig = field(default_factory=SyntheticDataConfig)
    rounds: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        Rng(self.seed)  # checks the seed range
        groups, path, what = self.partition.groups, "partition.groups", "groups"
        if groups is None and isinstance(self.data, SyntheticDataConfig):
            groups, path, what = self.data.classes, "data.synthetic.classes", "groups (one per class, partition.groups null)"
        _check_partition(groups, self.roles.total, self.partition.rho, path, what)
        read_plan(self)


# ---------------------------------------------------------------------------
# round engine
# ---------------------------------------------------------------------------

def _craft_selfish(eng: "Engine", t: int, pre_agg: np.ndarray, loss: float) -> np.ndarray | None:
    attack = eng.cfg.attack
    if not (eng.records and eng.records[-1].attack_started):  # a start round, once returned, stays
        if attack_start_round([r.mean_selfish_loss for r in eng.records] + [loss], attack.epsilon, attack.interval) is None:
            return None
    # the receivers are the non-selfish clients, whose models are the benign shares
    benign = pre_agg[: eng.roles.n]
    return craft_shared_model(eng.groups[0][2], benign, benign, eng.roles.m, eng.lam, attack.b)


def _craft_gaussian(eng: "Engine", t: int, pre_agg: np.ndarray, loss: float) -> np.ndarray:
    gens = eng.rng.reset(eng.gens[: eng.roles.n], STREAM_ATTACK, t)  # receiver i draws from gens[i]
    return craft_gaussian(pre_agg.shape[1], eng.roles.m, gens)


def _craft_trim(eng: "Engine", t: int, pre_agg: np.ndarray, loss: float) -> np.ndarray:
    # eng.models still holds every receiver's aggregate of the previous round
    n = eng.roles.n
    gens = eng.rng.reset(eng.gens[:n], STREAM_ATTACK, t)  # receiver i draws from gens[i]
    return craft_directed_deviation(pre_agg[:n], eng.models[:n], eng.roles.m, gens)


# attack kind -> (crafter, from the engine, round, trained models and mean selfish loss, of the
# (n, m, d) shares the selfish senders send to each non-selfish receiver in a round (None while
# nothing is crafted), or None for kinds that exchange true models only; senders, from the
# non-selfish and the selfish ids, of each role of a baseline whose clients all aggregate with
# fedavg (None: each client reads only its own model), or None when everyone reads everyone)
ATTACKS = {
    "none": (None, None),
    "selfish": (_craft_selfish, None),
    "gaussian": (_craft_gaussian, None),
    "trim": (_craft_trim, None),
    "independent": (None, lambda benign, selfish: (None, None)),
    "two_coalitions": (None, lambda benign, selfish: (benign, selfish)),
}
ATTACK_KINDS = tuple(ATTACKS)
DEFAULT_LAMBDA = {"median": 0.5, "trimmed_mean": 1.0}  # the defenders' rule -> lambda when null; 0 for any other
DIVERGENCE_LOSS_FACTOR = 1e6  # a run stops at a mean batch loss above this times ln C, the zero model's loss


def read_plan(cfg: ExperimentConfig) -> tuple[tuple, float]:
    """What a run makes of ``cfg``, its null fields resolved: the receiver
    ``groups``, non-selfish then selfish, each ``(members, senders, rule)``
    (every member aggregates the models of the ``senders`` ids with ``rule``
    every round, or keeps its own model when ``senders`` is None), and the
    attack's lambda.  Raises ValueError, naming the config path, when a rule
    cannot aggregate the models its receivers read, or when the defenders'
    trimmed mean trims other than the m the selfish crafting assumes.
    """
    roles, attack = cfg.roles, cfg.attack
    benign, selfish, everyone = np.arange(roles.n), np.arange(roles.n, roles.total), np.arange(roles.total)
    baseline = ATTACKS[attack.kind][1]
    if baseline is not None:
        senders, rules = baseline(benign, selfish), (AggregationRule("fedavg"),) * 2
    else:
        senders = everyone, selfish if attack.info_mode == "selfish_only" else everyone
        selfish_rule = attack.selfish_rule or (AggregationRule("median") if cfg.rule.kind == "flame" else cfg.rule)
        rules = cfg.rule.resolved(roles.m), selfish_rule.resolved(roles.m)
    groups = tuple(zip((benign, selfish), senders, rules))
    paths = "rule", "rule" if attack.selfish_rule is None else "attack.selfish_rule"
    readers = "each non-selfish client reads", (
        "attack.info_mode 'selfish_only' leaves each selfish client" if attack.info_mode == "selfish_only"
        else "each selfish client reads"
    )
    for (_, reads, rule), path, reader in zip(groups, paths, readers):
        count = 1 if reads is None else reads.size
        fault = f"{reader} N = {count} models, but"
        if rule.kind == "trimmed_mean" and count <= 2 * rule.trim:
            raise ValueError(f"{path}.trim = {rule.trim}: {fault} trimmed_mean needs N > 2 * trim")
        if rule.kind == "krum" and count < rule.assumed_attackers + 3:
            raise ValueError(f"{path}.assumed_attackers = {rule.assumed_attackers}: {fault} krum needs N >= f + 3")
        if rule.kind == "fltrust" and cfg.trainer.learning_rate == 0.0:
            raise ValueError("trainer.learning_rate 0 keeps every model at zero, and fltrust needs a nonzero own model")
    trim, m = rules[0].trim, roles.m  # rules[0] is the defenders' rule, which the selfish crafting reads
    if attack.kind == "selfish" and rules[0].kind == "trimmed_mean" and trim != m:
        raise ValueError(f"rule.trim = {trim}: the selfish attack crafts for a trim of m = {m}, so set {m} or null")
    return groups, DEFAULT_LAMBDA.get(cfg.rule.kind, 0.0) if attack.lam is None else attack.lam


class Engine:
    """Drives one experiment round by round.

    Only the (N, d) client ``models`` and the ``records`` carry over from
    round to round; the round number and the attack start derive from the
    records.  Who reads whom is fixed for the whole run by the two
    ``groups`` of ``read_plan``, and each group aggregates in one call a
    round.  The shares crafted for a non-selfish receiver replace the
    selfish senders' models in what it reads.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.roles = roles = cfg.roles
        self.rng = Rng(cfg.seed)
        self.train_set, test = self._build_datasets()
        self.test_set = replace(test, features=np.asfortranarray(test.features))  # group_accuracy reads a C-ordered .T
        owner = partition_non_iid(self.train_set, roles.total, cfg.partition, self.rng.stream(STREAM_PARTITION))
        sizes = np.bincount(owner, minlength=roles.total)
        if not sizes.all():
            raise EmptyDataset(f"client {sizes.argmin()} has an empty shard: the partition gave it no examples")
        self.plan = TrainingPlan(self.train_set, owner, cfg.trainer)
        self.ceiling = DIVERGENCE_LOSS_FACTOR * np.log(self.plan.num_classes)
        self.models = np.zeros((roles.total, model_dim(self.train_set.num_classes, self.train_set.num_features)))
        # one generator per client, re-keyed by Rng.reset to each (tag, round, client)
        # stream: a round's training draws all end before its crafting draws start
        self.gens = [np.random.Generator(np.random.Philox(0)) for _ in range(roles.total)]
        self.crafter = ATTACKS[cfg.attack.kind][0]
        self.groups, self.lam = read_plan(cfg)
        self.records: list[ExperimentRecord] = []

    def _build_datasets(self) -> tuple[Dataset, Dataset]:
        data = self.cfg.data
        if isinstance(data, SyntheticDataConfig):
            return generate_synthetic(data, self.rng.stream(STREAM_DATA), self.rng.stream(STREAM_TEST))
        full = load_csv(data.path)
        perm = self.rng.stream(STREAM_TEST).permutation(full.size)
        cut = max(1, int(round(data.test_fraction * full.size)))
        if cut >= full.size:
            raise ConfigError(
                f"data.csv.test_fraction = {data.test_fraction}: a test set of {cut} of {full.size} rows leaves no training data"
            )
        return full.subset(perm[cut:]), full.subset(perm[:cut])

    def run_round(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Advance one round and append its record.

        Returns the (N, d) models after local training and the (n, m, d)
        crafted shares, or None when nothing was crafted this round.
        """
        t = len(self.records) + 1
        roles = self.roles

        # --- step I: local training -------------------------------------
        gens = self.rng.reset(self.gens, STREAM_TRAIN, t)
        pre_agg, losses = train_clients(self.models, self.plan, gens)
        sound = np.isfinite(pre_agg).all(axis=1) & (losses <= self.ceiling)  # False for a NaN loss too
        if not sound.all():
            cid = int(np.argmin(sound))
            raise NumericalDivergence(
                f"round {t}: local training of client {cid} diverged "
                f"(loss {losses[cid]}, ceiling {self.ceiling:.4g}: a loss above it, or a non-finite loss or model)"
            )
        mean_selfish_loss = float(losses[roles.n:].sum() / roles.m)  # np.mean's sum and division

        # --- step II: crafting ---------------------------------------------
        crafted = self.crafter(self, t, pre_agg, mean_selfish_loss) if self.crafter is not None else None

        # --- step III: aggregation, one call per group, one evaluation -------
        scored = []  # each group's distinct aggregates: its members' (R, d) stack or their one shared (d,) model
        for members, senders, rule in self.groups:
            if senders is None:  # each member keeps its own model: a (R, 1, d) stack
                shares = pre_agg[members][:, None]
            elif crafted is not None and members[0] < roles.n:
                # assigned: np.stack of broadcasts can lay out in Fortran order
                shares = np.empty((members.size, senders.size, pre_agg.shape[1]))
                shares[:] = pre_agg[senders]
                shares[:, roles.n:] = crafted  # the members are receivers 0 .. n-1, crafted's rows
            else:
                shares = pre_agg if senders.size == len(pre_agg) else pre_agg[senders]  # every client, in order
                if rule.kind == "fltrust":  # each member anchors at its own model
                    shares = np.broadcast_to(shares, (members.size, *shares.shape))
            self.models[members] = out = aggregate(rule, shares, receiver_pre_agg=pre_agg[members])
            scored.append(out.reshape(-1, out.shape[-1]))
        # both groups in one pass, a shared aggregate once: c / size is rows * c / (rows * size)
        mtans, mtas = group_accuracy(np.concatenate(scored), self.test_set, sizes=[len(out) for out in scored])
        self.records.append(
            ExperimentRecord(
                round=t,
                mtas=mtas,
                mtans=mtans,
                gap=mtas - mtans,
                mean_selfish_loss=mean_selfish_loss,
                attack_started=crafted is not None,
            )
        )
        return pre_agg, crafted

    def run(self) -> list[ExperimentRecord]:
        for _ in range(self.cfg.rounds):
            self.run_round()
        return self.records


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Run a full experiment and return one record per round."""
    return Engine(cfg).run()
