"""Datasets, local training, and the decentralized round engine.

A round has three steps: every client trains locally on its own shard,
clients exchange shared models, and every client aggregates what it received
with its own rule.  Selfish clients send their true models to each other and
— once their plateau detector fires — crafted models to everyone else.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .aggregation import AggregationRule, aggregate
from .attack import AttackStartDetector, craft_shared_model, default_lambda
from .baselines import (
    GAUSSIAN_SIGMA,
    TRIM_ATTACK_DELTA_HI,
    TRIM_ATTACK_DELTA_LO,
    craft_directed_deviation,
    craft_gaussian,
    visible_senders,
)
from .core import (
    STREAM_ATTACK,
    STREAM_DATA,
    STREAM_PARTITION,
    STREAM_TEST,
    STREAM_TRAIN,
    ConfigError,
    EmptyDataset,
    EmptyGroup,
    EmptyTestSet,
    NumericalDivergence,
    RoleConfig,
    Rng,
    RoundExchange,
)
from .reporting import ExperimentRecord

ATTACK_KINDS = ("none", "selfish", "gaussian", "trim", "independent", "two_coalitions")


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


def generate_synthetic(
    classes: int,
    features: int,
    per_class: int,
    separation: float,
    gen: np.random.Generator,
) -> Dataset:
    """Balanced Gaussian blobs with unit covariance."""
    if classes < 2 or features < 2 or per_class < 1:
        raise ValueError("need classes >= 2, features >= 2 and per_class >= 1")
    if separation < 0.0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    return _sample_blobs(_class_means(classes, features, separation, gen), per_class, gen)


def load_csv(path: str) -> Dataset:
    """Load ``f0,...,fk,label`` rows; labels must be non-negative integers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1].strip() != "label":
            raise ConfigError(f"{path}: expected a header ending in 'label'")
        rows = [[float(cell) for cell in row] for row in reader if row]
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: rows do not match the header width")
    labels = data[:, -1]
    if np.any(labels != np.round(labels)) or labels.min() < 0:
        raise ConfigError(f"{path}: labels must be non-negative integers")
    labels = labels.astype(np.int64)
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


def partition_non_iid(
    data: Dataset,
    num_clients: int,
    cfg: PartitionConfig,
    gen: np.random.Generator,
) -> list[Dataset]:
    """Deal every example to exactly one client, round-robin groups of clients."""
    groups = cfg.groups if cfg.groups is not None else data.num_classes
    if groups > num_clients:
        raise ValueError(f"cannot spread {groups} groups over {num_clients} clients")
    if not (1.0 / groups <= cfg.rho <= 1.0):
        raise ValueError(f"rho must lie in [1/groups, 1] = [{1.0/groups:.4f}, 1], got {cfg.rho}")

    members = [np.array([c for c in range(num_clients) if c % groups == g]) for g in range(groups)]
    own = data.labels % groups
    if groups == 1:
        chosen_group = own
    else:
        u = gen.random(data.size)
        offset = gen.integers(1, groups, size=data.size)
        chosen_group = np.where(u < cfg.rho, own, (own + offset) % groups)

    assignment = np.empty(data.size, dtype=np.int64)
    for g in range(groups):
        mask = chosen_group == g
        count = int(mask.sum())
        if count:
            assignment[mask] = members[g][gen.integers(0, members[g].size, size=count)]
    return [data.subset(np.flatnonzero(assignment == c)) for c in range(num_clients)]


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
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


def model_dim(num_classes: int, num_features: int) -> int:
    return num_classes * num_features + num_classes


def _unpack(model: np.ndarray, num_classes: int, num_features: int):
    weights = model[: num_classes * num_features].reshape(num_classes, num_features)
    bias = model[num_classes * num_features:]
    return weights, bias


def loss_and_grad(model: np.ndarray, x: np.ndarray, y: np.ndarray, num_classes: int):
    """Mean softmax cross-entropy and its gradient w.r.t. the flat model."""
    weights, bias = _unpack(model, num_classes, x.shape[1])
    logits = x @ weights.T + bias                      # (B, C)
    logits = logits - logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    batch = x.shape[0]
    loss = -float(log_probs[np.arange(batch), y].mean())
    probs = np.exp(log_probs)
    probs[np.arange(batch), y] -= 1.0
    probs /= batch
    grad_w = probs.T @ x
    grad_b = probs.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def local_update(
    model: np.ndarray,
    data: Dataset,
    cfg: TrainerConfig,
    gen: np.random.Generator,
):
    """Run the local epochs and return (updated model, mean batch loss)."""
    if data.size == 0:
        raise EmptyDataset("cannot train on an empty shard")
    model = np.asarray(model, dtype=np.float64).copy()
    losses = []
    for _ in range(cfg.local_epochs):
        order = gen.permutation(data.size)
        for start in range(0, data.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grad = loss_and_grad(model, data.features[batch], data.labels[batch], data.num_classes)
            losses.append(loss)
            model -= cfg.learning_rate * (grad + cfg.weight_decay * model)
    return model, float(np.mean(losses))


def predict(model: np.ndarray, x: np.ndarray, num_classes: int) -> np.ndarray:
    weights, bias = _unpack(model, num_classes, x.shape[1])
    return np.argmax(x @ weights.T + bias, axis=1)


def correct_count(model: np.ndarray, data: Dataset) -> int:
    if data.size == 0:
        raise EmptyTestSet("cannot evaluate on an empty set")
    return int(np.sum(predict(model, data.features, data.num_classes) == data.labels))


def accuracy(model: np.ndarray, data: Dataset) -> float:
    return correct_count(model, data) / data.size


def group_accuracy(models, data: Dataset) -> float:
    """Mean accuracy of a group on a shared test set.

    Computed as total correct over total predictions, so identical models
    give identical group means regardless of group size.
    """
    models = list(models)
    if not models:
        raise EmptyGroup("cannot average accuracy over an empty group")
    return sum(correct_count(model, data) for model in models) / (len(models) * data.size)


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
        if self.test_per_class < 1:
            raise ValueError(f"test_per_class must be >= 1, got {self.test_per_class}")


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

    ``lam=None`` resolves to the per-rule default; ``selfish_rule=None``
    resolves to the experiment's rule (median when the experiment runs the
    clustering defense, whose tailored crafting assumes it).
    """

    kind: str = "none"
    lam: float | None = None
    b: float = 1.0
    epsilon: float = 0.1
    interval: int = 50
    info_mode: str = "all"
    selfish_rule: AggregationRule | None = None
    sigma: float = GAUSSIAN_SIGMA
    delta_lo: float = TRIM_ATTACK_DELTA_LO
    delta_hi: float = TRIM_ATTACK_DELTA_HI

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}, expected one of {ATTACK_KINDS}")
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be a finite value >= 0, got {self.lam}")
        if not (np.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be a finite value > 0, got {self.b}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.info_mode not in ("all", "selfish_only"):
            raise ValueError(f"info_mode must be 'all' or 'selfish_only', got {self.info_mode!r}")


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
        if self.attack.kind == "selfish" and self.attack.info_mode == "selfish_only":
            self._check_selfish_only()

    def _check_selfish_only(self) -> None:
        """The selfish clients aggregate only the m coalition shares; reject
        a selfish rule that cannot aggregate that few models."""
        rule = self.resolved_selfish_rule()
        m = self.roles.m
        if rule.kind == "trimmed_mean" and m <= 2 * rule.trim:
            raise ValueError(
                f"attack.info_mode 'selfish_only' leaves the selfish clients m = {m} shares, "
                f"but trimmed_mean with trim {rule.trim} needs more than 2 * trim = {2 * rule.trim}"
            )
        if rule.kind == "krum" and m < rule.assumed_attackers + 3:
            raise ValueError(
                f"attack.info_mode 'selfish_only' leaves the selfish clients m = {m} shares, "
                f"but krum with f = {rule.assumed_attackers} needs at least f + 3 = {rule.assumed_attackers + 3}"
            )

    def resolved_lambda(self) -> float:
        if self.attack.lam is not None:
            return self.attack.lam
        return default_lambda(self.rule.kind)

    def resolved_selfish_rule(self) -> AggregationRule:
        if self.attack.selfish_rule is not None:
            return self.attack.selfish_rule.resolved(self.roles.m)
        if self.rule.kind == "flame":
            return AggregationRule("median")
        return self.rule.resolved(self.roles.m)


# ---------------------------------------------------------------------------
# round engine
# ---------------------------------------------------------------------------

@dataclass
class ClientState:
    cid: int
    selfish: bool
    model: np.ndarray
    data: Dataset
    loss_history: list[float] = field(default_factory=list)


class Engine:
    """Drives one experiment round by round."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.roles = cfg.roles
        self.rng = Rng(cfg.seed)
        self.train_set, self.test_set = self._build_datasets()
        shards = partition_non_iid(
            self.train_set, self.roles.total, cfg.partition, self.rng.stream(STREAM_PARTITION)
        )
        dim = model_dim(self.train_set.num_classes, self.train_set.num_features)
        self.clients = [
            ClientState(cid, self.roles.is_selfish(cid), np.zeros(dim), shards[cid])
            for cid in range(self.roles.total)
        ]
        self.rule = cfg.rule.resolved(self.roles.m)
        self.selfish_rule = cfg.resolved_selfish_rule()
        self.lam = cfg.resolved_lambda()
        self.detector: AttackStartDetector | None = (
            AttackStartDetector(cfg.attack.epsilon, cfg.attack.interval)
            if cfg.attack.kind == "selfish"
            else None
        )
        self.round = 0
        self.records: list[ExperimentRecord] = []

    def _build_datasets(self) -> tuple[Dataset, Dataset]:
        data = self.cfg.data
        if isinstance(data, SyntheticDataConfig):
            gen = self.rng.stream(STREAM_DATA)
            means = _class_means(data.classes, data.features, data.separation, gen)
            train = _sample_blobs(means, data.per_class, gen)
            test = _sample_blobs(means, data.test_per_class, self.rng.stream(STREAM_TEST))
            return train, test
        full = load_csv(data.path)
        perm = self.rng.stream(STREAM_TEST).permutation(full.size)
        cut = max(1, int(round(data.test_fraction * full.size)))
        if cut >= full.size:
            raise ConfigError("test_fraction leaves no training data")
        return full.subset(perm[cut:]), full.subset(perm[:cut])

    @property
    def attack_started(self) -> bool:
        kind = self.cfg.attack.kind
        if kind == "selfish":
            return self.detector.started
        return kind in ("gaussian", "trim")

    def run_round(self) -> RoundExchange:
        """Advance one round and append its record."""
        self.round += 1
        t = self.round
        cfg = self.cfg
        roles = self.roles
        prev_models = {c.cid: c.model for c in self.clients}

        # --- step I: local training -------------------------------------
        pre_agg: dict[int, np.ndarray] = {}
        losses: dict[int, float] = {}
        for client in self.clients:
            gen = self.rng.stream(STREAM_TRAIN, t, client.cid)
            model, loss = local_update(client.model, client.data, cfg.trainer, gen)
            pre_agg[client.cid] = model
            losses[client.cid] = loss
            client.loss_history.append(loss)
        models = np.stack([pre_agg[cid] for cid in range(roles.total)])
        finite = np.isfinite(models).all(axis=1) & np.isfinite([losses[cid] for cid in range(roles.total)])
        if not finite.all():
            cid = int(np.argmin(finite))
            raise NumericalDivergence(
                f"round {t}: local training of client {cid} diverged (loss {losses[cid]}, non-finite loss or model)"
            )
        mean_selfish_loss = float(np.mean([losses[i] for i in roles.selfish_ids]))
        if self.detector is not None:
            self.detector = self.detector.update(mean_selfish_loss, t)

        # --- step II: exchange -------------------------------------------
        shared: dict[tuple[int, int], np.ndarray] = {}
        for receiver in range(roles.total):
            for sender in range(roles.total):
                shared[(sender, receiver)] = pre_agg[sender]
        benign = models[: roles.n]

        kind = cfg.attack.kind
        if kind == "selfish" and self.detector.started:
            # the receivers are the non-selfish clients, whose models are the benign shares
            crafted = craft_shared_model(self.rule, benign, benign, roles.m, self.lam, cfg.attack.b)
            for receiver, shares in zip(roles.non_selfish_ids, crafted):
                for k, sender in enumerate(roles.selfish_ids):
                    shared[(sender, receiver)] = shares[k]
        elif kind == "gaussian":
            for receiver in roles.non_selfish_ids:
                gen = self.rng.stream(STREAM_ATTACK, t, receiver)
                crafted = craft_gaussian(len(pre_agg[receiver]), roles.m, gen, cfg.attack.sigma)
                for k, sender in enumerate(roles.selfish_ids):
                    shared[(sender, receiver)] = crafted[k]
        elif kind == "trim":
            for receiver in roles.non_selfish_ids:
                gen = self.rng.stream(STREAM_ATTACK, t, receiver)
                crafted = craft_directed_deviation(
                    benign, prev_models[receiver], roles.m, gen, cfg.attack.delta_lo, cfg.attack.delta_hi
                )
                for k, sender in enumerate(roles.selfish_ids):
                    shared[(sender, receiver)] = crafted[k]
        exchange = RoundExchange(shared=shared, pre_agg=pre_agg)

        # --- step III: aggregation ----------------------------------------
        mode = kind if kind in ("independent", "two_coalitions") else "collaborative"
        for client in self.clients:
            if mode == "independent":
                client.model = pre_agg[client.cid]
                continue
            if mode == "two_coalitions":
                senders = visible_senders(mode, client.cid, roles)
                rule = AggregationRule("fedavg")
            elif client.selfish:
                senders = (
                    list(roles.selfish_ids)
                    if kind == "selfish" and cfg.attack.info_mode == "selfish_only"
                    else list(range(roles.total))
                )
                rule = self.selfish_rule
            else:
                senders = list(range(roles.total))
                rule = self.rule
            shares = exchange.shares_for(client.cid, senders)
            client.model = aggregate(rule, shares, receiver_pre_agg=pre_agg[client.cid])

        # --- metrics --------------------------------------------------------
        mtas = group_accuracy([self.clients[i].model for i in roles.selfish_ids], self.test_set)
        mtans = group_accuracy([self.clients[i].model for i in roles.non_selfish_ids], self.test_set)
        self.records.append(
            ExperimentRecord(
                round=t,
                mtas=mtas,
                mtans=mtans,
                gap=mtas - mtans,
                mean_selfish_loss=mean_selfish_loss,
                attack_started=self.attack_started,
            )
        )
        return exchange

    def run(self) -> list[ExperimentRecord]:
        for _ in range(self.cfg.rounds):
            self.run_round()
        return self.records


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Run a full experiment and return one record per round."""
    return Engine(cfg).run()
