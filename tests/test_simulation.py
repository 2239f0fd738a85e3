import collections
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dflsim import simulation
from dflsim.aggregation import AggregationRule, agg_fedavg, agg_median
from dflsim.core import ConfigError, EmptyDataset, EmptyTestSet, NumericalDivergence, RoleConfig, Rng
from dflsim.simulation import (
    AttackConfig,
    CsvDataConfig,
    Dataset,
    Engine,
    ExperimentConfig,
    PartitionConfig,
    SyntheticDataConfig,
    TrainerConfig,
    accuracy,
    correct_count,
    generate_synthetic,
    group_accuracy,
    load_csv,
    local_update,
    loss_and_grad,
    model_dim,
    partition_non_iid,
    run_experiment,
    train_clients,
)

from oracles import finite_difference_gradient, local_update_of, loss_and_grad_of


def small_config(**overrides):
    base = dict(
        roles=RoleConfig(n=3, m=1),
        rule=AggregationRule("median"),
        attack=AttackConfig(kind="none"),
        trainer=TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=16),
        partition=PartitionConfig(rho=0.5, groups=2),
        data=SyntheticDataConfig(classes=2, features=4, per_class=60, separation=3.0, test_per_class=40),
        rounds=3,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_dataset_validation():
    Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), num_classes=2)


def test_generate_synthetic_shapes_and_balance():
    data = generate_synthetic(4, 20, 50, 3.0, Rng(0).stream(0))
    assert data.features.shape == (200, 20)
    assert data.num_classes == 4
    counts = np.bincount(data.labels, minlength=4)
    assert counts.tolist() == [50, 50, 50, 50]


def test_generate_synthetic_separation_controls_difficulty():
    gen = Rng(1).stream(0)
    easy = generate_synthetic(3, 10, 200, 10.0, gen)
    hard = generate_synthetic(3, 10, 200, 0.0, Rng(1).stream(1))

    def fit(data, steps=300):
        model = np.zeros(model_dim(data.num_classes, data.num_features))
        for _ in range(steps):
            _, grad = loss_and_grad(model, data.features, data.labels, data.num_classes)
            model -= 0.5 * grad
        return model

    assert accuracy(fit(easy), easy) > 0.99
    assert accuracy(fit(hard), hard) < 0.45  # no signal at zero separation


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    data = load_csv(str(path))
    assert data.features.shape == (3, 2)
    assert data.labels.tolist() == [0, 1, 1]
    assert data.num_classes == 2


def test_load_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,target\n1,2,0\n")
    with pytest.raises(ConfigError):
        load_csv(str(path))


def test_load_csv_rejects_fractional_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0.5\n")
    with pytest.raises(ConfigError):
        load_csv(str(path))


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _toy_data(per_class=300, classes=4):
    labels = np.repeat(np.arange(classes), per_class)
    features = labels[:, None].astype(np.float64)
    return Dataset(features, labels, classes)


def test_partition_preserves_every_example():
    data = _toy_data()
    shards = partition_non_iid(data, 8, PartitionConfig(rho=0.7, groups=4), Rng(0).stream(1))
    assert sum(s.size for s in shards) == data.size
    merged = np.sort(np.concatenate([s.features[:, 0] for s in shards]))
    assert np.array_equal(merged, np.sort(data.features[:, 0]))


def test_partition_rho_one_is_pure_label_skew():
    data = _toy_data()
    shards = partition_non_iid(data, 8, PartitionConfig(rho=1.0, groups=4), Rng(1).stream(1))
    for cid, shard in enumerate(shards):
        assert np.all(shard.labels % 4 == cid % 4)


def test_partition_uniform_rho_is_balanced():
    data = _toy_data(per_class=2500)
    shards = partition_non_iid(data, 4, PartitionConfig(rho=0.25, groups=4), Rng(2).stream(1))
    for shard in shards:
        counts = np.bincount(shard.labels, minlength=4) / shard.size
        assert np.all(np.abs(counts - 0.25) < 0.05)


def test_partition_skew_matches_rho():
    data = _toy_data(per_class=4000)
    shards = partition_non_iid(data, 4, PartitionConfig(rho=0.7, groups=4), Rng(3).stream(1))
    own = [np.mean(s.labels == cid) for cid, s in enumerate(shards)]
    assert np.all(np.abs(np.asarray(own) - 0.7) < 0.04)


def test_partition_validates_rho_range():
    data = _toy_data()
    with pytest.raises(ValueError):
        partition_non_iid(data, 8, PartitionConfig(rho=0.1, groups=4), Rng(0).stream(1))
    with pytest.raises(ValueError):
        partition_non_iid(data, 8, PartitionConfig(rho=1.2, groups=4), Rng(0).stream(1))


def test_partition_needs_enough_clients():
    with pytest.raises(ValueError):
        partition_non_iid(_toy_data(), 2, PartitionConfig(rho=0.5, groups=4), Rng(0).stream(1))


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

def test_gradient_matches_finite_differences():
    gen = np.random.default_rng(17)
    classes, features, batch = 3, 5, 8
    for _ in range(20):
        model = gen.normal(size=model_dim(classes, features))
        x = gen.normal(size=(batch, features))
        y = gen.integers(0, classes, size=batch)
        _, analytic = loss_and_grad(model, x, y, classes)
        numeric = finite_difference_gradient(lambda v: loss_and_grad(v, x, y, classes)[0], model)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_local_update_zero_learning_rate_is_identity():
    data = generate_synthetic(2, 4, 30, 2.0, Rng(5).stream(0))
    model = np.ones(model_dim(2, 4))
    cfg = TrainerConfig(learning_rate=0.0, local_epochs=2, batch_size=64, weight_decay=0.0)
    updated, mean_loss = local_update(model, data, cfg, Rng(5).stream(1))
    assert np.array_equal(updated, model)
    initial_loss, _ = loss_and_grad(model, data.features, data.labels, 2)
    assert np.isclose(mean_loss, initial_loss)


def test_local_update_decreases_loss_on_separable_data():
    data = generate_synthetic(2, 4, 100, 5.0, Rng(6).stream(0))
    model = np.zeros(model_dim(2, 4))
    cfg = TrainerConfig(learning_rate=0.2, local_epochs=5, batch_size=200, weight_decay=0.0)
    updated, _ = local_update(model, data, cfg, Rng(6).stream(1))
    before, _ = loss_and_grad(model, data.features, data.labels, 2)
    after, _ = loss_and_grad(updated, data.features, data.labels, 2)
    assert after < before


def test_local_update_applies_weight_decay():
    data = generate_synthetic(2, 4, 30, 2.0, Rng(7).stream(0))
    model = np.full(model_dim(2, 4), 10.0)
    no_decay = TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=64, weight_decay=0.0)
    decay = TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=64, weight_decay=0.1)
    plain, _ = local_update(model, data, no_decay, Rng(7).stream(1))
    decayed, _ = local_update(model, data, decay, Rng(7).stream(1))
    assert np.linalg.norm(decayed) < np.linalg.norm(plain)


def test_local_update_empty_shard():
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(EmptyDataset):
        local_update(np.zeros(model_dim(2, 4)), empty, TrainerConfig(), Rng(0).stream(0))


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([1, 2, 3, 5, 31, 32, 33, 64, 70]) | st.integers(1, 90), min_size=1, max_size=5),
    batch_size=st.sampled_from([1, 2, 3, 7, 32, 64, 300]) | st.integers(1, 40),
    epochs=st.integers(1, 3),
    classes=st.integers(2, 10),
    features=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[70, 45, 33, 32], batch_size=32, epochs=2, classes=4, features=50, seed=0)  # last batches 6, 13, 1, 32
@example(sizes=[64, 64, 31], batch_size=7, epochs=1, classes=7, features=1, seed=24)  # gemv backward at F = 1
@example(sizes=[99, 101], batch_size=32, epochs=1, classes=4, features=5, seed=3)  # step 4: every client short (3, 5)
@example(sizes=[33, 64], batch_size=32, epochs=2, classes=4, features=6, seed=5)  # 1-row short batch: gemv forward
def test_lockstep_trainer_matches_per_client_loop(sizes, batch_size, epochs, classes, features, seed):
    gen = np.random.default_rng(seed)
    cfg = TrainerConfig(learning_rate=0.3, local_epochs=epochs, batch_size=batch_size, weight_decay=0.01)
    shards = [
        Dataset(gen.normal(size=(size, features)), gen.integers(0, classes, size=size), classes) for size in sizes
    ]
    models = gen.normal(size=(len(sizes), model_dim(classes, features)))
    pool = Dataset(np.concatenate([s.features for s in shards]), np.concatenate([s.labels for s in shards]), classes)
    trained, losses = train_clients(
        models, pool, sizes, cfg, [np.random.default_rng([seed, cid]) for cid in range(len(sizes))]
    )
    for cid, shard in enumerate(shards):
        model, loss = local_update_of(
            models[cid], shard.features, shard.labels, classes, cfg, np.random.default_rng([seed, cid])
        )
        assert trained[cid].tobytes() == model.tobytes()
        assert losses[cid].tobytes() == np.float64(loss).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_padding_never_reaches_a_result():
    # padding slots read pool row 0, client 0's first row, whose logits overflow
    gen = np.random.default_rng(11)
    sizes, classes, features = [40, 37], 4, 5
    x = gen.normal(size=(sum(sizes), features))
    x[0] = 1.7e308
    y = gen.integers(0, classes, size=sum(sizes))
    cfg = TrainerConfig(learning_rate=0.3, local_epochs=1, batch_size=32, weight_decay=0.01)
    models = np.abs(gen.normal(size=(2, model_dim(classes, features))))  # positive weights: every padding logit is inf
    trained, losses = train_clients(
        models, Dataset(x, y, classes), sizes, cfg, [np.random.default_rng([11, cid]) for cid in range(2)]
    )
    model, loss = local_update_of(models[1], x[40:], y[40:], classes, cfg, np.random.default_rng([11, 1]))
    assert np.isfinite(model).all()
    assert trained[1].tobytes() == model.tobytes()
    assert losses[1].tobytes() == np.float64(loss).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_class_slice_max_matches_a_row_max_on_special_values():
    # with x = 1 and a zero bias each 4-tuple is one row of logits (the product turns -0.0 into +0.0)
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]
    x, y = np.ones((1, 1)), np.array([2])
    for weights in itertools.product(specials, repeat=4):
        model = np.array([*weights, 0.0, 0.0, 0.0, 0.0])
        loss, grad = loss_and_grad(model, x, y, 4)
        want_loss, want_grad = loss_and_grad_of(model, x, y, 4)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes(), weights
        assert grad.tobytes() == want_grad.tobytes(), weights


def test_accuracy_empty_test_set():
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(EmptyTestSet):
        accuracy(np.zeros(model_dim(2, 4)), empty)


def test_group_accuracy_split():
    roles = RoleConfig(n=3, m=1)
    data = generate_synthetic(2, 3, 50, 8.0, Rng(0).stream(0))
    good = np.zeros(model_dim(2, 3))
    for _ in range(200):
        _, grad = loss_and_grad(good, data.features, data.labels, 2)
        good -= 0.5 * grad
    bad = -good
    models = [good, good, good, bad]  # the selfish client holds the bad model
    mtas = group_accuracy([models[i] for i in roles.selfish_ids], data)
    mtans = group_accuracy([models[i] for i in roles.non_selfish_ids], data)
    assert mtans > 0.95
    assert mtas < 0.2


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

def test_no_attack_reaches_exact_consensus():
    for kind in ("fedavg", "median", "trimmed_mean"):
        eng = Engine(small_config(rule=AggregationRule(kind), roles=RoleConfig(n=6, m=2)))
        for _ in range(3):
            eng.run_round()
            reference = eng.models[0]
            for model in eng.models[1:]:
                assert np.array_equal(model, reference)
        assert eng.records[-1].gap == 0.0


def test_selfish_shares_honest_among_coalition_crafted_to_others():
    eng = Engine(small_config(
        roles=RoleConfig(n=6, m=2),
        attack=AttackConfig(kind="selfish", lam=0.5),
    ))
    eng.detector = dataclasses.replace(eng.detector, started=True)
    pre_agg, crafted = eng.run_round()
    roles = eng.roles
    assert crafted.shape == (roles.n, roles.m, pre_agg.shape[1])
    for receiver in roles.non_selfish_ids:
        for k, sender in enumerate(roles.selfish_ids):
            assert not np.array_equal(crafted[receiver, k], pre_agg[sender])
        # true models from the benign senders, crafted shares from the selfish ones
        shares = np.concatenate([pre_agg[: roles.n], crafted[receiver]])
        assert np.array_equal(eng.models[receiver], agg_median(shares))
    for receiver in roles.selfish_ids:  # the coalition reads every true model
        assert np.array_equal(eng.models[receiver], agg_median(pre_agg))


def test_selfish_attack_steers_receiver_to_per_coordinate_optimum():
    eng = Engine(small_config(
        roles=RoleConfig(n=6, m=2),
        attack=AttackConfig(kind="selfish", lam=0.5),
    ))
    eng.detector = dataclasses.replace(eng.detector, started=True)
    pre_agg, _ = eng.run_round()
    roles = eng.roles
    benign = pre_agg[: roles.n]
    benign_agg = np.median(benign, axis=0)
    receiver = roles.non_selfish_ids[0]
    post = eng.models[receiver]
    from dflsim.attack import median_bounds, solve_optimal_coordinate

    for k in range(post.size):
        q = np.sort(benign[:, k])[::-1]
        bounds = median_bounds(q, roles.m)
        target = solve_optimal_coordinate(
            pre_agg[receiver, k], benign_agg[k], bounds, 0.5
        )
        assert np.isclose(post[k], target, rtol=1e-9, atol=1e-12)


def test_attack_waits_for_detector():
    eng = Engine(small_config(attack=AttackConfig(kind="selfish", lam=0.5)))
    pre_agg, crafted = eng.run_round()
    assert not eng.records[-1].attack_started
    assert crafted is None  # nothing crafted before the plateau
    for model in eng.models:  # every client read every true model
        assert np.array_equal(model, agg_median(pre_agg))


def test_selfish_only_info_mode():
    eng = Engine(small_config(
        roles=RoleConfig(n=6, m=2),
        rule=AggregationRule("fedavg"),
        attack=AttackConfig(kind="selfish", lam=0.0, info_mode="selfish_only"),
    ))
    pre_agg, _ = eng.run_round()
    roles = eng.roles
    for cid in roles.selfish_ids:
        expected = agg_fedavg(pre_agg[roles.n:])
        assert np.allclose(eng.models[cid], expected)


@pytest.mark.parametrize("kind", ["trimmed_mean", "krum"])
def test_selfish_only_rejects_rule_that_cannot_aggregate_coalition(kind):
    roles = RoleConfig(n=9, m=3)
    with pytest.raises(ValueError, match=r"attack\.info_mode"):
        small_config(roles=roles, rule=AggregationRule(kind), attack=AttackConfig(kind="selfish", info_mode="selfish_only"))
    # a trim or f small enough for the m coalition shares is accepted
    small_config(
        roles=roles,
        attack=AttackConfig(kind="selfish", info_mode="selfish_only", selfish_rule=AggregationRule(kind, 1, 0)),
    )


@pytest.mark.parametrize("kind, param", [("trimmed_mean", "trim"), ("krum", "assumed_attackers")])
@pytest.mark.parametrize("path", ["rule", "attack.selfish_rule"])
def test_rule_that_cannot_aggregate_what_its_receivers_read_is_rejected(kind, param, path):
    def config(value, attack_kind="selfish"):
        rule = AggregationRule(kind, **{param: value})
        if path == "rule":
            return small_config(rule=rule, attack=AttackConfig(kind=attack_kind))
        return small_config(attack=AttackConfig(kind=attack_kind, selfish_rule=rule))

    # 3 + 1 clients: every receiver reads N = 4 models
    reads = r"each (non-)?selfish client reads N = 4 models"
    with pytest.raises(ValueError, match=rf"^{path}\.{param} = 2: {reads}"):
        config(2)
    config(1)  # 4 > 2 * 1 and 4 >= 1 + 3
    for attack_kind in ("independent", "two_coalitions"):  # every client aggregates with fedavg
        config(2, attack_kind)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_stops_the_run():
    trainer = TrainerConfig(learning_rate=1e6, local_epochs=3, batch_size=16)
    eng = Engine(small_config(trainer=trainer, rounds=60))
    with pytest.raises(NumericalDivergence, match=r"round \d+: local training of client \d+ diverged"):
        eng.run()
    assert len(eng.records) < 60


SELFISH = np.arange(7) >= 5  # 5 honest and 2 selfish clients


@pytest.mark.parametrize(
    "kind, info_mode, reads, rules",
    [
        ("selfish", "all", np.ones((7, 7), dtype=bool), ["flame"] * 5 + ["median"] * 2),
        ("selfish", "selfish_only", np.vstack([np.ones((5, 7), dtype=bool), [SELFISH, SELFISH]]),
         ["flame"] * 5 + ["median"] * 2),
        ("independent", "all", np.eye(7, dtype=bool), ["fedavg"] * 7),
        ("two_coalitions", "all", SELFISH[:, None] == SELFISH[None, :], ["fedavg"] * 7),
    ],
    ids=["collaborative", "selfish_only", "independent", "two_coalitions"],
)
def test_read_mask_and_rule_per_receiver(kind, info_mode, reads, rules):
    eng = Engine(small_config(
        roles=RoleConfig(n=5, m=2),
        rule=AggregationRule("flame"),  # the selfish clients resolve it to median
        attack=AttackConfig(kind=kind, info_mode=info_mode),
    ))
    assert eng.reads.dtype == bool
    assert np.array_equal(eng.reads, reads)
    assert [rule.kind for rule in eng.rules] == rules


@pytest.mark.parametrize(
    "rule, kind, started, calls",
    [
        ("flame", "none", False, {"flame": 1, "median": 1}),
        ("fltrust", "none", False, {"fltrust": 9}),
        ("median", "selfish", False, {"median": 1}),
        ("median", "selfish", True, {"median": 7 + 1}),
        ("median", "two_coalitions", False, {"fedavg": 2}),
    ],
    ids=["flame-none", "fltrust-none", "median-selfish-waiting", "median-selfish-started", "two_coalitions"],
)
def test_receivers_reading_the_same_input_aggregate_it_once(monkeypatch, rule, kind, started, calls):
    eng = Engine(small_config(roles=RoleConfig(n=7, m=2), rule=AggregationRule(rule), attack=AttackConfig(kind=kind)))
    if started:
        eng.detector = dataclasses.replace(eng.detector, started=True)
    seen = []
    aggregate = simulation.aggregate

    def counting_aggregate(rule, models, receiver_pre_agg=None):
        seen.append(rule.kind)
        return aggregate(rule, models, receiver_pre_agg=receiver_pre_agg)

    monkeypatch.setattr(simulation, "aggregate", counting_aggregate)
    for _ in range(2):
        seen.clear()
        eng.run_round()
        assert collections.Counter(seen) == calls


@pytest.mark.parametrize("kind, started, evaluations", [("none", False, 1 + 1), ("selfish", True, 7 + 1)])
def test_receivers_sharing_an_aggregate_share_its_evaluation(monkeypatch, kind, started, evaluations):
    eng = Engine(small_config(roles=RoleConfig(n=7, m=2), attack=AttackConfig(kind=kind)))
    if started:
        eng.detector = dataclasses.replace(eng.detector, started=True)
    seen = []

    def counting_correct_count(model, data):
        seen.append(model)
        return correct_count(model, data)

    monkeypatch.setattr(simulation, "correct_count", counting_correct_count)
    for _ in range(2):
        seen.clear()
        eng.run_round()
        assert len(seen) == evaluations
        # one evaluation per client gives the same record
        assert eng.records[-1].mtas == group_accuracy(eng.models[eng.roles.n:], eng.test_set)
        assert eng.records[-1].mtans == group_accuracy(eng.models[: eng.roles.n], eng.test_set)


def test_empty_shard_is_rejected_when_the_engine_is_built(monkeypatch):
    shards = []

    def recording_partition(*args):
        shards.extend(partition_non_iid(*args))
        return shards

    monkeypatch.setattr(simulation, "partition_non_iid", recording_partition)
    cfg = small_config(
        roles=RoleConfig(n=14, m=6), data=SyntheticDataConfig(classes=2, features=4, per_class=5, test_per_class=5)
    )
    with pytest.raises(EmptyDataset) as info:
        Engine(cfg)
    first_empty = next(cid for cid, shard in enumerate(shards) if shard.size == 0)
    assert str(info.value) == f"client {first_empty} has an empty shard: the partition gave it no examples"


def test_independent_mode_is_solo_training():
    eng = Engine(small_config(attack=AttackConfig(kind="independent")))
    pre_agg, crafted = eng.run_round()
    assert crafted is None
    assert np.array_equal(eng.models, pre_agg)


def test_two_coalitions_mode_averages_within_coalition():
    eng = Engine(small_config(roles=RoleConfig(n=6, m=2), attack=AttackConfig(kind="two_coalitions")))
    pre_agg, _ = eng.run_round()
    roles = eng.roles
    benign_avg = agg_fedavg(pre_agg[: roles.n])
    selfish_avg = agg_fedavg(pre_agg[roles.n:])
    for cid in roles.non_selfish_ids:
        assert np.allclose(eng.models[cid], benign_avg)
    for cid in roles.selfish_ids:
        assert np.allclose(eng.models[cid], selfish_avg)


def test_gaussian_attack_replaces_shares_to_non_selfish():
    eng = Engine(small_config(attack=AttackConfig(kind="gaussian")))
    pre_agg, crafted = eng.run_round()
    roles = eng.roles
    assert eng.records[-1].attack_started
    receiver = roles.non_selfish_ids[0]
    assert not np.array_equal(crafted[receiver, 0], pre_agg[roles.selfish_ids[0]])
    shares = np.concatenate([pre_agg[: roles.n], crafted[receiver]])
    assert np.array_equal(eng.models[receiver], agg_median(shares))
    # coalition still exchanges honestly
    assert np.array_equal(eng.models[roles.selfish_ids[-1]], agg_median(pre_agg))


def test_flame_defense_defaults_selfish_rule_to_median():
    cfg = small_config(rule=AggregationRule("flame"))
    assert cfg.resolved_selfish_rule().kind == "median"
    cfg = small_config(rule=AggregationRule("trimmed_mean"))
    resolved = cfg.resolved_selfish_rule()
    assert resolved.kind == "trimmed_mean" and resolved.trim == cfg.roles.m


def test_lambda_defaults_follow_rule():
    assert small_config(rule=AggregationRule("fedavg")).resolved_lambda() == 0.0
    assert small_config(rule=AggregationRule("median")).resolved_lambda() == 0.5
    assert small_config(rule=AggregationRule("trimmed_mean")).resolved_lambda() == 1.0
    explicit = small_config(attack=AttackConfig(kind="selfish", lam=2.0))
    assert explicit.resolved_lambda() == 2.0


def test_run_experiment_is_deterministic():
    cfg = small_config(attack=AttackConfig(kind="selfish", lam=0.5, interval=1, epsilon=0.5))
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first == second


def test_run_experiment_record_shape():
    records = run_experiment(small_config())
    assert [r.round for r in records] == [1, 2, 3]
    for rec in records:
        assert 0.0 <= rec.mtas <= 1.0 and 0.0 <= rec.mtans <= 1.0
        assert np.isclose(rec.gap, rec.mtas - rec.mtans)


def test_csv_backed_experiment(tmp_path):
    gen = Rng(11).stream(0)
    x = gen.normal(size=(400, 3))
    y = (x[:, 0] > 0).astype(int)
    lines = ["f0,f1,f2,label"] + [
        ",".join(f"{v:.6f}" for v in row) + f",{label}" for row, label in zip(x, y)
    ]
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    cfg = small_config(
        data=CsvDataConfig(path=str(path), test_fraction=0.25),
        partition=PartitionConfig(rho=0.5, groups=2),
    )
    records = run_experiment(cfg)
    assert len(records) == 3
    assert records[-1].mtans > 0.5  # learnable split


def test_attack_config_validation():
    AttackConfig(lam=0.5, b=1.0, epsilon=0.1, interval=50)
    with pytest.raises(ValueError):
        AttackConfig(lam=-0.1)
    with pytest.raises(ValueError):
        AttackConfig(b=0.0)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError):
            AttackConfig(lam=value)
        with pytest.raises(ValueError):
            AttackConfig(b=value)
    with pytest.raises(ValueError):
        AttackConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        AttackConfig(interval=0)
    with pytest.raises(ValueError):
        AttackConfig(info_mode="everyone")


def test_config_validation_propagates():
    with pytest.raises(ValueError):
        small_config(rounds=0)
    with pytest.raises(ValueError):
        AttackConfig(kind="selfish", lam=-1.0)
    with pytest.raises(ValueError):
        TrainerConfig(batch_size=0)
    with pytest.raises(ValueError):
        SyntheticDataConfig(test_per_class=0)
    with pytest.raises(ValueError):
        CsvDataConfig(path="x.csv", test_fraction=0.0)


@pytest.mark.parametrize("rule, selfish_rule", [("fltrust", None), ("median", "fltrust")])
def test_fltrust_rejects_zero_learning_rate(rule, selfish_rule):
    attack = AttackConfig(kind="selfish", selfish_rule=selfish_rule and AggregationRule(selfish_rule))
    with pytest.raises(ValueError, match="trainer.learning_rate 0 .* fltrust"):
        small_config(rule=AggregationRule(rule), attack=attack, trainer=TrainerConfig(learning_rate=0.0))
    small_config(rule=AggregationRule(rule), attack=attack, trainer=TrainerConfig(learning_rate=1e-3))
