import collections
import dataclasses
import itertools
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dflsim import simulation
from dflsim.aggregation import RULE_KINDS, AggregationRule, agg_fedavg, agg_median
from dflsim.attack import attack_start_round
from dflsim.cli import load_config
from dflsim.core import STREAM_DATA, STREAM_TEST, ConfigError, EmptyDataset, NumericalDivergence, RoleConfig, Rng
from dflsim.simulation import (
    AttackConfig,
    CsvDataConfig,
    Dataset,
    Engine,
    ExperimentConfig,
    PartitionConfig,
    SyntheticDataConfig,
    TrainerConfig,
    TrainingPlan,
    generate_synthetic,
    group_accuracy,
    load_csv,
    model_dim,
    partition_non_iid,
    read_plan,
    run_experiment,
    train_clients,
)

from oracles import (
    correct_count_of,
    finite_difference_gradient,
    local_update_of,
    loss_and_grad_of,
    trainer_loss_and_grad,
)


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


def start_the_attack(monkeypatch):
    """Make the selfish attack start at round 1, whatever the losses."""
    monkeypatch.setattr(simulation, "attack_start_round", lambda losses, epsilon, interval: 1)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_dataset_validation():
    Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), num_classes=2)


def blobs(classes, features, per_class, separation, gen) -> Dataset:
    """The training set of ``generate_synthetic``; its test set, one example
    per class, is drawn after it from the same generator."""
    cfg = SyntheticDataConfig(classes, features, per_class, separation, test_per_class=1)
    return generate_synthetic(cfg, gen, gen)[0]


def test_generate_synthetic_shapes_and_balance():
    train, test = generate_synthetic(SyntheticDataConfig(4, 20, 50, 3.0, 30), Rng(0).stream(0), Rng(0).stream(1))
    for data, per_class in ((train, 50), (test, 30)):
        assert data.features.shape == (4 * per_class, 20)
        assert data.num_classes == 4
        counts = np.bincount(data.labels, minlength=4)
        assert counts.tolist() == [per_class] * 4


def test_generate_synthetic_gives_the_engines_datasets():
    cfg = small_config()
    engine, rng = Engine(cfg), Rng(cfg.seed)
    train, test = generate_synthetic(cfg.data, rng.stream(STREAM_DATA), rng.stream(STREAM_TEST))
    for built, used in ((train, engine.train_set), (test, engine.test_set)):
        assert built.features.tobytes() == used.features.tobytes()
        assert built.labels.tobytes() == used.labels.tobytes()
        assert built.num_classes == used.num_classes


def test_generate_synthetic_separation_controls_difficulty():
    gen = Rng(1).stream(0)
    easy = blobs(3, 10, 200, 10.0, gen)
    hard = blobs(3, 10, 200, 0.0, Rng(1).stream(1))

    def fit(data, steps=300):
        model = np.zeros(model_dim(data.num_classes, data.num_features))
        for _ in range(steps):
            _, grad = loss_and_grad_of(model, data.features, data.labels, data.num_classes)
            model -= 0.5 * grad
        return model

    assert group_accuracy([fit(easy)], easy) > 0.99
    assert group_accuracy([fit(hard)], hard) < 0.45  # no signal at zero separation


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
    owner = partition_non_iid(data, 8, PartitionConfig(rho=0.7, groups=4), Rng(0).stream(1))
    assert owner.shape == (data.size,) and owner.dtype == np.int64  # one client per example
    assert np.array_equal(np.unique(owner), np.arange(8))  # each in range, and every client dealt some


def test_partition_rho_one_is_pure_label_skew():
    data = _toy_data()
    owner = partition_non_iid(data, 8, PartitionConfig(rho=1.0, groups=4), Rng(1).stream(1))
    assert np.array_equal(data.labels % 4, owner % 4)


def test_partition_uniform_rho_is_balanced():
    data = _toy_data(per_class=2500)
    owner = partition_non_iid(data, 4, PartitionConfig(rho=0.25, groups=4), Rng(2).stream(1))
    for cid in range(4):
        labels = data.labels[owner == cid]
        counts = np.bincount(labels, minlength=4) / labels.size
        assert np.all(np.abs(counts - 0.25) < 0.05)


def test_partition_skew_matches_rho():
    data = _toy_data(per_class=4000)
    owner = partition_non_iid(data, 4, PartitionConfig(rho=0.7, groups=4), Rng(3).stream(1))
    own = [np.mean(data.labels[owner == cid] == cid) for cid in range(4)]
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
        _, analytic = trainer_loss_and_grad(model, x, y, classes)
        numeric = finite_difference_gradient(lambda v: trainer_loss_and_grad(v, x, y, classes)[0], model)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_local_update_zero_learning_rate_is_identity():
    data = blobs(2, 4, 30, 2.0, Rng(5).stream(0))
    model = np.ones(model_dim(2, 4))
    cfg = TrainerConfig(learning_rate=0.0, local_epochs=2, batch_size=64, weight_decay=0.0)
    updated, mean_loss = train_clients(model[None], TrainingPlan(data, np.zeros(data.size, int), cfg), [Rng(5).stream(1)])
    assert np.array_equal(updated[0], model)
    initial_loss, _ = loss_and_grad_of(model, data.features, data.labels, 2)
    assert np.isclose(mean_loss[0], initial_loss)


def test_local_update_decreases_loss_on_separable_data():
    data = blobs(2, 4, 100, 5.0, Rng(6).stream(0))
    model = np.zeros(model_dim(2, 4))
    cfg = TrainerConfig(learning_rate=0.2, local_epochs=5, batch_size=200, weight_decay=0.0)
    updated, _ = train_clients(model[None], TrainingPlan(data, np.zeros(data.size, int), cfg), [Rng(6).stream(1)])
    before, _ = loss_and_grad_of(model, data.features, data.labels, 2)
    after, _ = loss_and_grad_of(updated[0], data.features, data.labels, 2)
    assert after < before


def test_local_update_applies_weight_decay():
    data = blobs(2, 4, 30, 2.0, Rng(7).stream(0))
    model = np.full(model_dim(2, 4), 10.0)
    no_decay = TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=64, weight_decay=0.0)
    decay = TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=64, weight_decay=0.1)
    plain, _ = train_clients(model[None], TrainingPlan(data, np.zeros(data.size, int), no_decay), [Rng(7).stream(1)])
    decayed, _ = train_clients(model[None], TrainingPlan(data, np.zeros(data.size, int), decay), [Rng(7).stream(1)])
    assert np.linalg.norm(decayed) < np.linalg.norm(plain)


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
@example(sizes=[64, 64, 31], batch_size=7, epochs=1, classes=7, features=1, seed=24)  # one feature: [x | 1] is 2 wide
@example(sizes=[99, 101], batch_size=32, epochs=1, classes=4, features=5, seed=3)  # step 4: every client short (3, 5)
@example(sizes=[64, 96], batch_size=32, epochs=2, classes=4, features=5, seed=3)  # every batch full: no loss mask
@example(sizes=[33, 64], batch_size=32, epochs=2, classes=4, features=6, seed=5)  # a 1-row short batch, padded to 32
@example(  # the desk shape: 20 shards of 66-101 rows, three of four steps with every client active
    sizes=[84, 66, 71, 73, 99, 88, 86, 75, 78, 91, 75, 84, 74, 72, 76, 101, 77, 75, 78, 77],
    batch_size=32, epochs=3, classes=4, features=20, seed=1,
)
@example(sizes=[1, 1, 1, 31, 1, 40], batch_size=1, epochs=1, classes=9, features=5, seed=0)  # a sliced normalizer fails
@example(sizes=[40, 33], batch_size=16, epochs=1, classes=8, features=3, seed=2)  # the fewest classes summed by numpy
@example(sizes=[40, 33], batch_size=16, epochs=1, classes=12, features=3, seed=2)  # beyond the drawn class counts
def test_lockstep_trainer_matches_per_client_loop(sizes, batch_size, epochs, classes, features, seed):
    gen = np.random.default_rng(seed)
    cfg = TrainerConfig(learning_rate=0.3, local_epochs=epochs, batch_size=batch_size, weight_decay=0.01)
    shards = [
        Dataset(gen.normal(size=(size, features)), gen.integers(0, classes, size=size), classes) for size in sizes
    ]
    models = gen.normal(size=(len(sizes), model_dim(classes, features)))
    pool = Dataset(np.concatenate([s.features for s in shards]), np.concatenate([s.labels for s in shards]), classes)
    plan, width = TrainingPlan(pool, np.repeat(np.arange(len(sizes)), sizes), cfg), min(batch_size, max(sizes))
    for t in (1, 2):  # one plan serves every round, each with fresh generators
        trained, losses = train_clients(models, plan, [np.random.default_rng([seed, t, cid]) for cid in range(len(sizes))])
        for cid, shard in enumerate(shards):
            model, loss = local_update_of(
                models[cid], shard.features, shard.labels, classes, cfg, np.random.default_rng([seed, t, cid]), width
            )
            assert trained[cid].tobytes() == model.tobytes()
            assert losses[cid].tobytes() == np.float64(loss).tobytes()
        models = trained


@pytest.mark.parametrize("n", [1, 2, 31, 80, 130])
def test_one_permuted_draw_equals_successive_permutations(n):
    # the trainer draws a client's epochs in one permuted call; numpy runs the
    # same Fisher-Yates over each row as permutation(n) does
    base, twin = np.arange(n) + 1000, np.random.default_rng(n)
    drawn = np.random.default_rng(n).permuted(np.broadcast_to(base, (3, n)), axis=1)
    assert np.array_equal(drawn, [base[twin.permutation(n)] for _ in range(3)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_padding_never_reaches_a_result():
    # client 0's first row overflows; padding slots read the all-zero row, never a client's
    gen = np.random.default_rng(11)
    sizes, classes, features = [40, 37, 45], 4, 5  # every client has a short last batch
    x = gen.normal(size=(sum(sizes), features))
    x[0] = 1.7e308
    y = gen.integers(0, classes, size=sum(sizes))
    cfg = TrainerConfig(learning_rate=0.3, local_epochs=1, batch_size=32, weight_decay=0.01)
    models = np.abs(gen.normal(size=(3, model_dim(classes, features))))  # positive weights: row 0's logits are inf
    gens = [np.random.default_rng([11, cid]) for cid in range(3)]
    trained, losses = train_clients(models, TrainingPlan(Dataset(x, y, classes), np.repeat([0, 1, 2], sizes), cfg), gens)
    assert not np.isfinite(trained[0]).all()
    for cid, rows in ((1, slice(40, 77)), (2, slice(77, 122))):
        model, loss = local_update_of(models[cid], x[rows], y[rows], classes, cfg, np.random.default_rng([11, cid]), 32)
        assert np.isfinite(model).all()
        assert trained[cid].tobytes() == model.tobytes()
        assert losses[cid].tobytes() == np.float64(loss).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_class_slice_max_matches_a_row_max_on_special_values():
    # with x = 1 and a zero bias each 4-tuple is one row of logits (the product turns -0.0 into +0.0)
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]
    x, y = np.ones((1, 1)), np.array([2])
    for weights in itertools.product(specials, repeat=4):
        model = np.array([*weights, 0.0, 0.0, 0.0, 0.0])
        loss, grad = trainer_loss_and_grad(model, x, y, 4)
        want_loss, want_grad = loss_and_grad_of(model, x, y, 4)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes(), weights
        assert grad.tobytes() == want_grad.tobytes(), weights


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("classes", range(2, 8))
def test_class_slice_sum_adds_in_numpys_order_below_eight_classes(classes):
    # below 8 classes the step adds its class exps slice by slice, left to right, where
    # numpy's pairwise sum adds fewer than 8 terms in the same order; 1e308 pairs overflow
    gen = np.random.default_rng(classes)
    shape = (4000, 8, classes)
    exps = np.exp(gen.normal(scale=10.0, size=shape))
    exps = np.where(gen.random(shape) < 0.3, gen.choice([0.0, 5e-324, 1e308, np.inf, np.nan], size=shape), exps)
    total = exps[..., 0] + exps[..., 1]
    for c in range(2, classes):
        total += exps[..., c]
    assert total.tobytes() == exps.sum(axis=2).tobytes()


def test_accuracy_empty_test_set():
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ValueError, match=r"^cannot evaluate on an empty set$"):
        group_accuracy([np.zeros(model_dim(2, 4))], empty)


def test_group_accuracy_of_an_empty_group_raises():
    data = blobs(2, 3, 5, 1.0, Rng(0).stream(0))
    with pytest.raises(ValueError, match=r"^cannot average accuracy over an empty group$"):
        group_accuracy([], data)


def assert_counts_match_the_plain_argmax(models, data):
    """Each model alone, and the group in one pass, score what a plain
    argmax of the logits gives, for the features in either order (the
    engine keeps its test set column-major)."""
    counts = [correct_count_of(model, data.features, data.labels, data.num_classes) for model in models]
    for features in (np.ascontiguousarray(data.features), np.asfortranarray(data.features)):
        ordered = Dataset(features, data.labels, data.num_classes)
        for model, count in zip(models, counts):
            assert group_accuracy([model], ordered) == count / data.size, (model, count)
        assert group_accuracy(models, ordered) == sum(counts) / (len(models) * data.size)


def test_group_accuracy_matches_the_plain_argmax():
    data = blobs(4, 5, 60, 2.0, Rng(1).stream(0))
    models = np.zeros((21, model_dim(4, 5)))  # model 0 stays zero: all ties
    models[1:] = Rng(2).stream(0).normal(size=(20, model_dim(4, 5)))
    assert_counts_match_the_plain_argmax(models, data)


@settings(max_examples=200, deadline=None)
@given(
    classes=st.integers(2, 10),
    features=st.integers(1, 30),
    group=st.integers(1, 16),
    size=st.sampled_from([1, 2, 3]) | st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_major_count_matches_the_plain_argmax(classes, features, group, size, seed):
    # quarters in [-1, 1]: every sum of products is exact in any order, so the
    # count alone is checked, on many ties; model 0 is all zeros, all ties
    gen = np.random.default_rng(seed)
    data = Dataset(gen.integers(-4, 5, size=(size, features)) / 4, gen.integers(0, classes, size=size), classes)
    models = gen.integers(-4, 5, size=(group, model_dim(classes, features))) / 4
    models[0] = 0.0
    assert_counts_match_the_plain_argmax(models, data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_class_major_count_matches_the_plain_argmax_on_special_values():
    # with x = 1 and a zero bias each 4-tuple is one row of logits: the first
    # maximum wins, and a NaN counts as the maximum
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]
    models = np.array([[*weights, 0.0, 0.0, 0.0, 0.0] for weights in itertools.product(specials, repeat=4)])
    for label in range(4):
        data = Dataset(np.ones((1, 1)), np.array([label]), 4)
        counts = [correct_count_of(model, data.features, data.labels, 4) for model in models]
        for model, count in zip(models, counts):
            assert group_accuracy([model], data) == count, (model, label)
        assert group_accuracy(models, data) == sum(counts) / len(models)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_pass_over_two_groups_matches_the_plain_argmax_of_each():
    # the special-value models as two groups of unequal size, NaN logits in one only, then
    # trained-like models on blobs: each group's accuracy is its own count over its own rows
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]
    models = np.array([[*weights, 0.0, 0.0, 0.0, 0.0] for weights in itertools.product(specials, repeat=4)])
    nan = np.isnan(models).any(axis=1)
    cases = [(Dataset(np.ones((1, 1)), np.array([label]), 4), models[~nan], models[nan]) for label in range(4)]
    data = blobs(4, 5, 60, 2.0, Rng(1).stream(0))
    trained = Rng(2).stream(0).normal(size=(9, model_dim(4, 5)))
    cases.append((Dataset(np.asfortranarray(data.features), data.labels, 4), trained[:2], trained[2:]))
    for data, clean, faulty in cases:
        for groups in ([clean, faulty], [faulty, clean], [clean]):
            sizes = [len(group) for group in groups]
            want = [
                sum(correct_count_of(model, data.features, data.labels, 4) for model in group) / (len(group) * data.size)
                for group in groups
            ]
            assert group_accuracy(np.concatenate(groups), data, sizes=sizes) == want, sizes
    with pytest.raises(ValueError, match=r"^cannot average accuracy over an empty group$"):
        group_accuracy(trained, data, sizes=[len(trained), 0])
    with pytest.raises(ValueError, match=r"^group sizes \[2, 3\] do not add up to the 9 models$"):
        group_accuracy(trained, data, sizes=[2, 3])


def test_group_accuracy_split():
    roles = RoleConfig(n=3, m=1)
    data = blobs(2, 3, 50, 8.0, Rng(0).stream(0))
    good = np.zeros(model_dim(2, 3))
    for _ in range(200):
        _, grad = loss_and_grad_of(good, data.features, data.labels, 2)
        good -= 0.5 * grad
    bad = -good
    models = [good, good, good, bad]  # the selfish client holds the bad model
    mtas = group_accuracy([models[i] for i in range(roles.n, roles.total)], data)
    mtans = group_accuracy([models[i] for i in range(roles.n)], data)
    assert mtans > 0.95
    assert mtas < 0.2


def test_one_evaluation_of_a_shared_model_gives_its_groups_accuracy():
    # the engine evaluates an aggregate its members share once: c / size is rows * c / (rows * size)
    data = blobs(3, 4, 7, 1.0, Rng(3).stream(0))  # 21 examples, so the quotients round
    for model in Rng(4).stream(0).normal(size=(30, model_dim(3, 4))):
        for rows in (2, 7, 14, 100):
            assert group_accuracy([model] * rows, data) == group_accuracy([model], data)


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


def test_selfish_shares_honest_among_coalition_crafted_to_others(monkeypatch):
    eng = Engine(small_config(
        roles=RoleConfig(n=6, m=2),
        attack=AttackConfig(kind="selfish", lam=0.5),
    ))
    start_the_attack(monkeypatch)
    pre_agg, crafted = eng.run_round()
    roles = eng.roles
    assert crafted.shape == (roles.n, roles.m, pre_agg.shape[1])
    for receiver in range(roles.n):
        for k, sender in enumerate(range(roles.n, roles.total)):
            assert not np.array_equal(crafted[receiver, k], pre_agg[sender])
        # true models from the benign senders, crafted shares from the selfish ones
        shares = np.concatenate([pre_agg[: roles.n], crafted[receiver]])
        assert np.array_equal(eng.models[receiver], agg_median(shares))
    for receiver in range(roles.n, roles.total):  # the coalition reads every true model
        assert np.array_equal(eng.models[receiver], agg_median(pre_agg))


def test_selfish_attack_steers_receiver_to_per_coordinate_optimum(monkeypatch):
    eng = Engine(small_config(
        roles=RoleConfig(n=6, m=2),
        attack=AttackConfig(kind="selfish", lam=0.5),
    ))
    start_the_attack(monkeypatch)
    pre_agg, _ = eng.run_round()
    roles = eng.roles
    benign = pre_agg[: roles.n]
    benign_agg = np.median(benign, axis=0)
    receiver = 0  # the first non-selfish client
    post = eng.models[receiver]
    from dflsim.verify import median_bounds, solve_optimal_coordinate

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


def test_attack_starts_at_the_round_its_recorded_losses_give():
    cfg = small_config(attack=AttackConfig(kind="selfish", lam=0.5, interval=3, epsilon=0.3), rounds=12)
    records = run_experiment(cfg)
    start = attack_start_round([rec.mean_selfish_loss for rec in records], 0.3, 3)
    assert start == 7  # inside the run, after the first full window
    assert [rec.attack_started for rec in records] == [rec.round >= start for rec in records]


def test_selfish_only_info_mode():
    eng = Engine(small_config(
        roles=RoleConfig(n=6, m=2),
        rule=AggregationRule("fedavg"),
        attack=AttackConfig(kind="selfish", lam=0.0, info_mode="selfish_only"),
    ))
    pre_agg, _ = eng.run_round()
    roles = eng.roles
    for cid in range(roles.n, roles.total):
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


def test_selfish_attack_rejects_a_defenders_trim_other_than_m():
    # the crafting trims m per side: against trim 1 of 7 + 2 clients, attacked receivers missed their optimum
    roles = RoleConfig(n=7, m=2)
    for trim in (0, 1, 3):
        with pytest.raises(ValueError, match=rf"^rule\.trim = {trim}: the selfish attack crafts for a trim of m = 2, "):
            small_config(roles=roles, rule=AggregationRule("trimmed_mean", trim), attack=AttackConfig(kind="selfish"))
    for trim in (None, 2):
        small_config(roles=roles, rule=AggregationRule("trimmed_mean", trim), attack=AttackConfig(kind="selfish"))
    small_config(roles=roles, rule=AggregationRule("trimmed_mean", 1), attack=AttackConfig(kind="gaussian"))
    # the crafting never reads the attackers' own rule
    small_config(roles=roles, attack=AttackConfig(kind="selfish", selfish_rule=AggregationRule("trimmed_mean", 1)))


@pytest.mark.parametrize("kind", [kind for kind in simulation.ATTACK_KINDS if kind != "selfish"])
def test_selfish_only_needs_the_selfish_attack(kind):
    with pytest.raises(ValueError, match=rf"^attack\.info_mode 'selfish_only' needs attack\.kind 'selfish', got '{kind}'"):
        AttackConfig(kind=kind, info_mode="selfish_only")


@pytest.mark.parametrize("kind", ["independent", "two_coalitions"])
def test_fltrust_with_zero_learning_rate_runs_where_no_client_aggregates_with_it(kind):
    fltrust = AggregationRule("fltrust")
    eng = Engine(small_config(
        rule=fltrust, attack=AttackConfig(kind=kind, selfish_rule=fltrust), trainer=TrainerConfig(learning_rate=0.0),
    ))
    eng.run_round()
    assert {rule.kind for _, _, rule in eng.groups} == {"fedavg"}


RULES = st.builds(AggregationRule, st.sampled_from(RULE_KINDS), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(4, 9),
    kind=st.sampled_from(simulation.ATTACK_KINDS),
    info_mode=st.sampled_from(["all", "selfish_only"]),
    rule=RULES,
    selfish_rule=st.none() | RULES,
    learning_rate=st.sampled_from([0.0, 0.1]),
    data=st.data(),
)
def test_a_config_runs_its_read_plan_or_is_rejected_naming_a_config_path(
    total, kind, info_mode, rule, selfish_rule, learning_rate, data
):
    m = data.draw(st.integers(1, (total - 1) // 3), label="m")
    try:
        cfg = small_config(
            roles=RoleConfig(n=total - m, m=m),
            rule=rule,
            attack=AttackConfig(kind=kind, info_mode=info_mode, selfish_rule=selfish_rule),
            trainer=TrainerConfig(learning_rate=learning_rate, local_epochs=1, batch_size=16),
        )
    except ValueError as exc:
        assert re.match(r"[a-z_]+(\.[a-z_]+)+ ", str(exc)), str(exc)
        return
    eng = Engine(cfg)
    with pytest.MonkeyPatch.context() as patch:
        start_the_attack(patch)  # only the selfish crafter asks
        _, crafted = eng.run_round()
    assert (crafted is not None) == (kind in ("selfish", "gaussian", "trim"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_stops_the_run():
    trainer = TrainerConfig(learning_rate=1e6, local_epochs=3, batch_size=16)
    eng = Engine(small_config(trainer=trainer, rounds=60))
    with pytest.raises(NumericalDivergence, match=r"round \d+: local training of client \d+ diverged"):
        eng.run()
    assert len(eng.records) < 60


def quick_smoke_config(learning_rate):
    cfg, _ = load_config(str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "quick_smoke.json"))
    return dataclasses.replace(cfg, trainer=dataclasses.replace(cfg.trainer, learning_rate=learning_rate))


def test_loss_above_the_ceiling_stops_the_run_while_finite():
    # one local epoch at learning rate 1e6: the largest client loss is ~3e8 in round 1
    eng = Engine(quick_smoke_config(1e6))
    ceiling = simulation.DIVERGENCE_LOSS_FACTOR * np.log(2)
    with pytest.raises(NumericalDivergence, match=r"round 1: local training of client \d+ diverged") as info:
        eng.run()
    loss = float(re.search(r"\(loss ([^,]+), ceiling", str(info.value)).group(1))
    assert ceiling < loss < np.inf and f"ceiling {ceiling:.4g}:" in str(info.value)
    assert eng.records == []


def test_large_but_bounded_losses_run_to_the_end():
    # learning rate 1e3: the largest client loss stays below 1e3, far under 1e6 * ln 2
    records = Engine(quick_smoke_config(1e3)).run()
    assert [r.round for r in records] == list(range(1, 21))


BENIGN, SELFISH, EVERYONE = [0, 1, 2, 3, 4], [5, 6], list(range(7))  # 5 honest and 2 selfish clients


@pytest.mark.parametrize(
    "kind, info_mode, senders, rules",
    [
        ("selfish", "all", (EVERYONE, EVERYONE), ("flame", "median")),
        ("selfish", "selfish_only", (EVERYONE, SELFISH), ("flame", "median")),
        ("independent", "all", (None, None), ("fedavg", "fedavg")),  # each client reads only its own model
        ("two_coalitions", "all", (BENIGN, SELFISH), ("fedavg", "fedavg")),
    ],
    ids=["collaborative", "selfish_only", "independent", "two_coalitions"],
)
def test_read_mask_and_rule_per_receiver(kind, info_mode, senders, rules):
    """The engine's two groups, non-selfish then selfish: the members, the
    senders each member reads and the rule it aggregates them with."""
    eng = Engine(small_config(
        roles=RoleConfig(n=5, m=2),
        rule=AggregationRule("flame"),  # the selfish clients resolve it to median
        attack=AttackConfig(kind=kind, info_mode=info_mode),
    ))
    assert [members.tolist() for members, _, _ in eng.groups] == [BENIGN, SELFISH]
    assert [reads if reads is None else reads.tolist() for _, reads, _ in eng.groups] == list(senders)
    assert tuple(rule.kind for _, _, rule in eng.groups) == rules


@pytest.mark.parametrize(
    "rule, kind, started, calls",
    [
        ("flame", "none", False, [("flame", 1), ("median", 1)]),
        ("fltrust", "none", False, [("fltrust", 7), ("fltrust", 2)]),
        ("median", "selfish", False, [("median", 1), ("median", 1)]),
        ("median", "selfish", True, [("median", 7), ("median", 1)]),
        ("median", "two_coalitions", False, [("fedavg", 1), ("fedavg", 1)]),
        ("median", "independent", False, [("fedavg", 7), ("fedavg", 2)]),
    ],
    ids=["flame-none", "fltrust-none", "median-selfish-waiting", "median-selfish-started", "two_coalitions",
         "independent"],
)
def test_receivers_reading_the_same_input_aggregate_it_once(monkeypatch, rule, kind, started, calls):
    """One call per group, non-selfish then selfish, as (rule kind, stack
    rows): one row per member when crafted shares, fltrust's own-model
    reference or reading only its own model set the members apart, else
    one shared (k, d) input."""
    eng = Engine(small_config(roles=RoleConfig(n=7, m=2), rule=AggregationRule(rule), attack=AttackConfig(kind=kind)))
    if started:
        start_the_attack(monkeypatch)
    seen = []
    aggregate = simulation.aggregate

    def counting_aggregate(rule, models, receiver_pre_agg=None):
        seen.append((rule.kind, len(models) if models.ndim == 3 else 1))
        return aggregate(rule, models, receiver_pre_agg=receiver_pre_agg)

    monkeypatch.setattr(simulation, "aggregate", counting_aggregate)
    for _ in range(2):
        seen.clear()
        eng.run_round()
        assert seen == calls


@pytest.mark.parametrize("kind, started, evaluations", [("none", False, 1 + 1), ("selfish", True, 7 + 1)])
def test_receivers_sharing_an_aggregate_share_its_evaluation(monkeypatch, kind, started, evaluations):
    eng = Engine(small_config(roles=RoleConfig(n=7, m=2), attack=AttackConfig(kind=kind)))
    if started:
        start_the_attack(monkeypatch)
    seen = []  # the rows and group sizes of each group_accuracy call

    def counting_group_accuracy(models, data, sizes=None):
        seen.append((len(models), sizes))
        return group_accuracy(models, data, sizes=sizes)

    monkeypatch.setattr(simulation, "group_accuracy", counting_group_accuracy)
    for _ in range(2):
        seen.clear()
        eng.run_round()
        # one call a round scores both groups' distinct aggregates: the non-selfish group's, then the coalition's one
        assert seen == [(evaluations, [evaluations - 1, 1])]
        # one evaluation per client gives the same record
        assert eng.records[-1].mtas == group_accuracy(eng.models[eng.roles.n:], eng.test_set)
        assert eng.records[-1].mtans == group_accuracy(eng.models[: eng.roles.n], eng.test_set)


def test_empty_shard_is_rejected_when_the_engine_is_built(monkeypatch):
    owners = []

    def recording_partition(*args):
        owners.append(partition_non_iid(*args))
        return owners[0]

    monkeypatch.setattr(simulation, "partition_non_iid", recording_partition)
    cfg = small_config(
        roles=RoleConfig(n=14, m=6), data=SyntheticDataConfig(classes=2, features=4, per_class=5, test_per_class=5)
    )
    with pytest.raises(EmptyDataset) as info:
        Engine(cfg)
    first_empty = int(np.flatnonzero(np.bincount(owners[0], minlength=cfg.roles.total) == 0)[0])
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
    for cid in range(roles.n):
        assert np.allclose(eng.models[cid], benign_avg)
    for cid in range(roles.n, roles.total):
        assert np.allclose(eng.models[cid], selfish_avg)


@pytest.mark.parametrize("kind", ["none", "selfish", "gaussian", "trim"])
def test_rounds_build_no_per_client_stream(monkeypatch, kind):
    # each round re-keys the engine's own generators; Rng.stream serves set-up only
    eng = Engine(small_config(attack=AttackConfig(kind=kind)))
    if kind == "selfish":
        start_the_attack(monkeypatch)
    stream, calls = Rng.stream, []
    monkeypatch.setattr(Rng, "stream", lambda self, *path: calls.append(path) or stream(self, *path))
    crafted = [eng.run_round()[1] is not None for _ in range(3)]
    assert calls == []
    assert all(crafted) == (kind != "none")


def test_gaussian_attack_replaces_shares_to_non_selfish():
    eng = Engine(small_config(attack=AttackConfig(kind="gaussian")))
    pre_agg, crafted = eng.run_round()
    roles = eng.roles
    assert eng.records[-1].attack_started
    receiver = 0  # the first non-selfish client
    assert not np.array_equal(crafted[receiver, 0], pre_agg[roles.n])
    shares = np.concatenate([pre_agg[: roles.n], crafted[receiver]])
    assert np.array_equal(eng.models[receiver], agg_median(shares))
    # coalition still exchanges honestly
    assert np.array_equal(eng.models[roles.total - 1], agg_median(pre_agg))


def test_flame_defense_defaults_selfish_rule_to_median():
    # the second group is the selfish one: its rule is the attackers' own
    cfg = small_config(rule=AggregationRule("flame"))
    assert read_plan(cfg)[0][1][2].kind == "median"
    cfg = small_config(rule=AggregationRule("trimmed_mean"))
    resolved = read_plan(cfg)[0][1][2]
    assert resolved.kind == "trimmed_mean" and resolved.trim == cfg.roles.m


def test_lambda_defaults_follow_rule():
    assert read_plan(small_config(rule=AggregationRule("fedavg")))[1] == 0.0
    assert read_plan(small_config(rule=AggregationRule("median")))[1] == 0.5
    assert read_plan(small_config(rule=AggregationRule("trimmed_mean")))[1] == 1.0
    explicit = small_config(attack=AttackConfig(kind="selfish", lam=2.0))
    assert read_plan(explicit)[1] == 2.0


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
        assert rec.gap == rec.mtas - rec.mtans


def test_engine_records_hold_the_gap_exactly():
    cfg = small_config(attack=AttackConfig(kind="selfish", lam=0.5, interval=1, epsilon=0.5), rounds=6)
    records = run_experiment(cfg)
    assert records[-1].attack_started and any(rec.gap != 0.0 for rec in records)
    assert all(rec.gap == rec.mtas - rec.mtans for rec in records)


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
    for name in ("learning_rate", "weight_decay"):
        for value in (np.nan, np.inf):  # json reads NaN and Infinity, and NaN < 0 is False
            with pytest.raises(ValueError, match=rf"^{name} must be a finite value >= 0"):
                TrainerConfig(**{name: value})
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
