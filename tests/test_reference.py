"""The round engine against :func:`oracles.reference_run`, the plain-loop
reference: same records and same final models, byte for byte.

Both sides run on the same BLAS, so a kernel that rounds a product one way
rounds it the same way for both.  One exception: under OpenBLAS's Prescott
kernels, a dot product of the same values can round differently at another
memory alignment, and the reference's fltrust operands sit at other offsets
than the engine's.  So this file does not run under forced Prescott.
"""

import dataclasses

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dflsim.aggregation import RULE_KINDS, AggregationRule
from dflsim.core import EmptyDataset, RoleConfig
from dflsim.simulation import (
    ATTACK_KINDS,
    AttackConfig,
    Engine,
    ExperimentConfig,
    PartitionConfig,
    SyntheticDataConfig,
    TrainerConfig,
)

from oracles import reference_run


def config(total, m, rule, kind, info_mode, selfish_rule, lam, classes, features, rounds, seed, batch_size=8):
    """A small synthetic run whose selfish attack starts within a few rounds
    (interval 2, epsilon 0.5)."""
    return ExperimentConfig(
        roles=RoleConfig(n=total - m, m=m),
        rule=AggregationRule(rule),
        attack=AttackConfig(
            kind=kind, lam=lam, epsilon=0.5, interval=2, info_mode=info_mode,
            selfish_rule=selfish_rule and AggregationRule(selfish_rule),
        ),
        trainer=TrainerConfig(learning_rate=0.5, local_epochs=1, batch_size=batch_size),
        partition=PartitionConfig(rho=0.5),
        data=SyntheticDataConfig(classes=classes, features=features, per_class=20, separation=3.0, test_per_class=5),
        rounds=rounds,
        seed=seed,
    )


@st.composite
def configs(draw):
    total = draw(st.integers(4, 9))
    m = draw(st.integers(1, (total - 1) // 3))
    kind = draw(st.sampled_from(ATTACK_KINDS) | st.just("selfish"))  # half the examples run the paper's attack
    info_mode = draw(st.sampled_from(["all", "selfish_only"])) if kind == "selfish" else "all"
    try:
        return config(
            total, m,
            rule=draw(st.sampled_from(RULE_KINDS)),
            kind=kind,
            info_mode=info_mode,
            selfish_rule=draw(st.none() | st.sampled_from(RULE_KINDS)),
            lam=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            classes=draw(st.integers(2, 4)),
            features=draw(st.integers(2, 6)),
            rounds=draw(st.integers(1, 6)),
            seed=draw(st.integers(0, 2**16)),
            batch_size=draw(st.sampled_from([4, 8, 16])),
        )
    except ValueError:  # a rule that cannot aggregate what its receivers read
        assume(False)


@settings(max_examples=300, deadline=None)
@given(configs())
@example(config(9, 2, "fltrust", "selfish", "all", None, 0.5, 3, 4, 6, 1))
@example(config(7, 2, "flame", "selfish", "selfish_only", None, 0.0, 2, 3, 6, 2))
@example(config(8, 2, "trimmed_mean", "trim", "all", "krum", 1.0, 4, 2, 4, 3))
def test_engine_matches_the_plain_reference(cfg):
    try:
        engine = Engine(cfg)
    except EmptyDataset:  # the partition left a client without examples
        assume(False)
    records = engine.run()
    expected, models = reference_run(cfg)
    assert [dataclasses.astuple(r) for r in records] == [dataclasses.astuple(r) for r in expected]
    assert np.array([dataclasses.astuple(r) for r in records], dtype=float).tobytes() == np.array(
        [dataclasses.astuple(r) for r in expected], dtype=float
    ).tobytes()
    assert engine.models.tobytes() == models.tobytes()
