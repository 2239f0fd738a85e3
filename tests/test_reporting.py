import json

import pytest

from dflsim import simulation
from dflsim.aggregation import AggregationRule
from dflsim.core import ConfigError, EmptyDataset, RoleConfig
from dflsim.reporting import (
    ExperimentRecord,
    SweepSpec,
    apply_parameter,
    read_records,
    run_sweep,
    write_records,
)
from dflsim.simulation import (
    AttackConfig,
    ExperimentConfig,
    PartitionConfig,
    SyntheticDataConfig,
    TrainerConfig,
)


def tiny_config(**overrides):
    base = dict(
        roles=RoleConfig(n=3, m=1),
        rule=AggregationRule("median"),
        attack=AttackConfig(kind="selfish", lam=0.5),
        trainer=TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=32),
        partition=PartitionConfig(rho=0.5, groups=2),
        data=SyntheticDataConfig(classes=2, features=3, per_class=40, separation=3.0, test_per_class=20),
        rounds=2,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def sample_records():
    return [
        ExperimentRecord(1, 0.5, 0.25, 0.25, 1.25, False),
        ExperimentRecord(2, 0.625, 0.5, 0.125, 0.75, True),
    ]


# ---------------------------------------------------------------------------
# records + CSV
# ---------------------------------------------------------------------------

def test_record_gap_consistency_enforced():
    with pytest.raises(ValueError):
        ExperimentRecord(1, 0.5, 0.4, 0.2, 1.0, False)


def test_csv_round_trip_is_lossless(tmp_path):
    path = tmp_path / "records.csv"
    write_records(sample_records(), str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "round,mtas,mtans,gap,mean_selfish_loss,attack_started"
    assert text.splitlines()[1] == "1,0.500000,0.250000,0.250000,1.250000,false"
    parsed = read_records(str(path))
    assert parsed == sample_records()
    # writing the parsed records again reproduces the bytes exactly
    second = tmp_path / "again.csv"
    write_records(parsed, str(second))
    assert second.read_bytes() == path.read_bytes()


def test_read_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("round,accuracy\n1,0.5\n")
    with pytest.raises(ValueError):
        read_records(str(path))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_spec_validation():
    SweepSpec("lambda", (0.0, 0.5))
    with pytest.raises(ValueError):
        SweepSpec("gamma", (1.0,))
    with pytest.raises(ValueError):
        SweepSpec("lambda", ())
    with pytest.raises(ValueError):
        SweepSpec("lambda", (1.0,), repeats=0)


def test_apply_parameter_each_kind():
    cfg = tiny_config()
    assert apply_parameter(cfg, "lambda", 1.5).attack.lam == 1.5
    assert apply_parameter(cfg, "rho", 0.9).partition.rho == 0.9
    assert apply_parameter(cfg, "epsilon", 0.2).attack.epsilon == 0.2
    assert apply_parameter(cfg, "interval", 10).attack.interval == 10
    roles = apply_parameter(cfg, "selfish_fraction", 0.25).roles
    assert (roles.n, roles.m) == (3, 1)
    roles = apply_parameter(cfg, "num_clients", 8).roles
    assert roles.total == 8 and roles.m == 2


def test_apply_parameter_rejects_broken_roles():
    with pytest.raises(ValueError):
        apply_parameter(tiny_config(), "selfish_fraction", 0.5)


def test_run_sweep_summary_and_files(tmp_path):
    cfg = tiny_config()
    spec = SweepSpec("lambda", (0.0, 0.5), repeats=2)
    summary = run_sweep(cfg, spec, out_dir=str(tmp_path), config_doc={"seed": 5})
    assert summary["parameter"] == "lambda"
    assert summary["values"] == [0.0, 0.5]
    assert len(summary["mean_gap"]) == 2
    assert summary["config"] == {"seed": 5}
    for value in (0.0, 0.5):
        for repeat in (0, 1):
            assert (tmp_path / f"lambda_{value}_rep{repeat}.csv").exists()
    on_disk = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert on_disk["mean_gap"] == summary["mean_gap"]


def test_run_sweep_repeats_use_distinct_seeds(tmp_path):
    cfg = tiny_config()
    spec = SweepSpec("lambda", (0.5,), repeats=2)
    run_sweep(cfg, spec, out_dir=str(tmp_path))
    a = (tmp_path / "lambda_0.5_rep0.csv").read_bytes()
    b = (tmp_path / "lambda_0.5_rep1.csv").read_bytes()
    assert a != b


def test_run_sweep_parallel_matches_serial(tmp_path):
    cfg = tiny_config()
    spec = SweepSpec("lambda", (0.0, 0.5), repeats=1)
    serial = run_sweep(cfg, spec)
    parallel = run_sweep(cfg, spec, jobs=2)
    assert serial == parallel


def test_run_sweep_validates_every_cell_before_running(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    cfg = tiny_config(roles=RoleConfig(n=14, m=6))
    spec = SweepSpec("selfish_fraction", (0.1, 0.5), repeats=1)
    with pytest.raises(ConfigError, match=r"--param selfish_fraction=0.5: .*violates"):
        run_sweep(cfg, spec, out_dir=str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep").exists()


def test_run_sweep_rejects_a_repeated_value_before_running(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    spec = SweepSpec("lambda", (0.0, 0.5, 0.5), repeats=1)
    with pytest.raises(ConfigError, match=r"^--values: 0.5 repeated$"):
        run_sweep(tiny_config(), spec, out_dir=str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_writes_each_cell_as_it_finishes(tmp_path, jobs):
    # 80 examples leave some of 60 clients without a shard, which fails that cell when it starts
    spec = SweepSpec("num_clients", (4, 60), repeats=1)
    with pytest.raises(EmptyDataset, match="has an empty shard"):
        run_sweep(tiny_config(), spec, out_dir=str(tmp_path), jobs=jobs)
    assert [p.name for p in tmp_path.iterdir()] == ["num_clients_4_rep0.csv"]
