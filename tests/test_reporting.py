import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from dflsim import simulation
from dflsim.aggregation import AggregationRule
from dflsim.cli import config_to_dict
from dflsim.core import ConfigError, EmptyDataset, RoleConfig
from dflsim.reporting import SWEEP_PARAMETERS, ExperimentRecord, read_records, run_sweep, write_records
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

def test_read_records_rejects_a_gap_beyond_rounding(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "round,mtas,mtans,gap,mean_selfish_loss,attack_started\n"
        "1,0.500000,0.250000,0.250000,1.250000,false\n"
        "2,0.500000,0.400000,0.100002,1.000000,true\n"
    )
    message = rf"^{re.escape(str(path))}:3: gap 0.100002 is not mtas - mtans = 0.500000 - 0.400000$"
    with pytest.raises(ValueError, match=message):
        read_records(str(path))


def test_read_records_keeps_a_gap_rounded_apart_from_mtas_minus_mtans(tmp_path):
    # 0.983333 - 0.961905 = 0.021428, while the gap rounded from the unrounded accuracies is 0.021429
    path = tmp_path / "records.csv"
    text = "round,mtas,mtans,gap,mean_selfish_loss,attack_started\n1,0.983333,0.961905,0.021429,0.500000,true\n"
    path.write_text(text)
    (record,) = read_records(str(path))
    assert (record.mtas, record.mtans, record.gap) == (0.983333, 0.961905, 0.021429)
    write_records([record], str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_text() == text


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

def apply_parameter(cfg, parameter, value):
    """Apply one value through its SWEEP_PARAMETERS table entry."""
    return SWEEP_PARAMETERS[parameter][1](cfg, value)


def test_run_sweep_rejects_bad_arguments_before_running(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    for parameter, values, repeats, message in [
        ("gamma", [1.0], 1, r"unknown sweep parameter 'gamma', expected one of \('lambda', 'rho', "),
        ("lambda", [], 1, r"sweep needs at least one value$"),
        ("lambda", [1.0], 0, r"repeats must be >= 1, got 0$"),
        ("lambda", ["0.5", "x"], 1, r"--values: could not convert string to float: 'x'$"),
        ("interval", ["4", "4.5"], 1, r"--values: invalid literal for int\(\) with base 10: '4.5'$"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}"):
            run_sweep(tiny_config(), parameter, values, repeats, out_dir=str(tmp_path / "sweep"))
        assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("parameter, values, repeats, jobs, message", [
    ("interval", [4.7, 9.2], 1, 1, "--values: 4.7 is not an integer"),
    ("interval", [True, 3], 1, 1, "--values: True is not an integer"),
    ("lambda", [0.5, False], 1, 1, "--values: False is not a number"),
    ("interval", [float("inf")], 1, 1, "--values: cannot convert float infinity to integer"),
    ("interval", [None], 1, 1, "--values: int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
    ("lambda", [0.5], 2.5, 1, "--repeats must be an integer, got 2.5"),
    ("lambda", [0.5], True, 1, "--repeats must be an integer, got True"),
    ("lambda", [0.5], 1, 1.5, "--jobs must be an integer, got 1.5"),
], ids=["fraction", "bool-int", "bool-float", "inf", "none", "repeats-fraction", "repeats-bool", "jobs-fraction"])
def test_run_sweep_rejects_library_values_no_cli_string_gives(tmp_path, monkeypatch, parameter, values, repeats, jobs, message):
    """Numbers a library caller passes are checked, not truncated: each of
    these used to run cells (4.7 as 4, True as 1) or raise a bare TypeError
    or OverflowError."""
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_sweep(tiny_config(), parameter, values, repeats, out_dir=str(tmp_path / "sweep"), jobs=jobs)
    assert not (tmp_path / "sweep").exists()


def test_run_sweep_takes_whole_numbers_of_any_numeric_type(monkeypatch):
    ran = []
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: ran.append(cfg.attack.interval) or sample_records())
    summary = run_sweep(tiny_config(), "interval", [np.int64(4), 9.0], np.int64(1))
    assert ran == [4, 9] and summary["values"] == [4, 9]


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
    with pytest.raises(ValueError, match="violates"):  # 2 + 2 clients break n >= 2m + 1
        apply_parameter(tiny_config(), "selfish_fraction", 0.5)


def test_run_sweep_summary_and_files(tmp_path):
    cfg = tiny_config()
    summary = run_sweep(cfg, "lambda", (0.0, 0.5), repeats=2, out_dir=str(tmp_path), config_doc={"seed": 5})
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
    run_sweep(cfg, "lambda", (0.5,), repeats=2, out_dir=str(tmp_path))
    a = (tmp_path / "lambda_0.5_rep0.csv").read_bytes()
    b = (tmp_path / "lambda_0.5_rep1.csv").read_bytes()
    assert a != b


def test_run_sweep_parallel_matches_serial(tmp_path):
    cfg = tiny_config()
    serial = run_sweep(cfg, "lambda", (0.0, 0.5), repeats=1)
    parallel = run_sweep(cfg, "lambda", (0.0, 0.5), repeats=1, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_sweep_rejects_jobs_below_one_before_running(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    with pytest.raises(ConfigError, match=rf"^--jobs must be >= 1, got {jobs}$"):
        run_sweep(tiny_config(), "lambda", (0.5,), repeats=1, out_dir=str(tmp_path / "sweep"), jobs=jobs)
    assert not (tmp_path / "sweep").exists()


REPO = pathlib.Path(__file__).resolve().parent.parent

# What a benchmark child does: import dflsim, build an engine from the
# headline config and run rounds; here a median run and a flame run, each
# until its selfish attack has started and one round more.  None of it may
# load numpy.ma (np.median's NaN check imports it), argparse or the sweep's
# process pool.  Then a two-job sweep imports the pool where it uses it and
# writes the serial bytes.
FRESH_RUN = """
import json, os, sys
import numpy
preloaded = set(sys.modules)  # older numpy imports numpy.ma itself
import dflsim
from dflsim import cli, core, reporting, simulation, verify

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
doc["attack"].update(interval=2, epsilon=0.5)  # a detector window short enough that the attack starts
for rule in ("median", "flame"):
    doc["rule"] = {"kind": rule}
    engine = simulation.Engine(cli.config_from_dict(doc))
    for _ in range(6):
        engine.run_round()
    assert engine.records[-2].attack_started, rule
unwanted = ("numpy.ma", "argparse", "concurrent", "multiprocessing")
loaded = sorted(m for m in set(sys.modules) - preloaded if any(m == u or m.startswith(u + ".") for u in unwanted))
assert not loaded, f"a run loaded {loaded}"

tiny, _ = cli.load_config(sys.argv[2])
serial = reporting.run_sweep(tiny, "lambda", (0.0, 0.5), 1, out_dir=os.path.join(sys.argv[3], "serial"))
parallel = reporting.run_sweep(tiny, "lambda", (0.0, 0.5), 1, out_dir=os.path.join(sys.argv[3], "parallel"), jobs=2)
assert serial == parallel
assert "concurrent.futures.process" in sys.modules
"""


def test_a_fresh_run_loads_no_process_pool_and_a_sweep_still_uses_one(tmp_path):
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(config_to_dict(tiny_config())))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(REPO / "configs" / "median_selfish.json"), str(tiny), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("lambda_0.0_rep0.csv", "lambda_0.5_rep0.csv", "sweep_summary.json"):
        assert (tmp_path / "parallel" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_run_sweep_validates_every_cell_before_running(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    cfg = tiny_config(roles=RoleConfig(n=14, m=6))
    with pytest.raises(ConfigError, match=r"--param selfish_fraction=0.5: .*violates"):
        run_sweep(cfg, "selfish_fraction", (0.1, 0.5), repeats=1, out_dir=str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("rho", [1.5, 0.25, float("nan")])
def test_run_sweep_rejects_rho_outside_its_range_before_running(tmp_path, monkeypatch, rho):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    with pytest.raises(ConfigError, match=rf"^--param rho={rho}: partition\.rho = {rho}: must lie in \[1/groups, 1\]"):
        run_sweep(tiny_config(), "rho", (0.5, rho), repeats=1, out_dir=str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("fraction", [0.0, -0.5, -3.0, 1.0, float("nan")])
def test_run_sweep_rejects_a_selfish_fraction_outside_0_1_before_running(tmp_path, monkeypatch, fraction):
    # a fraction <= 0 must not round up to one selfish client
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    message = rf"^--param selfish_fraction={fraction}: selfish_fraction must lie in \(0, 1\), got {fraction}$"
    with pytest.raises(ConfigError, match=message):
        run_sweep(tiny_config(), "selfish_fraction", (0.25, fraction), repeats=1, out_dir=str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep").exists()


def test_run_sweep_rejects_fewer_clients_than_partition_groups_before_running(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    cfg = tiny_config(roles=RoleConfig(n=5, m=1), partition=PartitionConfig(rho=0.5, groups=5))
    with pytest.raises(ConfigError, match=r"^--param num_clients=4: partition\.groups = 5: cannot spread 5 groups over 4"):
        run_sweep(cfg, "num_clients", (6, 4), repeats=1, out_dir=str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep").exists()


def test_run_sweep_rejects_a_repeated_value_before_running(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    with pytest.raises(ConfigError, match=r"^--values: 0.5 repeated$"):
        run_sweep(tiny_config(), "lambda", (0.0, 0.5, 0.5), repeats=1, out_dir=str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep").exists()


def test_run_sweep_rejects_a_value_that_repeats_an_earlier_config(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    cfg = tiny_config(roles=RoleConfig(n=19, m=1))
    assert apply_parameter(cfg, "selfish_fraction", 0.02) == apply_parameter(cfg, "selfish_fraction", 0.01)
    with pytest.raises(ConfigError, match=r"^--values: selfish_fraction=0.02 gives the same config as 0.01$"):
        run_sweep(cfg, "selfish_fraction", (0.01, 0.25, 0.02), repeats=1, out_dir=str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep").exists()


def test_run_sweep_applies_each_value_once(tmp_path, monkeypatch):
    kind, apply = SWEEP_PARAMETERS["lambda"]
    calls = []
    monkeypatch.setitem(SWEEP_PARAMETERS, "lambda", (kind, lambda cfg, value: calls.append(value) or apply(cfg, value)))
    run_sweep(tiny_config(), "lambda", (0.0, 0.5), repeats=2)
    assert calls == [0.0, 0.5]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_writes_each_cell_as_it_finishes(tmp_path, jobs):
    # 80 examples leave some of 60 clients without a shard, which fails that cell when it starts
    with pytest.raises(EmptyDataset, match="has an empty shard"):
        run_sweep(tiny_config(), "num_clients", (4, 60), repeats=1, out_dir=str(tmp_path), jobs=jobs)
    assert [p.name for p in tmp_path.iterdir()] == ["num_clients_4_rep0.csv"]
