import dataclasses
import json
import pathlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dflsim.aggregation import RULE_KINDS, AggregationRule
from dflsim.cli import config_from_dict, config_to_dict, load_config, main
from dflsim.core import ConfigError, RoleConfig
from dflsim.simulation import (
    ATTACK_KINDS,
    AttackConfig,
    CsvDataConfig,
    Engine,
    ExperimentConfig,
    PartitionConfig,
    SyntheticDataConfig,
    TrainerConfig,
)


def tiny_doc(**extra):
    doc = {
        "roles": {"n": 3, "m": 1},
        "rule": {"kind": "median"},
        "attack": {"kind": "selfish", "lambda": 0.5},
        "trainer": {"learning_rate": 0.1, "local_epochs": 1, "batch_size": 32},
        "partition": {"rho": 0.5, "groups": 2},
        "data": {"synthetic": {"classes": 2, "features": 3, "per_class": 40, "separation": 3.0, "test_per_class": 20}},
        "rounds": 2,
        "seed": 7,
    }
    doc.update(extra)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_round_trip():
    cfg = config_from_dict(tiny_doc())
    assert cfg.attack.lam == 0.5
    assert cfg.roles.total == 4
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    for doc in (
        tiny_doc(attack={"kind": "selfish", "selfish_rule": {"kind": "trimmed_mean", "trim": 1}}),
        tiny_doc(data={"csv": {"path": "data.csv", "test_fraction": 0.3}}),
    ):
        cfg = config_from_dict(doc)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def _numbers(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, **kwargs)


@st.composite
def experiment_configs(draw):
    """A valid config in which every field may leave its default."""
    m = draw(st.integers(1, 4))
    rules = st.builds(AggregationRule, st.sampled_from(RULE_KINDS), st.none() | st.integers(0, m),
                      st.none() | st.integers(0, m))
    positive = _numbers(0.0, 10.0, exclude_min=True)
    fraction = _numbers(0.0, 1.0, exclude_min=True, exclude_max=True)
    data = draw(st.builds(SyntheticDataConfig, st.integers(2, 4), st.integers(2, 30), st.integers(1, 500),
                          _numbers(0.0, 10.0), st.integers(1, 300))
                | st.builds(CsvDataConfig, st.text(), fraction))
    try:
        return ExperimentConfig(
            roles=RoleConfig(draw(st.integers(2 * m + 1, 12)), m),
            rule=draw(rules),
            attack=AttackConfig(
                kind=draw(st.sampled_from(ATTACK_KINDS)),
                lam=draw(st.none() | _numbers(0.0, 5.0)),
                b=draw(positive),
                epsilon=draw(fraction),
                interval=draw(st.integers(1, 100)),
                info_mode=draw(st.sampled_from(("all", "selfish_only"))),
                selfish_rule=draw(st.none() | rules),
            ),
            trainer=TrainerConfig(draw(_numbers(0.0, 1.0)), draw(st.integers(1, 5)), draw(st.integers(1, 64)),
                                  draw(_numbers(0.0, 1.0))),
            partition=PartitionConfig(draw(_numbers(0.5, 1.0)), draw(st.none() | st.integers(2, 3))),
            data=data,
            rounds=draw(st.integers(1, 1000)),
            seed=draw(st.integers(0, 2**64 - 1)),
        )
    except ValueError:  # a combination the cross-field checks reject
        assume(False)


@settings(max_examples=200, deadline=None)
@given(experiment_configs())
def test_every_config_survives_a_round_trip_through_json(cfg):
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_config_to_dict_writes_each_field_as_given_in_a_fixed_key_order():
    cfg, _ = load_config(str(CONFIG_DIR / "median_selfish.json"))
    assert json.dumps(config_to_dict(dataclasses.replace(cfg, seed=0))) == (
        '{"roles": {"n": 14, "m": 6}, "rule": {"kind": "median", "trim": null, "assumed_attackers": null}, '
        '"attack": {"kind": "selfish", "b": 1.0, "epsilon": 0.1, "interval": 50, "info_mode": "all", '
        '"selfish_rule": null, "lambda": 0.5}, "trainer": {"learning_rate": 0.1, "local_epochs": 3, '
        '"batch_size": 32, "weight_decay": 0.0005}, "partition": {"rho": 0.7, "groups": null}, "data": {"synthetic": '
        '{"classes": 4, "features": 20, "per_class": 400, "separation": 3.0, "test_per_class": 250}}, '
        '"rounds": 300, "seed": 0}'
    )


def test_config_defaults_fill_missing_sections():
    cfg = config_from_dict({})
    assert cfg.roles.n == 14 and cfg.roles.m == 6
    assert cfg.rule.kind == "median"
    assert cfg.rounds == 300


def test_unknown_keys_are_rejected_with_path():
    with pytest.raises(ConfigError, match=r"attack\.mode"):
        config_from_dict(tiny_doc(attack={"mode": "selfish"}))
    with pytest.raises(ConfigError, match="top-level"):
        config_from_dict(tiny_doc(extra_section={}))
    with pytest.raises(ConfigError, match="synthetic"):
        config_from_dict(tiny_doc(data={"parquet": {}}))


@pytest.mark.parametrize("doc, message", [
    ([], "top level: expected an object"),
    ({"rounds": 0}, "top level: rounds must be >= 1, got 0"),
    ({"extra": 1}, "extra: unknown top-level key"),
    ({"attack": {"mode": 1}}, "attack.mode: unknown key (expected one of ['b', 'epsilon', 'info_mode', 'interval', "
                              "'kind', 'lambda', 'selfish_rule'])"),
    ({"rule": {"kind": "median", "lambda": 1}},
     "rule.lambda: unknown key (expected one of ['assumed_attackers', 'kind', 'trim'])"),
    ({"roles": {"n": 3}}, "roles: RoleConfig.__init__() missing 1 required positional argument: 'm'"),
    ({"rule": None}, "rule: expected an object, got NoneType"),
    ({"data": None}, "data: expected exactly one of 'synthetic' or 'csv'"),
    ({"data": {"synthetic": {}, "csv": {}}}, "data: expected exactly one of 'synthetic' or 'csv'"),
    ({"attack": {"selfish_rule": 3}}, "attack.selfish_rule: expected an object, got int"),
    ({"attack": {"selfish_rule": {"trim": "x"}}}, 'attack.selfish_rule.trim: expected an integer or null, got "x"'),
    ({"data": {"csv": {"test_fraction": "a"}}}, 'data.csv.test_fraction: expected a number, got "a"'),
    # FLAME always clips and the baselines' noise ranges are constants, so no config sets them
    ({"rule": {"kind": "flame", "clip": True}},
     "rule.clip: unknown key (expected one of ['assumed_attackers', 'kind', 'trim'])"),
    ({"attack": {"selfish_rule": {"kind": "flame", "clip": False}}},
     "attack.selfish_rule.clip: unknown key (expected one of ['assumed_attackers', 'kind', 'trim'])"),
    ({"attack": {"kind": "gaussian", "sigma": 200.0}}, "attack.sigma: unknown key (expected one of ['b', 'epsilon', "
                                                       "'info_mode', 'interval', 'kind', 'lambda', 'selfish_rule'])"),
    ({"attack": {"kind": "trim", "delta_lo": 0.5}}, "attack.delta_lo: unknown key (expected one of ['b', 'epsilon', "
                                                    "'info_mode', 'interval', 'kind', 'lambda', 'selfish_rule'])"),
    ({"attack": {"kind": "trim", "delta_hi": 2.0}}, "attack.delta_hi: unknown key (expected one of ['b', 'epsilon', "
                                                    "'info_mode', 'interval', 'kind', 'lambda', 'selfish_rule'])"),
])
def test_config_errors_name_the_config_path(doc, message):
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    assert str(info.value) == message


def test_invalid_values_are_path_tagged():
    with pytest.raises(ConfigError, match="roles"):
        config_from_dict(tiny_doc(roles={"n": 2, "m": 1}))


@pytest.mark.parametrize("path, value, expected", [
    ("rounds", 2.5, "an integer"),
    ("trainer.batch_size", 32.5, "an integer"),
    ("data.synthetic.classes", 2.0, "an integer"),
    ("trainer.local_epochs", True, "an integer"),
    ("seed", 1.5, "an integer"),
    ("roles.n", 7.0, "an integer"),
    ("rounds", "3", "an integer"),
    ("attack.lambda", True, "a number or null"),
    ("attack.kind", 3, "a string"),
    ("output", 3, "a string or null"),
])
def test_run_rejects_a_config_value_of_the_wrong_json_type(tmp_path, capsys, path, value, expected):
    doc = json.loads((CONFIG_DIR / "quick_smoke.json").read_text())
    *sections, key = path.split(".")
    section = doc
    for name in sections:
        section = section[name]
    section[key] = value
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {path}: expected {expected}, got {json.dumps(value)}\n"
    assert not (tmp_path / "out").exists()


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "roles": {,}\n}')
    with pytest.raises(ConfigError, match=r"broken\.json:2:"):
        load_config(str(path))


@pytest.mark.parametrize("old, new, key", [
    ('"seed": 7', '"seed": 7, "seed": 8', "seed"),
    ('"attack": {', '"attack": {"kind": "none", ', "kind"),
    ('"classes": 2', '"classes": 2, "classes": 3', "classes"),
], ids=["top_level", "section", "nested"])
def test_run_rejects_a_repeated_json_key(tmp_path, capsys, old, new, key):
    # json keeps the last of two equal keys; a config that gives one twice is a fault, not a choice
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_doc()).replace(old, new, 1))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {path}: key {key!r} appears more than once in one object\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("opening", ["[", '{"a": '], ids=["arrays", "objects"])
def test_run_rejects_a_config_nested_too_deeply_to_parse(tmp_path, capsys, opening):
    path = tmp_path / "deep.json"
    path.write_text(opening * 100_000)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {path}: arrays or objects nested too deeply to parse\n"
    assert not (tmp_path / "out").exists()


def test_load_config_seed_precedence(tmp_path, monkeypatch):
    path = write_doc(tmp_path, tiny_doc())
    monkeypatch.delenv("DFL_SEED", raising=False)
    cfg, _ = load_config(path)
    assert cfg.seed == 7
    monkeypatch.setenv("DFL_SEED", "11")
    cfg, _ = load_config(path)
    assert cfg.seed == 11
    cfg, _ = load_config(path, seed_flag=23)
    assert cfg.seed == 23
    monkeypatch.setenv("DFL_SEED", "eleven")
    with pytest.raises(ConfigError, match="DFL_SEED"):
        load_config(path)


def test_an_empty_dfl_seed_counts_as_unset(tmp_path, monkeypatch):
    # `export DFL_SEED=` leaves the variable set but empty: the config seed holds, and --seed still wins
    path = write_doc(tmp_path, tiny_doc())
    monkeypatch.setenv("DFL_SEED", "")
    assert load_config(path)[0].seed == 7
    assert load_config(path, seed_flag=23)[0].seed == 23
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("doc_seed, env, flags, message", [
    (-1, None, [], "top level: seed must lie in [0, 2**64), got -1"),
    (2**64, None, [], "top level: seed must lie in [0, 2**64), got 18446744073709551616"),
    (7, "-1", [], "DFL_SEED='-1': seed must lie in [0, 2**64), got -1"),
    (7, None, ["--seed", str(2**64)], "--seed: seed must lie in [0, 2**64), got 18446744073709551616"),
    (7, "0", ["--seed", "-1"], "--seed: seed must lie in [0, 2**64), got -1"),
])
def test_run_rejects_a_seed_outside_64_bits(tmp_path, monkeypatch, capsys, doc_seed, env, flags, message):
    # a seed is never folded into range: -1 and 2**64 - 1 would give the same records
    if env is None:
        monkeypatch.delenv("DFL_SEED", raising=False)
    else:
        monkeypatch.setenv("DFL_SEED", env)
    out = tmp_path / "out"
    assert main(["run", write_doc(tmp_path, tiny_doc(seed=doc_seed)), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_run_accepts_the_largest_seed(tmp_path, monkeypatch):
    monkeypatch.delenv("DFL_SEED", raising=False)
    assert main(["run", write_doc(tmp_path, tiny_doc(seed=2**64 - 1)), "--out", str(tmp_path / "out")]) == 0


def test_sweep_rejects_a_repeat_seed_outside_64_bits_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DFL_SEED", raising=False)
    out = tmp_path / "sweep"
    code = main(["sweep", write_doc(tmp_path, tiny_doc(seed=2**64 - 1)), "--param", "lambda", "--values", "0.5",
                 "--repeats", "2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: --repeats 2: sweep seed seed + repeat = 18446744073709551615 + 1: "
        "seed must lie in [0, 2**64), got 18446744073709551616\n"
    )
    assert not out.exists()


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_shipped_config_loads(path, monkeypatch):
    monkeypatch.delenv("DFL_SEED", raising=False)
    doc = json.loads(path.read_text())
    cfg, output = load_config(str(path))
    assert output == doc.get("output")
    assert cfg.rounds == doc["rounds"] and cfg.seed == doc["seed"]


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def test_run_quick_smoke_config(tmp_path, monkeypatch):
    monkeypatch.delenv("DFL_SEED", raising=False)
    assert main(["run", str(CONFIG_DIR / "quick_smoke.json"), "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "records.csv").read_text().splitlines()) == 1 + 20


def test_run_writes_records_and_summary(tmp_path, capsys):
    path = write_doc(tmp_path, tiny_doc())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    lines = (out / "records.csv").read_text().splitlines()
    assert lines[0] == "round,mtas,mtans,gap,mean_selfish_loss,attack_started"
    assert len(lines) == 3  # header + 2 rounds
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds"] == 2
    assert summary["config"]["seed"] == 7
    assert summary["config"]["attack"]["lambda"] == 0.5
    assert "mtas=" in capsys.readouterr().out


def test_run_out_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_doc(tmp_path, tiny_doc(output="from_config"))
    assert main(["run", path]) == 0
    assert (tmp_path / "from_config" / "records.csv").exists()
    assert main(["run", path, "--out", str(tmp_path / "flag_wins")]) == 0
    assert (tmp_path / "flag_wins" / "records.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("out, error", [
    ("afile", "[Errno 17] File exists"),
    ("afile/sub", "[Errno 20] Not a directory"),
], ids=["file", "under_a_file"])
def test_an_output_directory_that_cannot_be_made_is_a_config_error_before_any_round(
    tmp_path, monkeypatch, capsys, command, out, error
):
    (tmp_path / "afile").write_text("")
    monkeypatch.setattr(Engine, "run_round", lambda self: pytest.fail("a round ran"))
    out = str(tmp_path / out)
    argv = {
        "run": ["run", write_doc(tmp_path, tiny_doc()), "--out", out],
        "sweep": ["sweep", write_doc(tmp_path, tiny_doc()), "--param", "lambda", "--values", "0", "--repeats", "1",
                  "--out", out],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: cannot create output directory {out}: {error}: '{out}'\n"


@pytest.mark.parametrize("command, blocked", [
    ("run", "records.csv"), ("run", "summary.json"), ("sweep", "lambda_0.5_rep1.csv"), ("sweep", "sweep_summary.json"),
])
def test_an_output_file_that_cannot_be_written_is_a_config_error_before_any_round(
    tmp_path, monkeypatch, capsys, command, blocked
):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    monkeypatch.setattr(Engine, "run_round", lambda self: pytest.fail("a round ran"))
    argv = {
        "run": ["run", write_doc(tmp_path, tiny_doc()), "--out", str(out)],
        "sweep": ["sweep", write_doc(tmp_path, tiny_doc()), "--param", "lambda", "--values", "0,0.5", "--repeats", "2",
                  "--out", str(out)],
    }[command]
    assert main(argv) == 1
    path = out / blocked
    assert capsys.readouterr().err == f"config error: cannot write output file {path}: [Errno 21] Is a directory: '{path}'\n"
    assert [p.name for p in out.iterdir()] == [blocked]  # the checks leave no file behind


def test_a_run_over_old_outputs_writes_the_same_bytes_as_a_fresh_run(tmp_path):
    path = write_doc(tmp_path, tiny_doc())
    assert main(["run", path, "--out", str(tmp_path / "fresh")]) == 0
    for name in ("records.csv", "summary.json"):
        (tmp_path / "old" / name).parent.mkdir(exist_ok=True)
        (tmp_path / "old" / name).write_text("stale\n" * 100)
    assert main(["run", path, "--out", str(tmp_path / "old")]) == 0
    for name in ("records.csv", "summary.json"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_run_seed_flag_changes_results(tmp_path):
    path = write_doc(tmp_path, tiny_doc())
    assert main(["run", path, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    assert main(["run", path, "--out", str(tmp_path / "c"), "--seed", "1"]) == 0
    a = (tmp_path / "a" / "records.csv").read_bytes()
    b = (tmp_path / "b" / "records.csv").read_bytes()
    c = (tmp_path / "c" / "records.csv").read_bytes()
    assert a != b and a == c


def test_run_config_error_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, tiny_doc(roles={"n": 2, "m": 1}))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.json")]) == 1


def test_run_runtime_error_exit_code(tmp_path, capsys):
    # a valid csv, but 5 rows cannot give each of 7 + 2 clients a shard
    data = tmp_path / "data.csv"
    data.write_text("f0,label\n0.5,0\n1.5,1\n2.5,0\n3.5,1\n4.5,0\n")
    doc = tiny_doc(roles={"n": 7, "m": 2}, data={"csv": {"path": str(data)}})
    path = write_doc(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert re.match(r"runtime error: client \d+ has an empty shard", capsys.readouterr().err)


@pytest.mark.parametrize("name, message", [
    ("nope.csv", r"cannot read {path}: \[Errno 2\] "),
    (".", r"cannot read {path}: \[Errno 21\] "),
    ("header_only.csv", r"{path}: no data rows$"),
], ids=["missing", "directory", "header_only"])
def test_run_rejects_an_unreadable_or_empty_csv_as_a_config_error(tmp_path, capsys, name, message):
    (tmp_path / "header_only.csv").write_text("f0,f1,label\n")
    data = str(tmp_path / name)
    doc = tiny_doc(data={"csv": {"path": data}})
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert re.match(r"config error: " + message.format(path=re.escape(data)), capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError("a config fault"), 1, "config error: a config fault"),
    (RuntimeError("a runtime fault"), 2, "runtime error: a runtime fault"),
], ids=["config", "runtime"])
def test_each_command_maps_errors_to_exit_codes(tmp_path, monkeypatch, capsys, command, error, code, prefix):
    import dflsim.cli as cli

    def fail(*args, **kwargs):
        raise error

    for name in ("Engine", "run_sweep", "run_all"):
        monkeypatch.setattr(cli, name, fail)
    path = write_doc(tmp_path, tiny_doc())
    argv = {
        "run": ["run", path, "--out", str(tmp_path / "out")],
        "sweep": ["sweep", path, "--param", "lambda", "--values", "0", "--repeats", "1", "--out", str(tmp_path / "s")],
        "verify": ["verify", "--trials", "10"],
    }[command]
    assert main(argv) == code
    assert prefix in capsys.readouterr().err


def test_bad_csv_header_is_a_config_error_for_run_and_sweep(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,target\n0.5,1.0,0\n1.5,2.0,1\n")
    path = write_doc(tmp_path, tiny_doc(data={"csv": {"path": str(data)}}))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert "config error: " in capsys.readouterr().err
    code = main(["sweep", path, "--param", "lambda", "--values", "0", "--repeats", "1", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "expected a header ending in 'label'" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"f0,f1,label\n0.5,1.0,0\n\n1.5,x,1\n", ":4: column 'f1': 'x' is not a number"),  # line 4, after a blank one
    (b"f0,f1,label\n0.5,1.0,0\n1.5,2.0\n", ": rows do not match the header width"),
    (b"f0,f1,label\n0.5,1.0,0\n1.5,2.0,0\n", ": the labels give 1 class, need at least 2"),
    (b"f0,f1,label\n0.5,1.0,0\nnan,2.0,1\n", ":3: column 'f0': 'nan' is not a finite number"),
    (b"f0,f1,label\n0.5,inf,0\n1.5,2.0,1\n", ":2: column 'f1': 'inf' is not a finite number"),
    (b"f0,f1,label\n0.5,1.0,0\n1.5,-Infinity,1\n", ":3: column 'f1': '-Infinity' is not a finite number"),
    (b"f0,f1,label\n0.5,1.0,0\n1.5,2.0,inf\n", ":3: column 'label': 'inf' is not a finite number"),
    (b"f0,f1,label\n0.5,1.0,0\n1.5,\xff\xfe,1\n", ": byte 26 (0xff) is not UTF-8 text"),
], ids=["cell", "width", "one_class", "nan", "inf", "minus_inf", "inf_label", "not_utf8"])
def test_run_rejects_a_csv_data_fault_as_a_config_error(tmp_path, capsys, content, message):
    data = tmp_path / "data.csv"
    data.write_bytes(content)
    doc = tiny_doc(data={"csv": {"path": str(data)}})
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {data}{message}\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_selfish_only_rule_that_cannot_aggregate_coalition(tmp_path, capsys):
    doc = tiny_doc(
        roles={"n": 6, "m": 2},
        rule={"kind": "trimmed_mean"},
        attack={"kind": "selfish", "info_mode": "selfish_only"},
    )
    path = write_doc(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert "attack.info_mode" in capsys.readouterr().err


@pytest.mark.parametrize("rule, path", [
    ({"kind": "trimmed_mean", "trim": 2}, "rule.trim"),
    ({"kind": "krum", "assumed_attackers": 2}, "rule.assumed_attackers"),
])
def test_run_rejects_rule_that_cannot_aggregate_what_its_receivers_read(tmp_path, capsys, rule, path):
    doc = json.loads((CONFIG_DIR / "quick_smoke.json").read_text())
    doc["rule"] = rule
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: top level: {path} = 2: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("partition, span", [
    ({"rho": 1.5, "groups": 2}, "[1/groups, 1] = [0.5000, 1]"),
    ({"rho": 0.4, "groups": 2}, "[1/groups, 1] = [0.5000, 1]"),
    ({"rho": -0.2}, "[1/groups, 1] = [0.5000, 1]"),  # one group per class, and the data has 2
    ({"rho": float("nan"), "groups": 2}, "[1/groups, 1] = [0.5000, 1]"),
    ({"rho": float("inf"), "groups": 2}, "[1/groups, 1] = [0.5000, 1]"),
])
def test_run_rejects_rho_outside_its_range(tmp_path, capsys, partition, span):
    path = write_doc(tmp_path, tiny_doc(partition=partition))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: top level: partition.rho = {partition['rho']}: must lie in {span}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rho_bounds_wait_on_a_csv_file_for_its_group_count(tmp_path):
    doc = tiny_doc(partition={"rho": 0.3, "groups": None}, data={"csv": {"path": str(tmp_path / "data.csv")}})
    assert config_from_dict(doc).partition.rho == 0.3  # checked against the classes once the data is read
    doc["partition"]["rho"] = 0.0
    with pytest.raises(ConfigError, match=r"partition\.rho = 0\.0: must lie in \(0, 1\]"):
        config_from_dict(doc)


@pytest.mark.parametrize("partition, data, message", [
    ({"rho": 0.5, "groups": 5}, None, "partition.groups = 5: cannot spread 5 groups over 4 clients"),
    ({"rho": 0.5}, {"synthetic": {"classes": 5, "features": 3, "per_class": 40}},
     "data.synthetic.classes = 5: cannot spread 5 groups (one per class, partition.groups null) over 4 clients"),
], ids=["groups", "classes"])
def test_run_rejects_more_partition_groups_than_clients(tmp_path, capsys, partition, data, message):
    doc = tiny_doc(partition=partition, **({"data": data} if data else {}))
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: top level: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("synthetic, message", [
    ({"classes": 1}, "classes must be >= 2, got 1"),
    ({"features": 1}, "features must be >= 2, got 1"),
    ({"per_class": 0}, "per_class must be >= 1, got 0"),
    ({"separation": -3.0}, "separation must be a finite value >= 0, got -3.0"),
], ids=["classes", "features", "per_class", "separation"])
def test_run_rejects_synthetic_data_faults_as_config_errors(tmp_path, capsys, synthetic, message):
    doc = json.loads((CONFIG_DIR / "quick_smoke.json").read_text())
    doc["data"]["synthetic"].update(synthetic)
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: data.synthetic: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, values, message", [
    ("attack", {"epsilon": 0}, "epsilon must lie in (0, 1), got 0"),
    ("attack", {"epsilon": 1}, "epsilon must lie in (0, 1), got 1"),
    ("attack", {"epsilon": float("nan")}, "epsilon must lie in (0, 1), got nan"),
    ("attack", {"interval": 0}, "interval must be >= 1, got 0"),
    ("attack", {"b": 0}, "b must be a finite value > 0, got 0"),
    ("attack", {"b": float("inf")}, "b must be a finite value > 0, got inf"),
    ("attack", {"lambda": -1}, "lambda must be a finite value >= 0, got -1"),
    ("attack", {"lambda": float("nan")}, "lambda must be a finite value >= 0, got nan"),
    ("trainer", {"learning_rate": float("nan")}, "learning_rate must be a finite value >= 0, got nan"),
    ("trainer", {"learning_rate": float("inf")}, "learning_rate must be a finite value >= 0, got inf"),
    ("trainer", {"weight_decay": float("nan")}, "weight_decay must be a finite value >= 0, got nan"),
    ("trainer", {"weight_decay": float("inf")}, "weight_decay must be a finite value >= 0, got inf"),
])
def test_run_rejects_attack_and_trainer_values_that_fail_in_round_one(tmp_path, capsys, section, values, message):
    doc = json.loads((CONFIG_DIR / "quick_smoke.json").read_text())
    doc[section].update(values)  # json writes inf and nan as the Infinity and NaN literals it reads back
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {section}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_csv_test_fraction_that_leaves_no_training_data(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n0.5,1.0,0\n1.5,2.0,1\n2.5,0.0,1\n")
    doc = tiny_doc(data={"csv": {"path": str(data), "test_fraction": 0.9}})
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error: data.csv.test_fraction = 0.9: a test set of 3 of 3 rows leaves no training data" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("classes, rho, message", [
    (5, 0.5, "the data's class count (partition.groups null) = 5: cannot spread 5 groups over 4 clients"),
    (2, 0.3, "partition.rho = 0.3: must lie in [1/groups, 1] = [0.5000, 1]"),
], ids=["classes", "rho"])
def test_run_rejects_a_csv_partition_fault_as_a_config_error(tmp_path, capsys, classes, rho, message):
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n" + "".join(f"{i % 7}.5,{i % 3},{i % classes}\n" for i in range(60)))
    doc = tiny_doc(partition={"rho": rho, "groups": None}, data={"csv": {"path": str(data)}})
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_fewer_clients_than_partition_groups_before_any_run(tmp_path, capsys):
    doc = tiny_doc(roles={"n": 5, "m": 1}, partition={"rho": 0.5, "groups": 5})
    out = tmp_path / "sweep"
    code = main(["sweep", write_doc(tmp_path, doc), "--param", "num_clients", "--values", "6,4",
                 "--repeats", "1", "--out", str(out)])
    assert code == 1
    assert "config error: --param num_clients=4: partition.groups = 5: cannot spread" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_selfish_only_without_the_selfish_attack(tmp_path, capsys):
    doc = tiny_doc(attack={"kind": "none", "info_mode": "selfish_only"})
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert "config error: attack: attack.info_mode 'selfish_only' needs attack.kind 'selfish'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_fltrust_with_zero_learning_rate_where_no_client_aggregates_with_it(tmp_path):
    doc = tiny_doc(rule={"kind": "fltrust"}, attack={"kind": "independent"}, trainer={"learning_rate": 0.0})
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_diverging_training_exit_code(tmp_path, capsys):
    doc = tiny_doc(trainer={"learning_rate": 1e6, "local_epochs": 3, "batch_size": 16}, rounds=60)
    path = write_doc(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "diverged" in capsys.readouterr().err


def test_run_empty_shard_exit_code(tmp_path, capsys):
    doc = tiny_doc(
        roles={"n": 14, "m": 6},
        data={"synthetic": {"classes": 2, "features": 3, "per_class": 5, "test_per_class": 5}},
    )
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 2
    assert re.search(r"runtime error: client \d+ has an empty shard", capsys.readouterr().err)


def test_run_rejects_fltrust_with_zero_learning_rate(tmp_path, capsys):
    doc = tiny_doc(rule={"kind": "fltrust"}, trainer={"learning_rate": 0.0})
    assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert "config error: top level: trainer.learning_rate 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_sweep_writes_per_cell_files_and_summary(tmp_path, capsys):
    path = write_doc(tmp_path, tiny_doc())
    out = tmp_path / "sweep"
    code = main(["sweep", path, "--param", "lambda", "--values", "0,0.5", "--repeats", "1", "--out", str(out)])
    assert code == 0
    assert (out / "lambda_0.0_rep0.csv").exists()
    assert (out / "lambda_0.5_rep0.csv").exists()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["values"] == [0.0, 0.5]
    assert "lambda=0.5" in capsys.readouterr().out


def test_sweep_rejects_bad_values(tmp_path, capsys):
    path = write_doc(tmp_path, tiny_doc())
    code = main(["sweep", path, "--param", "lambda", "--values", "0,zebra", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one_before_any_run(tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    code = main(["sweep", write_doc(tmp_path, tiny_doc()), "--param", "lambda", "--values", "0.5",
                 "--repeats", "1", "--jobs", jobs, "--out", str(out)])
    assert code == 1
    assert f"config error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_an_invalid_cell_before_any_run(tmp_path, capsys):
    doc = tiny_doc(roles={"n": 14, "m": 6})
    out = tmp_path / "sweep"
    code = main(["sweep", write_doc(tmp_path, doc), "--param", "selfish_fraction", "--values", "0.1,0.5",
                 "--repeats", "1", "--out", str(out)])
    assert code == 1
    assert "config error: --param selfish_fraction=0.5: " in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_rho_outside_its_range_before_any_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", write_doc(tmp_path, tiny_doc()), "--param", "rho", "--values", "0.7,1.5",
                 "--repeats", "1", "--out", str(out)])
    assert code == 1
    assert "config error: --param rho=1.5: partition.rho = 1.5: must lie in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--values", "0.5", "--repeats", "0"], "repeats must be >= 1, got 0"),
    (["--values", ","], "sweep needs at least one value"),
    (["--values", "0.5,0.50"], "--values: 0.5 repeated"),
])
def test_sweep_rejects_bad_values_or_repeats_before_any_run(tmp_path, capsys, flags, message):
    out = tmp_path / "sweep"
    code = main(["sweep", write_doc(tmp_path, tiny_doc()), "--param", "lambda", *flags, "--out", str(out)])
    assert code == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_fractions_that_give_the_same_roles_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(Engine, "run_round", lambda self: pytest.fail("a round ran"))
    out = tmp_path / "dup"
    code = main(["sweep", write_doc(tmp_path, tiny_doc(roles={"n": 19, "m": 1})), "--param", "selfish_fraction",
                 "--values", "0.01,0.02", "--repeats", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "config error: --values: selfish_fraction=0.02 gives the same config as 0.01\n"
    assert not out.exists()


def test_sweep_unknown_param_rejected_by_parser(tmp_path, capsys):
    path = write_doc(tmp_path, tiny_doc())
    out = tmp_path / "sweep"
    assert main(["sweep", path, "--param", "gamma", "--values", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: argument --param: invalid choice: 'gamma' (choose from ")
    assert not out.exists()


def test_sweep_pins_the_message_of_a_value_that_does_not_convert(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", write_doc(tmp_path, tiny_doc()), "--param", "lambda", "--values", "0.5,x", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "config error: --values: could not convert string to float: 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("rule, attack, param, message", [
    ("median", "gaussian", "lambda", "attack.kind 'gaussian' never reads lambda, only 'selfish' does"),
    ("median", "none", "epsilon", "attack.kind 'none' never reads epsilon, only 'selfish' does"),
    ("median", "trim", "interval", "attack.kind 'trim' never reads interval, only 'selfish' does"),
    ("flame", "selfish", "lambda", "the selfish crafting against rule 'flame' never reads lambda"),
], ids=["gaussian-lambda", "none-epsilon", "trim-interval", "flame-lambda"])
def test_sweep_rejects_a_parameter_that_no_run_reads_before_any_run(tmp_path, monkeypatch, capsys,
                                                                  rule, attack, param, message):
    # every value would run the same experiment: the cells' CSVs would be byte-identical
    monkeypatch.setattr(Engine, "run_round", lambda self: pytest.fail("a round ran"))
    doc = json.loads((CONFIG_DIR / "quick_smoke.json").read_text())
    doc["rule"], doc["attack"]["kind"] = {"kind": rule}, attack
    out = tmp_path / "sweep"
    code = main(["sweep", write_doc(tmp_path, doc), "--param", param, "--values", "3,4", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"config error: --param {param}=3{'' if param == 'interval' else '.0'}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "{cfg}", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["run"], "the following arguments are required: config"),
    (["sweep", "{cfg}", "--param", "lambda"], "the following arguments are required: --values"),
    (["sweep", "{cfg}", "--param", "lambda", "--values", "1", "--repeats", "two"], "argument --repeats: invalid int"),
    (["verify", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
    (["verify", "--trails", "5"], "unrecognized arguments: --trails 5"),
    ([], "the following arguments are required: command"),
], ids=["seed", "no-config", "no-values", "repeats", "trials", "unknown-flag", "no-command"])
def test_a_usage_error_exits_1_naming_the_flag(tmp_path, capsys, argv, flag):
    cfg = write_doc(tmp_path, tiny_doc())
    assert main([arg.format(cfg=cfg) for arg in argv]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {flag}")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--help"])
    assert exit_.value.code == 0
    assert "--param" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_prints_one_line_per_suite(capsys):
    assert main(["verify", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("pass") or line.startswith("FAIL")]
    assert len(lines) == 5
    assert all(line.startswith("pass") for line in lines)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(monkeypatch, capsys, trials):
    import dflsim.cli as cli

    monkeypatch.setattr(cli, "run_all", lambda trials, seed: pytest.fail("a suite ran"))
    assert main(["verify", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert f"config error: --trials must be >= 1, got {trials}" in captured.err
    assert "pass" not in captured.out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_rejects_a_seed_outside_64_bits(monkeypatch, capsys, seed):
    import dflsim.cli as cli

    monkeypatch.setattr(cli, "run_all", lambda trials, seed: pytest.fail("a suite ran"))
    assert main(["verify", "--trials", "10", "--seed", seed]) == 1
    assert capsys.readouterr().err == f"config error: --seed: seed must lie in [0, 2**64), got {seed}\n"


def test_verify_failure_exit_code(monkeypatch, capsys):
    import dflsim.cli as cli
    import dflsim.verify as verify

    broken = verify.SuiteResult(
        name="fedavg-identity", trials=10, failures=3,
        counters={}, first_failure={"trial": 0}, seconds=0.0,
    )
    monkeypatch.setattr(cli, "run_all", lambda trials, seed: [broken])
    assert main(["verify", "--trials", "10"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "counterexample" in captured.err
