"""Command-line entry points: run one experiment, sweep a parameter, or
run the randomized self-checks.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 failed
self-check.  The ``DFL_SEED`` environment variable overrides the config
seed; a ``--seed`` flag overrides both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

from .aggregation import AggregationRule
from .core import ConfigError, RoleConfig
from .reporting import SWEEP_PARAMETERS, SweepSpec, run_sweep, write_records
from .simulation import (
    AttackConfig,
    CsvDataConfig,
    ExperimentConfig,
    PartitionConfig,
    SyntheticDataConfig,
    TrainerConfig,
    run_experiment,
)
from .verify import run_all

# config keys that rename to python identifiers
_ATTACK_KEYS = {"lambda": "lam"}

# type of a config field -> (what its JSON value must be, the JSON value types that fit)
_JSON_TYPES = {
    int: ("an integer", (int,)), float: ("a number", (int, float)), bool: ("true or false", (bool,)),
    str: ("a string", (str,)), type(None): ("null", (type(None),)),
}


def _check_json_type(hint, value, path: str) -> None:
    """Reject a JSON value whose type does not fit a field annotated ``hint``; an int field takes no 2.0."""
    options = typing.get_args(hint) or (hint,)
    if any(option not in _JSON_TYPES for option in options):
        return  # a field of a config type parses its own value
    if not any(type(value) in _JSON_TYPES[option][1] for option in options):
        expected = " or ".join(_JSON_TYPES[option][0] for option in options)
        raise ConfigError(f"{path}: expected {expected}, got {json.dumps(value)}")


def _build(cls, doc: dict, path: str, renames: dict | None = None, nested: dict | None = None):
    """Construct a config dataclass from a JSON mapping with path-tagged errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    renames = renames or {}
    nested = nested or {}
    hints = typing.get_type_hints(cls)
    allowed = (set(hints) - set(renames.values())) | set(renames)
    kwargs = {}
    for key, value in doc.items():
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (expected one of {sorted(allowed)})")
        name = renames.get(key, key)
        _check_json_type(hints[name], value, f"{path}.{key}")
        if name in nested and value is not None:
            value = nested[name](value, f"{path}.{key}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_rule(doc, path: str) -> AggregationRule:
    return _build(AggregationRule, doc, path)


def _parse_data(doc, path: str):
    if not isinstance(doc, dict) or len(doc) != 1 or next(iter(doc)) not in ("synthetic", "csv"):
        raise ConfigError(f"{path}: expected exactly one of 'synthetic' or 'csv'")
    key, body = next(iter(doc.items()))
    if key == "synthetic":
        return _build(SyntheticDataConfig, body, f"{path}.synthetic")
    return _build(CsvDataConfig, body, f"{path}.csv")


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a JSON config document into an :class:`ExperimentConfig`."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    sections = {
        "roles": lambda d, p: _build(RoleConfig, d, p),
        "rule": _parse_rule,
        "attack": lambda d, p: _build(AttackConfig, d, p, renames=_ATTACK_KEYS, nested={"selfish_rule": _parse_rule}),
        "trainer": lambda d, p: _build(TrainerConfig, d, p),
        "partition": lambda d, p: _build(PartitionConfig, d, p),
        "data": _parse_data,
    }
    kwargs = {}
    for key, value in doc.items():
        if key in sections:
            kwargs[key] = sections[key](value, key)
        elif key in ("rounds", "seed"):
            _check_json_type(typing.get_type_hints(ExperimentConfig)[key], value, key)
            kwargs[key] = value
        elif key != "output":
            raise ConfigError(f"{key}: unknown top-level key")
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"top level: {exc}") from None


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Serialize a config back to JSON form, each field as given (null where it defaults)."""
    doc = dataclasses.asdict(cfg)
    doc["attack"]["lambda"] = doc["attack"].pop("lam")
    doc["data"] = {"synthetic" if isinstance(cfg.data, SyntheticDataConfig) else "csv": doc["data"]}
    return doc


def load_config(path: str, seed_flag: int | None = None) -> tuple[ExperimentConfig, str | None]:
    """Read a JSON config file, applying seed overrides.

    Returns the config and the optional ``output`` directory it names.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    output = doc.get("output") if isinstance(doc, dict) else None
    _check_json_type(str | None, output, "output")
    cfg = config_from_dict(doc)
    env_seed = os.environ.get("DFL_SEED")
    if env_seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=int(env_seed))
        except ValueError:
            raise ConfigError(f"DFL_SEED={env_seed!r} is not an integer") from None
    if seed_flag is not None:
        cfg = dataclasses.replace(cfg, seed=seed_flag)
    return cfg, output


def cmd_run(args) -> int:
    cfg, output = load_config(args.config, args.seed)
    out_dir = args.out or output or "out"
    records = run_experiment(cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_records(records, os.path.join(out_dir, "records.csv"))
    final = records[-1]
    summary = {
        "rounds": cfg.rounds,
        "final": {
            "mtas": final.mtas,
            "mtans": final.mtans,
            "gap": final.gap,
            "attack_started": final.attack_started,
        },
        "config": config_to_dict(cfg),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(
        f"round {final.round}: mtas={final.mtas:.6f} mtans={final.mtans:.6f} "
        f"gap={final.gap:.6f} attack_started={str(final.attack_started).lower()}"
    )
    print(f"wrote {os.path.join(out_dir, 'records.csv')}")
    return 0


def _parse_values(parameter: str, text: str) -> tuple:
    try:
        return tuple(SWEEP_PARAMETERS[parameter](part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from None


def cmd_sweep(args) -> int:
    cfg, output = load_config(args.config, args.seed)
    values = _parse_values(args.param, args.values)
    try:
        spec = SweepSpec(parameter=args.param, values=values, repeats=args.repeats)
    except ValueError as exc:  # a check on --values or --repeats
        raise ConfigError(str(exc)) from None
    out_dir = args.out or output or "sweep"
    summary = run_sweep(cfg, spec, out_dir=out_dir, jobs=args.jobs, config_doc=config_to_dict(cfg))
    for value, gap, mtas, mtans in zip(
        summary["values"], summary["mean_gap"], summary["mean_mtas"], summary["mean_mtans"]
    ):
        print(f"{args.param}={value}: mean_gap={gap:.6f} mean_mtas={mtas:.6f} mean_mtans={mtans:.6f}")
    print(f"wrote {os.path.join(out_dir, 'sweep_summary.json')}")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:  # a self-check that checks nothing must not pass
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    results = run_all(trials=args.trials, seed=args.seed if args.seed is not None else 0)
    failed = False
    for result in results:
        print(result.describe())
        if not result.passed:
            failed = True
            print(f"counterexample: {json.dumps(result.first_failure)}", file=sys.stderr)
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dflsim",
        description="Decentralized federated learning simulator with selfish model-crafting attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory (default: config 'output' or ./out)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a list of values")
    p_sweep.add_argument("config", help="path to the JSON config")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMETERS, help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--repeats", type=int, default=3, help="repeats per value (default 3)")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes (default 1)")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep.add_argument("--out", default=None, help="output directory (default: config 'output' or ./sweep)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the randomized crafting self-checks")
    p_verify.add_argument("--trials", type=int, default=10_000, help="trials per identity suite")
    p_verify.add_argument("--seed", type=int, default=None, help="seed of the random instances")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place that maps an error to an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # also raised while a csv data file loads
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
