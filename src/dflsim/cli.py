"""Command-line entry points: run one experiment, sweep a parameter, or
run the randomized self-checks.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime error,
3 failed self-check.  The ``DFL_SEED`` environment variable overrides the config
seed unless it is empty; a ``--seed`` flag overrides both.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import typing

from .core import ConfigError, check_seed
from .reporting import SWEEP_PARAMETERS, make_output_dir, run_sweep, write_records
from .simulation import CsvDataConfig, Engine, ExperimentConfig, SyntheticDataConfig
from .verify import run_all

if typing.TYPE_CHECKING:
    import argparse

# the fields whose JSON key is not their name ("lambda" is a python keyword)
_JSON_KEYS = {"lam": "lambda"}
# the sources a data field names, as {"synthetic": {...}} or {"csv": {...}}
_SOURCES = {"synthetic": SyntheticDataConfig, "csv": CsvDataConfig}

# type of a config field -> (what its JSON value must be, the JSON value types that fit)
_JSON_TYPES = {
    int: ("an integer", (int,)), float: ("a number", (int, float)), bool: ("true or false", (bool,)),
    str: ("a string", (str,)), type(None): ("null", (type(None),)),
}


def _parse(hint, value, path: str):
    """Map a JSON value onto a field annotated ``hint``.

    A field of a config type is built from its object; any other value must
    have the JSON type of its field (an int field takes no 2.0).
    """
    options = typing.get_args(hint) or (hint,)
    configs = [option for option in options if dataclasses.is_dataclass(option)]
    if not configs:
        if not any(type(value) in _JSON_TYPES[option][1] for option in options):
            expected = " or ".join(_JSON_TYPES[option][0] for option in options)
            raise ConfigError(f"{path}: expected {expected}, got {json.dumps(value)}")
        return value
    if len(configs) > 1:  # a union of data sources: the object names its one source
        if not isinstance(value, dict) or len(value) != 1 or next(iter(value)) not in _SOURCES:
            raise ConfigError(f"{path}: expected exactly one of {' or '.join(map(repr, _SOURCES))}")
        ((source, body),) = value.items()
        return _build(_SOURCES[source], body, f"{path}.{source}")
    return None if value is None and type(None) in options else _build(configs[0], value, path)


def _build(cls, doc, path: str):
    """Construct config dataclass ``cls`` from a JSON object by its type hints; errors name the path ("" at the top)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    hints = typing.get_type_hints(cls)
    fields = {_JSON_KEYS.get(name, name): name for name in hints}  # JSON key -> field
    kwargs = {}
    for key, value in doc.items():
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown key (expected one of {sorted(fields)})" if path
                              else f"{key}: unknown top-level key")
        kwargs[fields[key]] = _parse(hints[fields[key]], value, f"{path}.{key}" if path else key)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'top level'}: {exc}") from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a JSON config document into an :class:`ExperimentConfig`."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    return _build(ExperimentConfig, {key: value for key, value in doc.items() if key != "output"}, "")


def config_to_dict(cfg) -> dict:
    """Serialize a config back to JSON form, each field as given (null where it defaults); a renamed key goes last."""
    doc = {field.name: getattr(cfg, field.name) for field in dataclasses.fields(cfg)}
    doc = {name: config_to_dict(value) if dataclasses.is_dataclass(value) else value for name, value in doc.items()}
    for name, key in _JSON_KEYS.items():
        if name in doc:
            doc[key] = doc.pop(name)
    source = [key for key, cls in _SOURCES.items() if isinstance(cfg, cls)]
    return {source[0]: doc} if source else doc


def _unique_keys(pairs: list, path: str) -> dict:
    """A JSON object's mapping; a key given twice is rejected rather than the last one kept."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"{path}: key {key!r} appears more than once in one object")
        doc[key] = value
    return doc


def load_config(path: str, seed_flag: int | None = None) -> tuple[ExperimentConfig, str | None]:
    """Read a JSON config file, applying seed overrides.

    Returns the config and the optional ``output`` directory it names.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=lambda pairs: _unique_keys(pairs, path))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"{path}: arrays or objects nested too deeply to parse") from None
    output = _parse(str | None, doc.get("output") if isinstance(doc, dict) else None, "output")
    cfg = config_from_dict(doc)
    env_seed = os.environ.get("DFL_SEED")
    if env_seed:  # an empty value counts as unset
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"DFL_SEED={env_seed!r} is not an integer") from None
        cfg = dataclasses.replace(cfg, seed=check_seed(seed, f"DFL_SEED={env_seed!r}"))
    if seed_flag is not None:
        cfg = dataclasses.replace(cfg, seed=check_seed(seed_flag, "--seed"))
    return cfg, output


def cmd_run(args) -> int:
    cfg, output = load_config(args.config, args.seed)
    out_dir = args.out or output or "out"
    engine = Engine(cfg)  # loads and checks the data first: a faulty config leaves no directory behind
    make_output_dir(out_dir, ("records.csv", "summary.json"))  # before round 1, so a bad --out costs no training
    records = engine.run()
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


def cmd_sweep(args) -> int:
    cfg, output = load_config(args.config, args.seed)
    out_dir = args.out or output or "sweep"
    values = [part for part in args.values.split(",") if part.strip() != ""]
    summary = run_sweep(cfg, args.param, values, args.repeats, out_dir, args.jobs, config_to_dict(cfg))
    for value, gap, mtas, mtans in zip(
        summary["values"], summary["mean_gap"], summary["mean_mtas"], summary["mean_mtans"]
    ):
        print(f"{args.param}={value}: mean_gap={gap:.6f} mean_mtas={mtas:.6f} mean_mtans={mtans:.6f}")
    print(f"wrote {os.path.join(out_dir, 'sweep_summary.json')}")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:  # a self-check that checks nothing must not pass
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    seed = check_seed(args.seed if args.seed is not None else 0, "--seed")
    results = run_all(trials=args.trials, seed=seed)
    for result in results:
        print(result.describe())
        if not result.passed:
            print(f"counterexample: {json.dumps(result.first_failure)}", file=sys.stderr)
    return 0 if all(result.passed for result in results) else 3


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, not at the top: a run that only reads configs does not need it

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # a bad flag exits 1 as a config error, not with argparse's 2
            raise ConfigError(message)

    parser = Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:  # also raised while a csv data file loads
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
