"""Per-round records, CSV persistence, and parameter sweeps."""

from __future__ import annotations

import csv
import json
import numbers
import os
import typing
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigError, RoleConfig, check_seed


@dataclass(frozen=True)
class ExperimentRecord:
    """Metrics of one round.

    ``mtas``/``mtans`` are the mean test accuracies of the selfish and
    non-selfish clients on the shared test set; ``gap`` is their difference,
    exactly ``mtas - mtans`` in a record the engine builds.  A record read
    back from a CSV keeps the stored gap, which :func:`read_records` checks.
    """

    round: int
    mtas: float
    mtans: float
    gap: float
    mean_selfish_loss: float
    attack_started: bool


# type of a record field -> (how write_records formats its value, how read_records parses it)
_CSV_CODECS = {
    int: (str, int),
    float: ("{:.6f}".format, float),
    bool: (lambda value: "true" if value else "false", lambda text: text == "true"),
}
_CSV_COLUMNS = [(name, *_CSV_CODECS[kind]) for name, kind in typing.get_type_hints(ExperimentRecord).items()]
CSV_FIELDS = tuple(name for name, _, _ in _CSV_COLUMNS)
# mtas, mtans and gap are each written to half a unit of the sixth decimal, so
# a file's gap may differ from its mtas - mtans by three half-units (and binary rounding)
_GAP_TOLERANCE = 1.5e-6 + 1e-12


def write_records(records, path: str) -> None:
    """Write records as CSV with six-decimal floats and lowercase booleans."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerows([fmt(getattr(rec, name)) for name, fmt, _ in _CSV_COLUMNS] for rec in records)


def make_output_dir(path: str, files=()) -> None:
    """Create directory ``path`` and its parents, and check that each of
    ``files`` can be written in it; a ConfigError naming the directory or
    file if not.  A checked file that did not exist is removed again."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None
    for file in (os.path.join(path, name) for name in files):
        existed = os.path.lexists(file)
        try:
            open(file, "a").close()  # appends nothing to a file that exists
        except OSError as exc:
            raise ConfigError(f"cannot write output file {file}: {exc}") from None
        if not existed:
            os.remove(file)


def read_records(path: str) -> list[ExperimentRecord]:
    """Parse a records CSV written by :func:`write_records`, keeping each
    stored gap, so writing the records again gives the same bytes.  A gap
    farther from ``mtas - mtans`` than the six-decimal rounding of the
    three values allows raises ValueError naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_FIELDS:
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        records = []
        for row in reader:
            rec = ExperimentRecord(**{name: parse(row[name]) for name, _, parse in _CSV_COLUMNS})
            if not abs(rec.gap - (rec.mtas - rec.mtans)) <= _GAP_TOLERANCE:  # NaN fails too
                raise ValueError(
                    f"{path}:{reader.line_num}: gap {row['gap']} is not mtas - mtans = {row['mtas']} - {row['mtans']}"
                )
            records.append(rec)
        return records


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _selfish_attack_field(parameter: str, field: str, unread_under: str | None = None):
    """The setter of attack field ``field``, which only the selfish attack reads, and not its
    crafting against rule ``unread_under``: under any other, every value would run one experiment."""

    def apply(cfg, value):
        if cfg.attack.kind != "selfish":
            raise ValueError(f"attack.kind {cfg.attack.kind!r} never reads {parameter}, only 'selfish' does")
        if cfg.rule.kind == unread_under:
            raise ValueError(f"the selfish crafting against rule {unread_under!r} never reads {parameter}")
        return replace(cfg, attack=replace(cfg.attack, **{field: value}))

    return apply


def _set_roles(cfg, total: int, fraction: float):
    if not 0.0 < fraction < 1.0:  # NaN fails too
        raise ValueError(f"selfish_fraction must lie in (0, 1), got {fraction}")
    m = max(1, int(round(fraction * total)))
    return replace(cfg, roles=RoleConfig(n=total - m, m=m))


# sweep parameter -> (the type of its values, the copy of a config with one value applied);
# selfish_fraction keeps the client count, num_clients the selfish fraction
SWEEP_PARAMETERS = {
    "lambda": (float, _selfish_attack_field("lambda", "lam", unread_under="flame")),
    "rho": (float, lambda cfg, value: replace(cfg, partition=replace(cfg.partition, rho=value))),
    "selfish_fraction": (float, lambda cfg, value: _set_roles(cfg, cfg.roles.total, value)),
    "epsilon": (float, _selfish_attack_field("epsilon", "epsilon")),
    "interval": (int, _selfish_attack_field("interval", "interval")),
    "num_clients": (int, lambda cfg, value: _set_roles(cfg, value, cfg.roles.m / cfg.roles.total)),
}


def _convert(kind, value):
    """A sweep value as its parameter's type ``kind``: a string (the CLI's) is
    parsed, and a number must be one already, not a bool or a fraction for int."""
    converted = kind(value)
    if isinstance(value, bool) or (kind is int and not isinstance(value, str) and converted != value):
        raise ValueError(f"{value!r} is not {'an integer' if kind is int else 'a number'}")
    return converted


def _sweep_cell(args):
    from .simulation import run_experiment

    cfg, value, repeat = args
    return value, repeat, run_experiment(replace(cfg, seed=cfg.seed + repeat))


def run_sweep(
    cfg,
    parameter: str,
    values,
    repeats: int = 3,
    out_dir: str | None = None,
    jobs: int = 1,
    config_doc: dict | None = None,
) -> dict:
    """Sweep ``parameter`` of ``cfg`` over ``values`` and return the summary.

    Each value is converted to the parameter's type and applied to ``cfg``
    once, before any cell runs; a ConfigError names the first bad argument.
    Per value, ``repeats`` experiments run with seeds ``cfg.seed + 0 ..
    cfg.seed + repeats - 1`` (a ConfigError if one reaches 2**64); the
    summary averages the final-round metrics over repeats.  With
    ``out_dir`` set, each cell's records land in
    ``<parameter>_<value>_rep<k>.csv`` as soon as the cell finishes.
    ``config_doc`` is echoed into the summary so results stay reproducible.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}, expected one of {tuple(SWEEP_PARAMETERS)}")
    kind, apply = SWEEP_PARAMETERS[parameter]
    try:
        values = [_convert(kind, value) for value in values]
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"--values: {exc}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")
    for flag, count in (("--repeats", repeats), ("--jobs", jobs)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ConfigError(f"{flag} must be an integer, got {count!r}")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    configs = {}  # value -> its config; cells, their files and the summary are keyed by value
    for value in values:
        if value in configs:
            raise ConfigError(f"--values: {value} repeated")
        try:
            config = apply(cfg, value)
        except ValueError as exc:
            raise ConfigError(f"--param {parameter}={value}: {exc}") from None
        same = [earlier for earlier, other in configs.items() if other == config]
        if same:
            raise ConfigError(f"--values: {parameter}={value} gives the same config as {same[0]}")
        configs[value] = config
    last = repeats - 1  # the last repeat runs with the largest seed
    check_seed(cfg.seed + last, f"--repeats {repeats}: sweep seed seed + repeat = {cfg.seed} + {last}")
    cells = {(v, k): f"{parameter}_{v}_rep{k}.csv" for v in configs for k in range(repeats)}  # cell -> its CSV
    if out_dir is not None:
        make_output_dir(out_dir, [*cells.values(), "sweep_summary.json"])
    finals = {value: [None] * repeats for value in values}  # final record per repeat

    def finish(value, repeat, records) -> None:
        finals[value][repeat] = records[-1]
        if out_dir is not None:
            write_records(records, os.path.join(out_dir, cells[value, repeat]))

    tasks = [(configs[value], value, repeat) for value, repeat in cells]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed  # only here: a run need not load it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_cell, task) for task in tasks]
            for future in as_completed(futures):
                if future.exception() is None:
                    finish(*future.result())
        for future in futures:
            future.result()  # a failed cell raises once every finished one is written
    else:
        for task in tasks:
            finish(*_sweep_cell(task))

    summary = {
        "parameter": parameter,
        "values": values,
        "mean_gap": [float(np.mean([r.gap for r in finals[v]])) for v in values],
        "mean_mtas": [float(np.mean([r.mtas for r in finals[v]])) for v in values],
        "mean_mtans": [float(np.mean([r.mtans for r in finals[v]])) for v in values],
    }
    if config_doc is not None:
        summary["config"] = config_doc
    if out_dir is not None:
        with open(os.path.join(out_dir, "sweep_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
    return summary
