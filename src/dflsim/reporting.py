"""Per-round records, CSV persistence, and parameter sweeps."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import typing
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, RoleConfig, check_seed

# sweep parameter -> the type of its values
SWEEP_PARAMETERS = {
    "lambda": float, "rho": float, "selfish_fraction": float, "epsilon": float, "interval": int, "num_clients": int,
}


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

@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, the values to try, and repeats per value."""

    parameter: str
    values: tuple
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}, expected one of {tuple(SWEEP_PARAMETERS)}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


def apply_parameter(cfg, parameter: str, value):
    """Return a copy of ``cfg`` with one swept parameter applied."""
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    value = SWEEP_PARAMETERS[parameter](value)
    if parameter == "selfish_fraction" and not 0.0 < value < 1.0:  # NaN fails too
        raise ValueError(f"selfish_fraction must lie in (0, 1), got {value}")
    if parameter in ("lambda", "epsilon", "interval"):
        field = "lam" if parameter == "lambda" else parameter
        return dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, **{field: value}))
    if parameter == "rho":
        return dataclasses.replace(cfg, partition=dataclasses.replace(cfg.partition, rho=value))
    # selfish_fraction keeps the client count, num_clients the selfish fraction
    total = value if parameter == "num_clients" else cfg.roles.total
    fraction = value if parameter == "selfish_fraction" else cfg.roles.m / cfg.roles.total
    m = max(1, int(round(fraction * total)))
    return dataclasses.replace(cfg, roles=RoleConfig(n=total - m, m=m))


def _sweep_cell(args):
    from .simulation import run_experiment

    cfg, value, repeat = args
    return value, repeat, run_experiment(dataclasses.replace(cfg, seed=cfg.seed + repeat))


def run_sweep(
    cfg,
    spec: SweepSpec,
    out_dir: str | None = None,
    jobs: int = 1,
    config_doc: dict | None = None,
) -> dict:
    """Run the sweep and return its summary.

    Every value is applied to ``cfg`` once, before any cell runs, and one
    that gives an invalid config, is repeated, or gives the same config as
    an earlier value, raises :class:`ConfigError`; so does an output file
    that cannot be written.
    Per value, ``spec.repeats`` experiments run with seeds ``cfg.seed + 0
    .. cfg.seed + repeats - 1`` (a ConfigError if one reaches 2**64); the
    summary averages the final-round metrics over repeats.  With
    ``out_dir`` set, each cell's records land in
    ``<parameter>_<value>_rep<k>.csv`` as soon as the cell finishes.
    ``config_doc`` is echoed into the summary so results stay reproducible.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    configs = {}  # value -> its config; cells, their files and the summary are keyed by value
    for value in spec.values:
        if value in configs:
            raise ConfigError(f"--values: {value} repeated")
        try:
            config = apply_parameter(cfg, spec.parameter, value)
        except ValueError as exc:
            raise ConfigError(f"--param {spec.parameter}={value}: {exc}") from None
        same = [earlier for earlier, other in configs.items() if other == config]
        if same:
            raise ConfigError(f"--values: {spec.parameter}={value} gives the same config as {same[0]}")
        configs[value] = config
    last = spec.repeats - 1  # the last repeat runs with the largest seed
    check_seed(cfg.seed + last, f"--repeats {spec.repeats}: sweep seed seed + repeat = {cfg.seed} + {last}")
    cells = {(v, k): f"{spec.parameter}_{v}_rep{k}.csv" for v in configs for k in range(spec.repeats)}  # cell -> its CSV
    if out_dir is not None:
        make_output_dir(out_dir, [*cells.values(), "sweep_summary.json"])
    finals = {value: [None] * spec.repeats for value in spec.values}  # final record per repeat

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
        "parameter": spec.parameter,
        "values": list(spec.values),
        "mean_gap": [float(np.mean([r.gap for r in finals[v]])) for v in spec.values],
        "mean_mtas": [float(np.mean([r.mtas for r in finals[v]])) for v in spec.values],
        "mean_mtans": [float(np.mean([r.mtans for r in finals[v]])) for v in spec.values],
    }
    if config_doc is not None:
        summary["config"] = config_doc
    if out_dir is not None:
        with open(os.path.join(out_dir, "sweep_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
    return summary
