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
    non-selfish clients on the shared test set; ``gap`` is their difference.
    """

    round: int
    mtas: float
    mtans: float
    gap: float
    mean_selfish_loss: float
    attack_started: bool

    def __post_init__(self) -> None:
        if abs(self.gap - (self.mtas - self.mtans)) > 1e-12:
            raise ValueError("gap must equal mtas - mtans")


# type of a record field -> (how write_records formats its value, how read_records parses it)
_CSV_CODECS = {
    int: (str, int),
    float: ("{:.6f}".format, float),
    bool: (lambda value: "true" if value else "false", lambda text: text == "true"),
}
_CSV_COLUMNS = [(name, *_CSV_CODECS[kind]) for name, kind in typing.get_type_hints(ExperimentRecord).items()]
CSV_FIELDS = tuple(name for name, _, _ in _CSV_COLUMNS)


def write_records(records, path: str) -> None:
    """Write records as CSV with six-decimal floats and lowercase booleans."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerows([fmt(getattr(rec, name)) for name, fmt, _ in _CSV_COLUMNS] for rec in records)


def make_output_dir(path: str) -> None:
    """Create directory ``path`` and its parents; a ConfigError naming it if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


def read_records(path: str) -> list[ExperimentRecord]:
    """Parse a records CSV written by :func:`write_records`."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_FIELDS:
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        return [ExperimentRecord(**{name: parse(row[name]) for name, _, parse in _CSV_COLUMNS}) for row in reader]


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

    cfg, parameter, value, repeat = args
    cell_cfg = apply_parameter(cfg, parameter, value)
    cell_cfg = dataclasses.replace(cell_cfg, seed=cfg.seed + repeat)
    return value, repeat, run_experiment(cell_cfg)


def run_sweep(
    cfg,
    spec: SweepSpec,
    out_dir: str | None = None,
    jobs: int = 1,
    config_doc: dict | None = None,
) -> dict:
    """Run the sweep and return its summary.

    Every value is applied to ``cfg`` before any cell runs, and one that
    gives an invalid config, or is repeated, raises :class:`ConfigError`.
    Per value, ``spec.repeats`` experiments run with seeds ``cfg.seed + 0
    .. cfg.seed + repeats - 1`` (a ConfigError if one reaches 2**64); the
    summary averages the final-round metrics over repeats.  With
    ``out_dir`` set, each cell's records land in
    ``<parameter>_<value>_rep<k>.csv`` as soon as the cell finishes.
    ``config_doc`` is echoed into the summary so results stay reproducible.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    for value in spec.values:
        try:
            apply_parameter(cfg, spec.parameter, value)
        except ValueError as exc:
            raise ConfigError(f"--param {spec.parameter}={value}: {exc}") from None
    repeated = [value for i, value in enumerate(spec.values) if value in spec.values[:i]]
    if repeated:  # cells, their files and the summary are keyed by value
        raise ConfigError(f"--values: {repeated[0]} repeated")
    last = spec.repeats - 1  # the last repeat runs with the largest seed
    check_seed(cfg.seed + last, f"--repeats {spec.repeats}: sweep seed seed + repeat = {cfg.seed} + {last}")
    if out_dir is not None:
        make_output_dir(out_dir)
    finals = {value: [None] * spec.repeats for value in spec.values}  # final record per repeat

    def finish(value, repeat, records) -> None:
        finals[value][repeat] = records[-1]
        if out_dir is not None:
            write_records(records, os.path.join(out_dir, f"{spec.parameter}_{value}_rep{repeat}.csv"))

    tasks = [(cfg, spec.parameter, value, repeat) for value in spec.values for repeat in range(spec.repeats)]
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
