"""Decentralized federated learning simulator with selfish model-crafting
attacks, baseline attacks, and robust aggregation defenses."""

from .aggregation import (
    AggregationRule,
    agg_fedavg,
    agg_flame,
    agg_fltrust,
    agg_krum,
    agg_median,
    agg_trimmed_mean,
    aggregate,
)
from .attack import (
    CoordinateBounds,
    attack_start_round,
    craft_fedavg,
    craft_median,
    craft_shared_model,
    craft_trimmed_mean,
    fedavg_bounds,
    median_bounds,
    solve_optimal_coordinate,
    trimmed_mean_bounds,
)
from .core import RoleConfig, Rng
from .reporting import ExperimentRecord, read_records, run_sweep, write_records
from .simulation import (
    AttackConfig,
    CsvDataConfig,
    Dataset,
    Engine,
    ExperimentConfig,
    PartitionConfig,
    SyntheticDataConfig,
    TrainerConfig,
    generate_synthetic,
    group_accuracy,
    load_csv,
    partition_non_iid,
    run_experiment,
)

__version__ = "0.1.0"
