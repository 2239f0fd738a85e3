"""Pinned regression matrix: every defense rule against every attack kind.

Each cell runs a small experiment (7 honest and 2 selfish clients, 20
rounds, seed 0, a detector window short enough that the selfish attack
starts) and compares two sha256 digests against the values pinned below:
the records CSV as ``write_records`` writes it, and the final model bytes of
every client in id order.  A change that keeps the simulation's numerics
must reproduce both byte for byte.

The digests depend on the floating-point behaviour of numpy and its BLAS.
After a deliberate change of the numerics, or on a platform whose BLAS
rounds differently, print fresh digests with

    PYTHONPATH=src python tests/test_regression.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import pytest

from dflsim.aggregation import AggregationRule
from dflsim.core import RoleConfig
from dflsim.reporting import write_records
from dflsim.simulation import (
    AttackConfig,
    Engine,
    ExperimentConfig,
    PartitionConfig,
    SyntheticDataConfig,
    TrainerConfig,
)

RULES = ("fedavg", "median", "trimmed_mean", "krum", "fltrust", "flame")
ATTACKS = ("none", "selfish", "gaussian", "trim")
# the selfish attack with the coalition aggregating only its own shares; the
# trimmed-mean and krum rules cannot aggregate the 2 coalition shares
SELFISH_ONLY_RULES = ("fedavg", "median", "fltrust", "flame")
CELLS = [(rule, attack, "all") for rule in RULES for attack in ATTACKS] + [
    (rule, "selfish", "selfish_only") for rule in SELFISH_ONLY_RULES
]

# (rule, attack, info_mode) -> (records CSV sha256, final models sha256)
PINNED = {
    ('fedavg', 'none', 'all'): ('db43c4fe4d4efc0e935584b16f368473cb2846d85f1515010c0e2d25d22f44a3', '3e0e5b65ee57741aa142d492d7ad09b748c4cd7d37472420511c192448367dd1'),
    ('fedavg', 'selfish', 'all'): ('d0a67414ee848c7ed347903167716b5758cee2dfb9a75a3db336fe83a7c36d1e', '0578c5a55749cf1815890f7185c542855349e3ac723adce0095e29db1a3b12b7'),
    ('fedavg', 'gaussian', 'all'): ('c94f93a97c93ba44ae183471c5ad558901fdfcde55c5bcc9e30cddead7ea3e6f', 'abe3b8929677df0ba6d6e9966797064d533e92f1e95979f624d9fa5aee23eb1d'),
    ('fedavg', 'trim', 'all'): ('644c458b425d01bc2c7577c050761c3b9683586ec31977946bd24f04c29a9356', '75c29505de717d2723e07a5c566604d6a7640376b25c3a59f9c18ad686919941'),
    ('median', 'none', 'all'): ('be64194bc75d36f711364211a85a7a198bb998a5b47c17f0d8f2a10def0e0d38', 'c26196752afef97aea51148e2c9c7bf49402c1f1eb05823350b130eb61794900'),
    ('median', 'selfish', 'all'): ('e23cdf796307591a3ae12e14a854b8f419d5c24e4d2bc6d96a7faf10276e3127', 'c9ccdae5fbcfb4acf4ce4cee72b7fc80466c4cdf9178cf1f192bcb04807d4ff3'),
    ('median', 'gaussian', 'all'): ('33d250d7a3c81f52bbd0568107f88008c8441dcf90c3e8a2558b5022843a84e9', '8b153997a6563d11ffab28b5cdcc0e48a00f91675e4aab7dfadf43087def40bc'),
    ('median', 'trim', 'all'): ('e9149504918c14bf88bff20d228e1992cf4039edcc20f58fe18bb92aa680c0da', 'd24c3c5506f3ea9bbfb5a98e9fe369a92a9f75047a4c25f8235ed23c082fb7ce'),
    ('trimmed_mean', 'none', 'all'): ('1be2bf063b1773c129988aedd23bb50130a78d79eef5f98779130dd1b9e74e1e', '61db7db88db796859c70687688bca6716bf9b5ab5564e2297afe4460045d9aa5'),
    ('trimmed_mean', 'selfish', 'all'): ('0228bbaf86377d60dd3bdf48534f58a0bc1893b0efb89ae9e99688b61e2b2768', 'dd561796fbe35691d19019e013c82def5bdc89c545802326f0fdcb8b18cc0021'),
    ('trimmed_mean', 'gaussian', 'all'): ('c7e679b9a5240312befef5129c6dbb910c407eef1c0849c79531f188c30e5a42', 'e3b11ee20e4501becceeff51fa69ecf58093716278728723ae8de242d86a7141'),
    ('trimmed_mean', 'trim', 'all'): ('2d2eb0a6659ac59952666c94b5bd84327a06b314af9629beb5634b2890c8a863', 'f9ddce132f6ad03ca3f4e84db6515b6663a20f956357767c3705a393bf289377'),
    ('krum', 'none', 'all'): ('b4e4cc1072c2946dc71a44d9992531c26d0e89cf38c7a1fa382cbe9a3faaba34', '8ee0c282af660b6b74f31b4704f06b65bb7daa3fb5991f3562a5053c1ab90494'),
    ('krum', 'selfish', 'all'): ('08f209530cf7f5f1b524d344b141920671d76a7511c32ab96329d64e6e3885d2', 'a8311f0c05a704b59c83f108bf517c247e34c6ed3a95a5647939829a9c4a3d01'),
    ('krum', 'gaussian', 'all'): ('c05ad20fca29311d8f02c2b949c3e7c047052d97beabcdf7b4afff24c056b39f', 'f34a4b5e929180ad1c0fd9a3ccd430297d40f59cdbd618f3d69d73405ecaa576'),
    ('krum', 'trim', 'all'): ('c05ad20fca29311d8f02c2b949c3e7c047052d97beabcdf7b4afff24c056b39f', 'f34a4b5e929180ad1c0fd9a3ccd430297d40f59cdbd618f3d69d73405ecaa576'),
    ('fltrust', 'none', 'all'): ('79f5868a8ad5bdeafdc8a0d80bcec82c8e0c2ad8debeb7ff5987bf567d293bbb', '2e01e0d3203b44ac5f4585a089314d870baf6817619e7c0e586fb578ff9277c9'),
    ('fltrust', 'selfish', 'all'): ('0d762269f77d689ca2a86e13ca1bf04eaf9b7482e34cafffdb2d1c772787f10b', 'b7635cf807929593417bafaa7aaee7d9f379a8662928ec0797481be8e2bdd723'),
    ('fltrust', 'gaussian', 'all'): ('35be1cf7b84ff4c054e6d8279b3d83e54f02306ea7d922d944cd1735c86f19b5', 'ec75aa466cb8dc27206127302e9e94345e5b8dc360d1fe2c9be3004299d6d56c'),
    ('fltrust', 'trim', 'all'): ('9b851f57d22c93bb8afcba84201288bf9e7eb667167e2155bdeb4d9eb1e8b5a7', 'f5221eb3b1bde6c56ab8dc0dff767a4063d4626187b1dd28b41f50d5602a6d58'),
    ('flame', 'none', 'all'): ('549b459e30494b4cb0ec4a2e50fcc62dbdac4eec62cdbf58260de7ca8198f368', '8e31d99261caa6ed26c2983e55bd73fcebf779782c884f60f61518add6e24c5b'),
    ('flame', 'selfish', 'all'): ('eecae5f8ad37a8acde6346b2c9e52bebed6aeea9b42deb3b6c9f1ab525702cdc', '6a1035d0d2804c8e981591fa449bd691af9d3276d6431092aff8561577730e4a'),
    ('flame', 'gaussian', 'all'): ('a7c560bed903d249abd5823cb7dbd624124de38686c15af2e3b8da52ac8319c4', '2f6ada8185a1adb49dd16f68e77746c861336e065f6b5de12b6ae59cc262aa2e'),
    ('flame', 'trim', 'all'): ('a7c560bed903d249abd5823cb7dbd624124de38686c15af2e3b8da52ac8319c4', '2f6ada8185a1adb49dd16f68e77746c861336e065f6b5de12b6ae59cc262aa2e'),
    ('fedavg', 'selfish', 'selfish_only'): ('8208bf67ee59c5d6163fcd153d2a6e4423b8176651f5fbd84ff9a469410d5283', '0b5b558d9a62f0fa03a87988fac539216bd426c01e470d9e8e70b22a2e338998'),
    ('median', 'selfish', 'selfish_only'): ('4805b1fe0e4c8e52cdd3951b715c34a6650cd418c93b64dec41602dceec27766', '743a8d00359e60e96d2ffdf7a68420cfb11db3ce8379c2e82c3384d6fad9df52'),
    ('fltrust', 'selfish', 'selfish_only'): ('c127a3207871a464e9ba4168178570483788431502acf34896800d09c2ca6919', 'd3eaaac0676b9f12bb7aa5cfb55d277357aafc1b3f76bd17d603affe4fa9207d'),
    ('flame', 'selfish', 'selfish_only'): ('3aa9e0dc0387a2e812c004b6becc3f0cfa9e3fb6da7814a927b3a41238c140ee', '41af4b7e37cf81cf631cef0d01d566a2dd10d5368cad3409c2502fbc5ed6e33c'),
}


def regression_config(rule: str, attack: str, info_mode: str = "all") -> ExperimentConfig:
    return ExperimentConfig(
        roles=RoleConfig(n=7, m=2),
        rule=AggregationRule(rule),
        attack=AttackConfig(kind=attack, interval=2, epsilon=0.5, info_mode=info_mode),
        trainer=TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=16),
        partition=PartitionConfig(rho=0.7),
        data=SyntheticDataConfig(classes=3, features=6, per_class=60, separation=3.0, test_per_class=30),
        rounds=20,
        seed=0,
    )


def run_cell(cell: tuple[str, str, str], directory: str) -> tuple[tuple[str, str], bool]:
    """Digests of one cell and whether its attack had started by the last round."""
    engine = Engine(regression_config(*cell))
    engine.run()
    path = os.path.join(directory, "_".join(cell) + ".csv")
    write_records(engine.records, path)
    with open(path, "rb") as fh:
        records = hashlib.sha256(fh.read()).hexdigest()
    models = hashlib.sha256(b"".join(client.model.tobytes() for client in engine.clients)).hexdigest()
    return (records, models), engine.records[-1].attack_started


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_regression_matrix(cell, tmp_path):
    digests, started = run_cell(cell, str(tmp_path))
    assert started == (cell[1] != "none")
    assert digests == PINNED[cell]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for cell in CELLS:
            digests, _ = run_cell(cell, directory)
            sys.stdout.write(f"    {cell!r}: {digests!r},\n")
