"""Pinned regression matrix: every defense rule against every attack kind.

Each cell runs a small experiment (7 honest and 2 selfish clients, 20
rounds, seed 0, a detector window short enough that the selfish attack
starts) and compares two sha256 digests against the values pinned below:
the records CSV as ``write_records`` writes it, and the final model bytes of
every client in id order.  A change that keeps the simulation's numerics
must reproduce both byte for byte.  The matrix also pins the two degenerate
collaboration modes under every rule, repeats the rule-by-attack cells
with 11 honest and 3 selfish clients, and runs trimmed mean under the selfish
attack with 13 honest and 3 selfish clients and lambda 0.5.

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
# crafting attacks: every other kind sends true models only
CRAFTING_ATTACKS = ("selfish", "gaussian", "trim")
# the selfish attack with the coalition aggregating only its own shares; the
# trimmed-mean and krum rules cannot aggregate the 2 coalition shares
SELFISH_ONLY_RULES = ("fedavg", "median", "fltrust", "flame")
CELLS = (
    [(rule, attack, "all") for rule in RULES for attack in ATTACKS]
    + [(rule, "selfish", "selfish_only") for rule in SELFISH_ONLY_RULES]
    + [(rule, mode, "all") for mode in ("independent", "two_coalitions") for rule in RULES]
)
ROLES = RoleConfig(n=7, m=2)
# the same experiment with 11 honest and 3 selfish clients: sums over n > 8
# benign values pass numpy's 8-term pairwise-summation block, so a sum taken
# in another order changes the last bits of a digest
WIDE_ROLES = RoleConfig(n=11, m=3)
WIDE_CELLS = [(rule, attack, "all") for rule in RULES for attack in ATTACKS]
# trimmed-mean crafting sums at most n - m benign values per split, so the
# order of those sums shows only from n - m > 8 on, and only in the filler
# values of interior targets: at the default lambda 1 every target is a bound
# and every crafted share is parked
WIDER_ROLES = RoleConfig(n=13, m=3)
WIDER_LAMBDA = 0.5
WIDER_CELLS = [("trimmed_mean", "selfish", "all")]

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
    ('fedavg', 'independent', 'all'): ('d553c3436f58d8e7429d6eed952aacd900babed2400154bb78dce6cd175e136f', '9be82d600d155fdbff8f747f0c1f58a6a2bb74c41a7786d0ddd749fbe804d10d'),
    ('median', 'independent', 'all'): ('d553c3436f58d8e7429d6eed952aacd900babed2400154bb78dce6cd175e136f', '9be82d600d155fdbff8f747f0c1f58a6a2bb74c41a7786d0ddd749fbe804d10d'),
    ('trimmed_mean', 'independent', 'all'): ('d553c3436f58d8e7429d6eed952aacd900babed2400154bb78dce6cd175e136f', '9be82d600d155fdbff8f747f0c1f58a6a2bb74c41a7786d0ddd749fbe804d10d'),
    ('krum', 'independent', 'all'): ('d553c3436f58d8e7429d6eed952aacd900babed2400154bb78dce6cd175e136f', '9be82d600d155fdbff8f747f0c1f58a6a2bb74c41a7786d0ddd749fbe804d10d'),
    ('fltrust', 'independent', 'all'): ('d553c3436f58d8e7429d6eed952aacd900babed2400154bb78dce6cd175e136f', '9be82d600d155fdbff8f747f0c1f58a6a2bb74c41a7786d0ddd749fbe804d10d'),
    ('flame', 'independent', 'all'): ('d553c3436f58d8e7429d6eed952aacd900babed2400154bb78dce6cd175e136f', '9be82d600d155fdbff8f747f0c1f58a6a2bb74c41a7786d0ddd749fbe804d10d'),
    ('fedavg', 'two_coalitions', 'all'): ('622cfb343fc71f20623e9f51413c58d0060e43845837912279a1236d32a95905', 'fd90e3c346a6c93a99dfea1e517a39ad75cac5aae048fc87d0464b59d0f2e706'),
    ('median', 'two_coalitions', 'all'): ('622cfb343fc71f20623e9f51413c58d0060e43845837912279a1236d32a95905', 'fd90e3c346a6c93a99dfea1e517a39ad75cac5aae048fc87d0464b59d0f2e706'),
    ('trimmed_mean', 'two_coalitions', 'all'): ('622cfb343fc71f20623e9f51413c58d0060e43845837912279a1236d32a95905', 'fd90e3c346a6c93a99dfea1e517a39ad75cac5aae048fc87d0464b59d0f2e706'),
    ('krum', 'two_coalitions', 'all'): ('622cfb343fc71f20623e9f51413c58d0060e43845837912279a1236d32a95905', 'fd90e3c346a6c93a99dfea1e517a39ad75cac5aae048fc87d0464b59d0f2e706'),
    ('fltrust', 'two_coalitions', 'all'): ('622cfb343fc71f20623e9f51413c58d0060e43845837912279a1236d32a95905', 'fd90e3c346a6c93a99dfea1e517a39ad75cac5aae048fc87d0464b59d0f2e706'),
    ('flame', 'two_coalitions', 'all'): ('622cfb343fc71f20623e9f51413c58d0060e43845837912279a1236d32a95905', 'fd90e3c346a6c93a99dfea1e517a39ad75cac5aae048fc87d0464b59d0f2e706'),
}

# (rule, attack, info_mode) -> digests of the 11+3-client experiment
PINNED_11_3 = {
    ('fedavg', 'none', 'all'): ('baf4ce1b12e674df586ab4ea53ece069564eaadb4928886ac058a14e908cdc27', '13811d4ce71e967d7c9cd309407f53fb6265364c936ccebc611db73b045db5df'),
    ('fedavg', 'selfish', 'all'): ('800cdb209b8eee2181ebf4bbcabcb2bc93cf0b34b87d9c49d6a619d98f37c23c', 'ae4174b3db7ab17c1a9af708ba41aafa6b574e074c2922c7a6e25dfefc2c698a'),
    ('fedavg', 'gaussian', 'all'): ('ca51fd2e491c8afce463e7bf2495fd0a2a867c742ac8cf561d1c84d2181fdffb', '5fa8fa3cf866f7e08ab3b1ebd2be7bd7445a84c6f5c9f22be4b3539d764ba446'),
    ('fedavg', 'trim', 'all'): ('6aa5b31d5640958533802fc30c702e4cc2d02ae8596eaf0b0508add2423fe761', '5444970283ef2cb6832d93a032042b7df88d312abbc90d77c551337e0b04d077'),
    ('median', 'none', 'all'): ('e6b95769455e23d5b1dc612317f0a46bc448635ecb262a37fcb98e9973adea6e', '99de43311d7606250ed0a002f8acdd29ce324685fc561ea39d8b4c9f52d39773'),
    ('median', 'selfish', 'all'): ('20693aa63289b30414dbbdb081aa2f63f51b7c97c4616d95c3a24aa5c768f4bb', '90c35440d61b18a76272d2b5abed1bef6888c908fa31c6f127d8cf3c6d05638d'),
    ('median', 'gaussian', 'all'): ('e6ec8127c63ecafd37a65bc7c1191c67234edcc9113157b439beb801a5fa3461', '43d10549036a484fa5d625865a689768e67103a9b59cd203bc54603b5a05d101'),
    ('median', 'trim', 'all'): ('2c297ab582b41c516bcac3c2858d58d485a107ab4b6f07ff7b6294ac5009456b', 'fd2e8d7b01ca1ca57880886d194b4ce0690d327580561fcbe9bf86cace609819'),
    ('trimmed_mean', 'none', 'all'): ('01b6d2249625d32abb71470265622d6d762dd88abd2a28e5af918ec78d8c0179', '280b0cf73e45b142c02d33c22da791e4d3d76fadb1afce1bfdae53cc2c80b88b'),
    ('trimmed_mean', 'selfish', 'all'): ('8322a36eb6e00fe9bb239c86f540b27823d18cf31e9501fb2fe768a3cda65241', '6d5c3506648ef63652efee266c6d9a193a8e199dcd45ab3c18dc03e0ed9a4f89'),
    ('trimmed_mean', 'gaussian', 'all'): ('54ef85131fcae47f11f46390433050d69997e6b4be11e8619ea9a3073248b5bc', '0e1df653e2544354e3d341b8bc468c3547fc54787c5626275d41ca20c748055f'),
    ('trimmed_mean', 'trim', 'all'): ('0cb34279571296811d014e0ea06b857467bbbd26e19ee6e4ae0167f0d632ed13', '5aebf2afce10fe70f300fd2802f4045d895c781d8c8d749b01ccbf3dc9dbedfd'),
    ('krum', 'none', 'all'): ('026985a420c23006606342d392580d805d79d0be7ce0f534c97f4746d96f7e18', '3b7ee5a868052a880119ce9e90c7bea041ae54922ca5bd48fc073a2788b02027'),
    ('krum', 'selfish', 'all'): ('b5af3f241fc36446f226bbb914864c6f618415163781efcfcc478940cad68386', '3b7ee5a868052a880119ce9e90c7bea041ae54922ca5bd48fc073a2788b02027'),
    ('krum', 'gaussian', 'all'): ('8f1d4e649b3905a9289722a2627d5a6e49a232d7d983ce4b54ae0b028dc61e99', '0c5d4a6ef5b1a4a35b563af8dc4fdc222bd40c6b518bcf264b9f305fb8ba3232'),
    ('krum', 'trim', 'all'): ('8f1d4e649b3905a9289722a2627d5a6e49a232d7d983ce4b54ae0b028dc61e99', '0c5d4a6ef5b1a4a35b563af8dc4fdc222bd40c6b518bcf264b9f305fb8ba3232'),
    ('fltrust', 'none', 'all'): ('00741ce05702ffac307a859116d2a4875476da8781ecf7613e42ebda530ce508', '39618499e661aba5c3952242e837a2b5ee93822948c95dbec9c52bbf8718d406'),
    ('fltrust', 'selfish', 'all'): ('3b748e16331883bf8333561e73c2353c5fe21fef742267e7e11c0ee7b48b4a34', '4af58842a6c9a4c63a957d8dd15cbf2b0708f8b0e91f0a4bf4b7529716212e2d'),
    ('fltrust', 'gaussian', 'all'): ('97200b95f6fdb42cc055ecc48a196f3900648da1ccb9e6bc0c44160900c8f6ad', '83dd3d9600d4cb13b9ed65ae7d24bb28eceb5af29b5e017153307f0edf0ae439'),
    ('fltrust', 'trim', 'all'): ('df2cd372f4539af1f1a12377ebc81a2b8e9192a3113bd85b33908339e2676be5', '4851709fe9c89311ac36a297913912624e21873aeca0ae98ca6caa2a05da522d'),
    ('flame', 'none', 'all'): ('f55792a704dcae7e1a21d7a3639e108554ce5a487f39281ca708654a0e42a845', 'a366f5d993b87ade0a5ba1e356a0ecdb2f1f558081e48bc0c2e836715766e2c8'),
    ('flame', 'selfish', 'all'): ('167a115579579f713c10f245929e65d8bd9cc8d7d0a5dc4b22fc4e1929435b32', '9bfe53720c7cfe48bedb7ee76b819adc8ef3ca975d21cdc6adb62fe308394885'),
    ('flame', 'gaussian', 'all'): ('de2c6df111e699871e226cb00cffc4174bfb7515584ae58529ba8e12b1f76df5', '18cbb08435974c71f52b5acf02041b59fbd6501e35749100022ce5152cab3270'),
    ('flame', 'trim', 'all'): ('de2c6df111e699871e226cb00cffc4174bfb7515584ae58529ba8e12b1f76df5', '18cbb08435974c71f52b5acf02041b59fbd6501e35749100022ce5152cab3270'),
}

# (rule, attack, info_mode) -> digests of the 13+3-client experiment at lambda 0.5
PINNED_13_3 = {
    ('trimmed_mean', 'selfish', 'all'): ('13d92a63370e722e66fa7c2ab0a532eb95749521ee9464897a250876ac91ecf8', 'a96e8edd2903d8e667414e99b07ba90a3499a1c162d429bf03febd87d6e98326'),
}


def regression_config(
    rule: str, attack: str, info_mode: str = "all", roles: RoleConfig = ROLES, lam: float | None = None
) -> ExperimentConfig:
    return ExperimentConfig(
        roles=roles,
        rule=AggregationRule(rule),
        attack=AttackConfig(kind=attack, lam=lam, interval=2, epsilon=0.5, info_mode=info_mode),
        trainer=TrainerConfig(learning_rate=0.1, local_epochs=1, batch_size=16),
        partition=PartitionConfig(rho=0.7),
        data=SyntheticDataConfig(classes=3, features=6, per_class=60, separation=3.0, test_per_class=30),
        rounds=20,
        seed=0,
    )


def run_cell(
    cell: tuple[str, str, str], directory: str, roles: RoleConfig = ROLES, lam: float | None = None
) -> tuple[tuple[str, str], bool]:
    """Digests of one cell and whether its attack had started by the last round."""
    engine = Engine(regression_config(*cell, roles=roles, lam=lam))
    engine.run()
    path = os.path.join(directory, "_".join(cell) + ".csv")
    write_records(engine.records, path)
    with open(path, "rb") as fh:
        records = hashlib.sha256(fh.read()).hexdigest()
    models = hashlib.sha256(engine.models.tobytes()).hexdigest()
    return (records, models), engine.records[-1].attack_started


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_regression_matrix(cell, tmp_path):
    digests, started = run_cell(cell, str(tmp_path))
    assert started == (cell[1] in CRAFTING_ATTACKS)
    assert digests == PINNED[cell]


@pytest.mark.parametrize("cell", WIDE_CELLS, ids="-".join)
def test_regression_matrix_11_3(cell, tmp_path):
    digests, started = run_cell(cell, str(tmp_path), WIDE_ROLES)
    assert started == (cell[1] in CRAFTING_ATTACKS)
    assert digests == PINNED_11_3[cell]


@pytest.mark.parametrize("cell", WIDER_CELLS, ids="-".join)
def test_regression_matrix_13_3(cell, tmp_path):
    digests, started = run_cell(cell, str(tmp_path), WIDER_ROLES, WIDER_LAMBDA)
    assert started
    assert digests == PINNED_13_3[cell]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        tables = (
            ("PINNED", CELLS, ROLES, None),
            ("PINNED_11_3", WIDE_CELLS, WIDE_ROLES, None),
            ("PINNED_13_3", WIDER_CELLS, WIDER_ROLES, WIDER_LAMBDA),
        )
        for table, cells, roles, lam in tables:
            sys.stdout.write(f"{table} = {{\n")
            for cell in cells:
                digests, _ = run_cell(cell, directory, roles, lam)
                sys.stdout.write(f"    {cell!r}: {digests!r},\n")
            sys.stdout.write("}\n")
