"""Pinned regression matrix: every defense rule against every attack kind.

Each cell runs a small experiment (7 honest and 2 selfish clients, 20
rounds, seed 0, a detector window short enough that the selfish attack
starts) and compares two sha256 digests against the values pinned below:
the records CSV as ``write_records`` writes it, and the final model bytes of
every client in id order.  A change that keeps the simulation's numerics
must reproduce both byte for byte.  The matrix also pins the two degenerate
collaboration modes under every rule, repeats the rule-by-attack cells
with 11 honest and 3 selfish clients, and runs trimmed mean under the selfish
attack with 13 honest and 3 selfish clients and lambda 0.5.  Over the
selfish cells whose rule has a closed-form crafting, the paper's optimality
claim is checked where it runs: each crafted round must put every attacked
receiver on its constrained optimum, coordinate by coordinate.

The digests depend on the floating-point behaviour of numpy and its BLAS.
The records digests hold under every OpenBLAS kernel family tried; the
final-model digests differ between families, because each rounds the
partial sums of a matrix product its own way.  So the models are pinned
once per OpenBLAS core, picked by the core name numpy's OpenBLAS reports:
the tables below hold the SkylakeX (AVX-512) models, and ``KERNEL_MODELS``
those of the other cores.  A core with no pinned models fails every cell,
naming itself.  After a deliberate change of the numerics, or for another
core, print fresh digests under each kernel with

    OPENBLAS_CORETYPE=<core> PYTHONPATH=src python tests/test_regression.py
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from openblas_core import core_name
from oracles import median_of, trimmed_mean_of

from dflsim.aggregation import AggregationRule
from dflsim.attack import fedavg_bounds, median_bounds, solve_optimal_coordinate, trimmed_mean_bounds
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
from dflsim.verify import ABS_TOL, REL_TOL

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
# the selfish cells whose rule has a closed-form crafting: (rule, roles, lambda)
OPTIMUM_CELLS = [(rule, roles, None) for roles in (ROLES, WIDE_ROLES) for rule in ("fedavg", "median", "trimmed_mean")]
OPTIMUM_CELLS.append(("trimmed_mean", WIDER_ROLES, WIDER_LAMBDA))
# rule -> (its reachable interval and its aggregate of the benign values sorted
# descending, given the number m of selfish clients)
OPTIMUM_TERMS = {
    "fedavg": (lambda q, m: fedavg_bounds(q), lambda q, m: float(np.mean(q))),
    "median": (median_bounds, lambda q, m: median_of(q)),
    "trimmed_mean": (trimmed_mean_bounds, trimmed_mean_of),
}

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

TABLES = {"PINNED": PINNED, "PINNED_11_3": PINNED_11_3, "PINNED_13_3": PINNED_13_3}

# OpenBLAS core -> table -> cell -> final models sha256, for each core whose
# kernels give other models than the SkylakeX ones pinned above, printed by
# this file under OPENBLAS_CORETYPE=<core>.  numpy's bundled OpenBLAS reports
# its Prescott (SSE3) kernels as 'Katmai'; forced to Zen or Cooperlake, it
# reports 'Haswell' or 'SkylakeX' and gives that core's models, and forced
# to Barcelona or Atom it reports 'Nehalem'.
KERNEL_MODELS = {
    'Haswell': {
        'PINNED': {
            ('fedavg', 'none', 'all'): '7bb048650f1bf6645bb5ccd698522d79957b8711ec6a09943be45fcf94f6bd18',
            ('fedavg', 'selfish', 'all'): '12ca6c3fce64fd0df0480a69ca80b976d8b88abc68a889a7a47d41b0e1d91ba3',
            ('fedavg', 'gaussian', 'all'): 'abe3b8929677df0ba6d6e9966797064d533e92f1e95979f624d9fa5aee23eb1d',
            ('fedavg', 'trim', 'all'): 'c075e4a5ab056f415bc97f732b579a55e4708e16615878801ea1ba99cf9ab383',
            ('median', 'none', 'all'): 'cae9860a0561d13601f24b3e83dd829bcba9f1fd51f4aa249ea54107bc4ec6e8',
            ('median', 'selfish', 'all'): '01221664c00afc8be286e9612ba6d3075e4fc08a8c4518535bbddc004da273d4',
            ('median', 'gaussian', 'all'): '5647436ae61f0daefeceed3dab5a69f475fac1c1b3e8250d7fbfbf5f7167cc1c',
            ('median', 'trim', 'all'): '9148dafb3a7adbdd91ba6c8af65fcd4ee01b9eaf92d6838e0b7dfd60d7cfe702',
            ('trimmed_mean', 'none', 'all'): 'ac9c9b35e250cea831be4d86e1bc9cb84a90f1cdd959d4c4523e84001ac1338a',
            ('trimmed_mean', 'selfish', 'all'): 'a72001a28b26e857b167106c6fc2517ef2cae2cbd209d2c50456a9cde9cd34d1',
            ('trimmed_mean', 'gaussian', 'all'): 'f157f86cb734f908573b10ee84227849ab98977b3b9c44aef47cf487f7e1e184',
            ('trimmed_mean', 'trim', 'all'): 'e0970b2c207ad0a827569ad72f8fc917af8a83bbc60add46665654576bea3902',
            ('krum', 'none', 'all'): '873377513461806387357a3dbff231ed94c08898a6e5434bc1002602e99ac36b',
            ('krum', 'selfish', 'all'): 'd43daf0f0238e8d392c1ef4d0570d05403ad0fd088ac3f295546b58423b68cf2',
            ('krum', 'gaussian', 'all'): 'ed2dad9e1645424ceb61042e8892cc2c0949ba348eec464fadde2b015fcd0a84',
            ('krum', 'trim', 'all'): 'ed2dad9e1645424ceb61042e8892cc2c0949ba348eec464fadde2b015fcd0a84',
            ('fltrust', 'none', 'all'): '46901eaa9dd3fd851decf06e68345cefb1e12a80a11aa8c7c4f32b0a754cd258',
            ('fltrust', 'selfish', 'all'): '0b771c2cbf421ed9f8782cd5403175f4e68492621d1d4890d232060a509beb4f',
            ('fltrust', 'gaussian', 'all'): 'db5ecb36deeb1098ad158ef9cb0b66fda2ec250f0f4b14e0c456b3b733ec81a0',
            ('fltrust', 'trim', 'all'): '4668f40d850a03c0361f03eb46e0816f269291d89a534da65cac28337cc0ebd1',
            ('flame', 'none', 'all'): 'f22b15fc3c221c804742d24c8536b5fecb91bce9ddc8f262aac42675c9fd98bd',
            ('flame', 'selfish', 'all'): '6e5eaa29c030b15deeea1ecc37acf2476e507364288dd95551f9847ef9f7d272',
            ('flame', 'gaussian', 'all'): 'e7d21288dfd42b59652b239b9aee6d6f0202dc44fd4c450067b7a8fd9f0713a6',
            ('flame', 'trim', 'all'): 'e7d21288dfd42b59652b239b9aee6d6f0202dc44fd4c450067b7a8fd9f0713a6',
            ('fedavg', 'selfish', 'selfish_only'): '41c58d8a585b8b3ed58963beef45d2c2e9ab3f3a1d854e89cc9bfa4fd4de1944',
            ('median', 'selfish', 'selfish_only'): '0aaacc68249c009bc1e830284b47579bd1a96e9eab8097e6e9adbeb02279f7d7',
            ('fltrust', 'selfish', 'selfish_only'): '910522f7d8c8aab314ed650bb7d05b694ff0147bc0937f22179a77e93ec3e59e',
            ('flame', 'selfish', 'selfish_only'): '092ffb9c7d21ad9b41ed3ee313c792313da4b4ef74fa90f670901c6d15bb3655',
            ('fedavg', 'independent', 'all'): '2e1e9da7ad3b36b65f412a5fc831a331d72d85d0471bb82bd30c2296f72171a3',
            ('median', 'independent', 'all'): '2e1e9da7ad3b36b65f412a5fc831a331d72d85d0471bb82bd30c2296f72171a3',
            ('trimmed_mean', 'independent', 'all'): '2e1e9da7ad3b36b65f412a5fc831a331d72d85d0471bb82bd30c2296f72171a3',
            ('krum', 'independent', 'all'): '2e1e9da7ad3b36b65f412a5fc831a331d72d85d0471bb82bd30c2296f72171a3',
            ('fltrust', 'independent', 'all'): '2e1e9da7ad3b36b65f412a5fc831a331d72d85d0471bb82bd30c2296f72171a3',
            ('flame', 'independent', 'all'): '2e1e9da7ad3b36b65f412a5fc831a331d72d85d0471bb82bd30c2296f72171a3',
            ('fedavg', 'two_coalitions', 'all'): '9fb4e6b9e4364b68f86682e1d4a8a6e41332a7f73dd36a35d716bf7d622b2907',
            ('median', 'two_coalitions', 'all'): '9fb4e6b9e4364b68f86682e1d4a8a6e41332a7f73dd36a35d716bf7d622b2907',
            ('trimmed_mean', 'two_coalitions', 'all'): '9fb4e6b9e4364b68f86682e1d4a8a6e41332a7f73dd36a35d716bf7d622b2907',
            ('krum', 'two_coalitions', 'all'): '9fb4e6b9e4364b68f86682e1d4a8a6e41332a7f73dd36a35d716bf7d622b2907',
            ('fltrust', 'two_coalitions', 'all'): '9fb4e6b9e4364b68f86682e1d4a8a6e41332a7f73dd36a35d716bf7d622b2907',
            ('flame', 'two_coalitions', 'all'): '9fb4e6b9e4364b68f86682e1d4a8a6e41332a7f73dd36a35d716bf7d622b2907',
        },
        'PINNED_11_3': {
            ('fedavg', 'none', 'all'): '17a0922f182cc9df916475f6f565523da4d12fcee0aaf7a028d734b7e72dfa8b',
            ('fedavg', 'selfish', 'all'): '5601cb962d9a1841ebefd4cfa7bc7f72b8d10657bb600321cc68ce2ab9a4e46c',
            ('fedavg', 'gaussian', 'all'): '5fa8fa3cf866f7e08ab3b1ebd2be7bd7445a84c6f5c9f22be4b3539d764ba446',
            ('fedavg', 'trim', 'all'): '5c78c7d9c17c66235e7df21adb1df0eed871f3cbad1c25c933f2a7c632ae662f',
            ('median', 'none', 'all'): '8eaf9398e01e35de959f4950482a3487bdfd8dd5dfc9679eeb7e23c9f319ee92',
            ('median', 'selfish', 'all'): 'a483832c3bcfe6a2fa0a42f542363c9453f3e40eeb464a4d6f6fdfa7fdaa4f97',
            ('median', 'gaussian', 'all'): '59a002e00183cc216a50d73075f2882617929be7f44857b9c80b932b81a3757a',
            ('median', 'trim', 'all'): '05405e6a164eecb974fc6323fc2aa352a0eeaddba5a24abde50f9d127955c409',
            ('trimmed_mean', 'none', 'all'): '2645c743462fa4b410e742d78f2604166905923393648c60f2c136605cb8a8cf',
            ('trimmed_mean', 'selfish', 'all'): 'd5eab480c2c6a67308c66a3a5ec48f88a801b0454d851acff45a1cf2f416ef66',
            ('trimmed_mean', 'gaussian', 'all'): '8d8a9b2d72b3c662f060f4698ca229b6885a7f4070f0833475312d70d485643e',
            ('trimmed_mean', 'trim', 'all'): '140fc2d311e53f4b2c4ab2a123e093114c7c5687c95db0066ca77328fd43afe7',
            ('krum', 'none', 'all'): '4c7723bc9bb85e4b5745a466a00e826cad56f07c551d0a56a5252e00bc175101',
            ('krum', 'selfish', 'all'): '4c7723bc9bb85e4b5745a466a00e826cad56f07c551d0a56a5252e00bc175101',
            ('krum', 'gaussian', 'all'): 'b858e91617f8ea1205c067a151096f0158e04eb479053466921f5d717571aaf9',
            ('krum', 'trim', 'all'): 'b858e91617f8ea1205c067a151096f0158e04eb479053466921f5d717571aaf9',
            ('fltrust', 'none', 'all'): '3aebb1c7204ee316904131237ade1e8c7ab28199105da8190b00a11f4a3b8871',
            ('fltrust', 'selfish', 'all'): '4ff98278477699851072a3ee12c84254785d15c15c4503926d0b8e25347211af',
            ('fltrust', 'gaussian', 'all'): '7bbb4c6c7e8c2382e70e1120ece22ec9e8e38adfd5abf1365caa882a9020cc99',
            ('fltrust', 'trim', 'all'): '6886c242ab28349424a3d4a6a61979edebc903b5b48cd7ed3c063f49800c8c9c',
            ('flame', 'none', 'all'): 'b5a9e64238c3b0b2aaa8c8a2b06a5aa6652136188e326da23fe6017e69c04217',
            ('flame', 'selfish', 'all'): '96b14c4ac8f3d5f31a189f8a493bff726721120ef6bf60a48385a917621e5b9a',
            ('flame', 'gaussian', 'all'): 'e16b648e9466008cb706e703794d938f95d15e8728307646c189e5102044155b',
            ('flame', 'trim', 'all'): 'e16b648e9466008cb706e703794d938f95d15e8728307646c189e5102044155b',
        },
        'PINNED_13_3': {
            ('trimmed_mean', 'selfish', 'all'): 'dac3a263c39b1a208074b2c0b81af0c3905e515211c7160a5bef14688c625087',
        },
    },
    'Sandybridge': {
        'PINNED': {
            ('fedavg', 'none', 'all'): '5c822c6f39a144f60246c155cc709ed5120c0eb693d24bf57d7efd9b6a95118d',
            ('fedavg', 'selfish', 'all'): 'e739a0921f7efe40c92f0100320e7aa068b72388f55328765a82c1762b935b4d',
            ('fedavg', 'gaussian', 'all'): 'abe3b8929677df0ba6d6e9966797064d533e92f1e95979f624d9fa5aee23eb1d',
            ('fedavg', 'trim', 'all'): '35036b6b012e1f3fbaf06f3275fc4914f1f5346c46c3e16c167c7f626870305e',
            ('median', 'none', 'all'): 'a8db3f1845c76ad9de6a214f7e3ce9cbfd279317b5d06badc526ad49babd8012',
            ('median', 'selfish', 'all'): '74718cc7e3560c4b3d3141af2cb7529e9bfd240c9039791cd1eaa1d126e0cfa6',
            ('median', 'gaussian', 'all'): 'cd4b839618efd6a2a04bf54e60128b50d89a02682f954154d462c9986e2b144b',
            ('median', 'trim', 'all'): '693e967fe0bc9847a812e7a45c0052b9e643256cc652c191c0303ef57899b332',
            ('trimmed_mean', 'none', 'all'): '2f4284790f1005cadd9cb02c7e081cafdcf6e426f3ca7532c8a1779406325c00',
            ('trimmed_mean', 'selfish', 'all'): '1db629519c174194183910a25ec936dc2d18933bb39fa596d9878cbbccb71723',
            ('trimmed_mean', 'gaussian', 'all'): '966faf2bf6e5aca483446341ca9f43e9d531cca7ca31d9c4b198ade1a6ef2492',
            ('trimmed_mean', 'trim', 'all'): 'd7d8fb3361c38b2e39ade1c6aa04af3dfdbd6594d83cf47b317daae7d6e5228a',
            ('krum', 'none', 'all'): 'fe89f17c1dd48b894205700a9d09e414c13177a670de660904e70c867d8cd813',
            ('krum', 'selfish', 'all'): 'caed0f0c60c59b1964b8337b1c293c4007d2cc3742767d1124ae5202f4651248',
            ('krum', 'gaussian', 'all'): '6046f967353c8ae1fd902d8cb9334e690c9b3b74cc0311181f8d33622a679621',
            ('krum', 'trim', 'all'): '6046f967353c8ae1fd902d8cb9334e690c9b3b74cc0311181f8d33622a679621',
            ('fltrust', 'none', 'all'): '771d29507ff08a542f5f33c799af9bc51549dcee1ceb6aa06a508c2fce601a8c',
            ('fltrust', 'selfish', 'all'): '65d881e998f6fbacb1b20d9ceae20be0834445eb34fec3c2f7a6ad21207f3e1c',
            ('fltrust', 'gaussian', 'all'): '13e94aae16bcb1b7a320d1c1b812bbf7d94373644ba378bb077c64c4f7618774',
            ('fltrust', 'trim', 'all'): 'c535ab76dcb9aa357255958eeac4280bf14e313901d035e46a4566ca3be22b9e',
            ('flame', 'none', 'all'): 'c2eb3e3e4e641bb6877a24b1aa284bcf89965a096f7e74044ed787f515ee29c0',
            ('flame', 'selfish', 'all'): '325a5cc5516d67fd8e50e5317fdd491f6b97758b09439069736632c5f7175075',
            ('flame', 'gaussian', 'all'): '48d661cf494b48b9e2b5dcda663bd306f0206005ee612bc0d3c99e0a879d7eea',
            ('flame', 'trim', 'all'): '48d661cf494b48b9e2b5dcda663bd306f0206005ee612bc0d3c99e0a879d7eea',
            ('fedavg', 'selfish', 'selfish_only'): '28bcf9c05f6c2c3524530760ccba5ff10f94ed63ce21999b8d4bb685ee51616a',
            ('median', 'selfish', 'selfish_only'): '0631a2bfe8ef278add9a4a834b4fd1ba6ab1ee5929b6b29bb6150334f725292f',
            ('fltrust', 'selfish', 'selfish_only'): '4b56ed882e7d77d21f2a45c7c0fdf0051d6bfdcae7824c6cfc46812da0576ac8',
            ('flame', 'selfish', 'selfish_only'): '5c34b8960dbf190d6b420cdf07ca4d900d889b275fdadc61ed8a841f66eb8eb0',
            ('fedavg', 'independent', 'all'): '2048150e85536946721e335280eed58ee2d5e17a81988cca43e0e298a8d30957',
            ('median', 'independent', 'all'): '2048150e85536946721e335280eed58ee2d5e17a81988cca43e0e298a8d30957',
            ('trimmed_mean', 'independent', 'all'): '2048150e85536946721e335280eed58ee2d5e17a81988cca43e0e298a8d30957',
            ('krum', 'independent', 'all'): '2048150e85536946721e335280eed58ee2d5e17a81988cca43e0e298a8d30957',
            ('fltrust', 'independent', 'all'): '2048150e85536946721e335280eed58ee2d5e17a81988cca43e0e298a8d30957',
            ('flame', 'independent', 'all'): '2048150e85536946721e335280eed58ee2d5e17a81988cca43e0e298a8d30957',
            ('fedavg', 'two_coalitions', 'all'): '698f8a7390ca7e79542c84218ab1c6a1ee7ac9088a6955f61faa0017bb015877',
            ('median', 'two_coalitions', 'all'): '698f8a7390ca7e79542c84218ab1c6a1ee7ac9088a6955f61faa0017bb015877',
            ('trimmed_mean', 'two_coalitions', 'all'): '698f8a7390ca7e79542c84218ab1c6a1ee7ac9088a6955f61faa0017bb015877',
            ('krum', 'two_coalitions', 'all'): '698f8a7390ca7e79542c84218ab1c6a1ee7ac9088a6955f61faa0017bb015877',
            ('fltrust', 'two_coalitions', 'all'): '698f8a7390ca7e79542c84218ab1c6a1ee7ac9088a6955f61faa0017bb015877',
            ('flame', 'two_coalitions', 'all'): '698f8a7390ca7e79542c84218ab1c6a1ee7ac9088a6955f61faa0017bb015877',
        },
        'PINNED_11_3': {
            ('fedavg', 'none', 'all'): '949ab47181499f4443a5bb6849726bfd6d973492acceab5c875ff7893d1766e3',
            ('fedavg', 'selfish', 'all'): 'b3ebeb80ca0f9d5a6f6c32fcfcbd5618ac9f43da9d33926eb3d3207fa6e742ab',
            ('fedavg', 'gaussian', 'all'): '5fa8fa3cf866f7e08ab3b1ebd2be7bd7445a84c6f5c9f22be4b3539d764ba446',
            ('fedavg', 'trim', 'all'): 'e06f519ad25c34261be6888980cd1d3df176b4ff96d877715aae4227e2bb6b55',
            ('median', 'none', 'all'): '3841fdf8c135954f2643d587d1f2dd1b6300ef6a609cf3d30679a4e57a5b3c89',
            ('median', 'selfish', 'all'): '096f527916cb9a527f62835e83619890d8f255770ff4be4a2f0d08df94db4da7',
            ('median', 'gaussian', 'all'): '116e96004bbce5d1437d7529e2d1a0c9d76e26ce36d0ba426f7f580717032d6d',
            ('median', 'trim', 'all'): '0cfbdc629ae15299f7f630ad2265f3c06d8a0674ee0824802ad3ce6b96b2b35c',
            ('trimmed_mean', 'none', 'all'): 'e90e95bb2db4ac4daa87f624c26ba9cc51496185a0877cb6aefd1bb7fcce2934',
            ('trimmed_mean', 'selfish', 'all'): 'edb73c78fb42352299981179f2883944abddc242f0a7460f774545fb3f483c57',
            ('trimmed_mean', 'gaussian', 'all'): '84b97de3d9be6536870b2bc2268b5841bbedf45ebb1ad57ed8b248199fd91d58',
            ('trimmed_mean', 'trim', 'all'): '59caa4e359b0218759746cb932b9535c2a2adcd33ddc49d280c442240856a893',
            ('krum', 'none', 'all'): '89909f8acf7b85143e778d47afd6dabdbe3dd53d48a45d9841aa5d6a03408c76',
            ('krum', 'selfish', 'all'): '89909f8acf7b85143e778d47afd6dabdbe3dd53d48a45d9841aa5d6a03408c76',
            ('krum', 'gaussian', 'all'): 'cb93497769bce33d0d4b84c1458f4b867d6a0f6879d93cb77ae88630748dfb89',
            ('krum', 'trim', 'all'): 'cb93497769bce33d0d4b84c1458f4b867d6a0f6879d93cb77ae88630748dfb89',
            ('fltrust', 'none', 'all'): '479ba5a43ab82f18fa3f05f9ef2ee429c0897e3819c9f5a0c0fefd7c38f35107',
            ('fltrust', 'selfish', 'all'): 'ac53cfc66cc213b72aa9e526293d7cadb2d818edbef98407ee97ce28590688f0',
            ('fltrust', 'gaussian', 'all'): 'b7fecf304ec0415497faf6ba9f1d25531c6754235f76dfa24f4e87e8b9f6a9ee',
            ('fltrust', 'trim', 'all'): '91657125951003515307401c505211aa5bc5d1f0ee99298ff600c7bfcc98d016',
            ('flame', 'none', 'all'): '0e2d11d42168485f3606f91a91fdf492f5634c7fa46cbbe396f1d49db1434a7e',
            ('flame', 'selfish', 'all'): '0dd5cc7484b850230c1da2bbbdfc5aab98e6665e695b68ed7b988fbbd493b43a',
            ('flame', 'gaussian', 'all'): 'c88af0bc254090c7fd73e3d802eb694204a6e350814a05b462343c48f9aa121f',
            ('flame', 'trim', 'all'): 'c88af0bc254090c7fd73e3d802eb694204a6e350814a05b462343c48f9aa121f',
        },
        'PINNED_13_3': {
            ('trimmed_mean', 'selfish', 'all'): '6085f5d1831a2a85504ab60fa2628c16a5d8036078da2e9c7025862ac124971a',
        },
    },
    'Katmai': {
        'PINNED': {
            ('fedavg', 'none', 'all'): 'c4235ba7da21e3af7ca6822b74699ca03284fbffdfc14124b8263bb5a9bbd2a4',
            ('fedavg', 'selfish', 'all'): '3c0f712193fff30581ef856968fb339bdeea74a93902911b4e1b03d1608e4ea0',
            ('fedavg', 'gaussian', 'all'): 'abe3b8929677df0ba6d6e9966797064d533e92f1e95979f624d9fa5aee23eb1d',
            ('fedavg', 'trim', 'all'): '35f8b6ed16eb98aef4d7cb1879a7ca57a92b0736149e939cce149f09ecb3f570',
            ('median', 'none', 'all'): 'fa83b25f7bc550a088e8b6f5232d6fb9d8bdafa982808ecf52eec6e3a44ac0d1',
            ('median', 'selfish', 'all'): '6800c33df5cccc413fe863f876e6a20c9ae3db404f76c10cad2c65ba7a3ba5a1',
            ('median', 'gaussian', 'all'): '6bc52ba7fac06c59544ff493f84712530e7c5ee9c105921f7a5946ccbfa72825',
            ('median', 'trim', 'all'): '6e1da37e89fec0b189af0ed58dff8a9df3130cbf54685996dc863b1fb08f6dc0',
            ('trimmed_mean', 'none', 'all'): '601bf7b1821e84a121045994574a80cee39d3681c3ce7786370e9d070d4813fd',
            ('trimmed_mean', 'selfish', 'all'): '9aa547212e8fc00ffe502855acaa4d49b315097a97a917ae46c5e06610ce9d58',
            ('trimmed_mean', 'gaussian', 'all'): '655d66219a8cba3a4327b0c604bd7b1d2c271a42e533c79d2a5cbc7805eb3d07',
            ('trimmed_mean', 'trim', 'all'): 'ebd02aaabdb553a199a15c3856dddda5752c8a57675c1b569263392d1981bdee',
            ('krum', 'none', 'all'): '90802503942bbe8b01a279595bf0b93250fc9f61be17262dc6b8fb626f25b00a',
            ('krum', 'selfish', 'all'): '0b7ede58b8790fe1bbe5d2a9be1063220a32fd0f147ddf38eadc29801348601f',
            ('krum', 'gaussian', 'all'): 'b2c865724cd212400bff3513ef9d5b922bdddf6c33973de284764d1a1fbfad68',
            ('krum', 'trim', 'all'): 'b2c865724cd212400bff3513ef9d5b922bdddf6c33973de284764d1a1fbfad68',
            ('fltrust', 'none', 'all'): '0cd9a3462b6a91658c11b53c2fd8fb8128977d90649824b54f2478897c216952',
            ('fltrust', 'selfish', 'all'): '80826687c127c8763393e2500f0663b93133206a5aaf08b916bbc1cfbd9af32f',
            ('fltrust', 'gaussian', 'all'): '3c59c73a33e8cde116d91335113b14e11114b5a2eb26d48fdf7c57396d9ca03b',
            ('fltrust', 'trim', 'all'): '4ff0268be83b87e1361f3ded9a9d6366dad47c55f418566cfd9798b92e2c7674',
            ('flame', 'none', 'all'): '824eab3eaf34034916c27dec674edcbf917b66ae67cacad12e5230ae444f88ce',
            ('flame', 'selfish', 'all'): 'bf40c1afd32594769ca6b64c4f718e390e1b0783c0aff8e4f0c6f1b18f0ec049',
            ('flame', 'gaussian', 'all'): '1849e6d78006528edb95266526f7006b52281cd1f96375a6192f2b2ba713b564',
            ('flame', 'trim', 'all'): '1849e6d78006528edb95266526f7006b52281cd1f96375a6192f2b2ba713b564',
            ('fedavg', 'selfish', 'selfish_only'): '1af3dc3465bf3cbd1773d6d3c7173ebe1d258ad68c11c24d4ddb1317bd67006d',
            ('median', 'selfish', 'selfish_only'): '0f1fe2e32d15fb9ce43e130ba5e84fa2cdd646548d896a2415e6fc0f9e70f580',
            ('fltrust', 'selfish', 'selfish_only'): '628f388de65cbb6d0e8ab8c8e0585560cd895ef0cb6abce76ee93b850981f64f',
            ('flame', 'selfish', 'selfish_only'): '73e2695790beef869c7db30e3da3c5621436e99c523a15ed3a5f8e35bf604c3e',
            ('fedavg', 'independent', 'all'): '4b9ee207686d225d2a6eff4d82eb89db6178ea700e97fc59081fb29365e1a840',
            ('median', 'independent', 'all'): '4b9ee207686d225d2a6eff4d82eb89db6178ea700e97fc59081fb29365e1a840',
            ('trimmed_mean', 'independent', 'all'): '4b9ee207686d225d2a6eff4d82eb89db6178ea700e97fc59081fb29365e1a840',
            ('krum', 'independent', 'all'): '4b9ee207686d225d2a6eff4d82eb89db6178ea700e97fc59081fb29365e1a840',
            ('fltrust', 'independent', 'all'): '4b9ee207686d225d2a6eff4d82eb89db6178ea700e97fc59081fb29365e1a840',
            ('flame', 'independent', 'all'): '4b9ee207686d225d2a6eff4d82eb89db6178ea700e97fc59081fb29365e1a840',
            ('fedavg', 'two_coalitions', 'all'): 'a769e206527cb0af9eaeb576b8a9fe6085d0c5a3dd53061a7f0a5bcd48d1ee0f',
            ('median', 'two_coalitions', 'all'): 'a769e206527cb0af9eaeb576b8a9fe6085d0c5a3dd53061a7f0a5bcd48d1ee0f',
            ('trimmed_mean', 'two_coalitions', 'all'): 'a769e206527cb0af9eaeb576b8a9fe6085d0c5a3dd53061a7f0a5bcd48d1ee0f',
            ('krum', 'two_coalitions', 'all'): 'a769e206527cb0af9eaeb576b8a9fe6085d0c5a3dd53061a7f0a5bcd48d1ee0f',
            ('fltrust', 'two_coalitions', 'all'): 'a769e206527cb0af9eaeb576b8a9fe6085d0c5a3dd53061a7f0a5bcd48d1ee0f',
            ('flame', 'two_coalitions', 'all'): 'a769e206527cb0af9eaeb576b8a9fe6085d0c5a3dd53061a7f0a5bcd48d1ee0f',
        },
        'PINNED_11_3': {
            ('fedavg', 'none', 'all'): 'b3be3874f2187dac3ab46c19b77811b29022a06c89efe2aeef1a34d7b52e516b',
            ('fedavg', 'selfish', 'all'): 'a6690597c6f2453537e37b155a31bf83142f60820d8fd696a820f44bf8f2b748',
            ('fedavg', 'gaussian', 'all'): '5fa8fa3cf866f7e08ab3b1ebd2be7bd7445a84c6f5c9f22be4b3539d764ba446',
            ('fedavg', 'trim', 'all'): '1fef00406667c7601939cd7426be1f690d6ab98324350daa1362466a6916907a',
            ('median', 'none', 'all'): 'b190e3bbf04fe764b686cf9e096c86088f699c32250dab2ee94e3bce23081983',
            ('median', 'selfish', 'all'): '2c760afef31c421d3938fd24a1807f5bcd0a9fd976eb139a09e0878e4d269a20',
            ('median', 'gaussian', 'all'): 'edb2f1147abf1a9b153701693946d663a2938365990f22ab578e968fafaa80c7',
            ('median', 'trim', 'all'): 'f4b96bd0195550fb9e79ba80fc0402cea162028f5bf08977938e015df34a92b0',
            ('trimmed_mean', 'none', 'all'): '03c908b9e13326df1647cf1e533e7de637dbee5058fa4d15710d79c8c1a212f5',
            ('trimmed_mean', 'selfish', 'all'): '91a2733d004816bb61cb0c42142857be58ae7236c8f8bfb163bf2f49285c3626',
            ('trimmed_mean', 'gaussian', 'all'): '1d6660e8aa76e031ab1d53432874f4ae0b1098a3b066d4bd623ec43bd0424917',
            ('trimmed_mean', 'trim', 'all'): '607b39fe3e8f75c8a686d16caa22eecd6c513ee47c9aabc516405ffc29e1492f',
            ('krum', 'none', 'all'): '6fd518bd3cd096e22e2b1a693aea1f7d3d4d0405600eb4a02dbee9f0337f470c',
            ('krum', 'selfish', 'all'): '6fd518bd3cd096e22e2b1a693aea1f7d3d4d0405600eb4a02dbee9f0337f470c',
            ('krum', 'gaussian', 'all'): '7958355d9c541098aa5ddc8777648e3266a7cb732e31ca94006ca537894df5d1',
            ('krum', 'trim', 'all'): '7958355d9c541098aa5ddc8777648e3266a7cb732e31ca94006ca537894df5d1',
            ('fltrust', 'none', 'all'): '0e9e4e89292577a5c49ce51103453522fc3cb21fcea5a7f713a4ae4f44f9720f',
            ('fltrust', 'selfish', 'all'): '61fc17ac93133794d7cafda8c4d6a42a53c7ff362bbb8a01bf21e72f0501bc81',
            ('fltrust', 'gaussian', 'all'): 'cf968e51a03800ebe6949768f38e30f84359978ce396a6a43b5bbed7e1ee6df5',
            ('fltrust', 'trim', 'all'): 'e24112a1c21c1a786e9fd1113aa585a99e67e09d989430f22c9e1f8eeda1f15e',
            ('flame', 'none', 'all'): '2e5736b7e7c45851177f13094a3b7ab983f24254fc11397d1d1da5fb67d62eb2',
            ('flame', 'selfish', 'all'): '6b5428fbcd22cb113b0c0feb7be70464fcd659a3acd37656dcd846ecb9e702bc',
            ('flame', 'gaussian', 'all'): '8685da51d773d5c2dd233b1e7c78a8e70e6cf72b054b326bc95527e330f558b2',
            ('flame', 'trim', 'all'): '8685da51d773d5c2dd233b1e7c78a8e70e6cf72b054b326bc95527e330f558b2',
        },
        'PINNED_13_3': {
            ('trimmed_mean', 'selfish', 'all'): '49ec462c23e1d7d79cf3716dc9aa993532d3d0c0ece03c081d1a3a8240e5c77a',
        },
    },
    'Nehalem': {
        'PINNED': {
            ('fedavg', 'none', 'all'): '9196b8d5819b0c8dc2bd6ab43964a24acc0490da57b5ea1e9ae35f43fdfe8cbd',
            ('fedavg', 'selfish', 'all'): 'a2a628878ef7e4464355505751973276ce94795742cb61b1f0d5b602cf0ccfb7',
            ('fedavg', 'gaussian', 'all'): 'abe3b8929677df0ba6d6e9966797064d533e92f1e95979f624d9fa5aee23eb1d',
            ('fedavg', 'trim', 'all'): '59e438bab2afb0a4d4ff9e03a153c5ea429122ef9b4f2bfcfcc4f97d57093b92',
            ('median', 'none', 'all'): 'c0e9a5af7d33e7f1f8ce6911f47337277c88274829d13f24c2753043c3798826',
            ('median', 'selfish', 'all'): 'e9c5688bcd7118c4343b33cca249d22324ff8dfaec646f4415571efc193f8ced',
            ('median', 'gaussian', 'all'): '928b3a6d18b21eced12688c528bf882b0198a928cf3e95e5ab4d64b996241116',
            ('median', 'trim', 'all'): '12699399ccd3d2463484d237978773bdeb872a2c6db47394f89cb519aa2aa1f8',
            ('trimmed_mean', 'none', 'all'): 'ce8ebe93466231cb19da8a91ec7861b13470393c3cf6cebcc1fbba05682a30cd',
            ('trimmed_mean', 'selfish', 'all'): '3b1e9008c53f8d413f5453244ff939ec5a3179044ca5047b7b8d46250adcd60b',
            ('trimmed_mean', 'gaussian', 'all'): '0961fb196fb4364c31ae3743d6e63f527e7571f7b5fab6ebef6f44e8c6dbded2',
            ('trimmed_mean', 'trim', 'all'): '338e02408cb93a27434f55c64fe99733bbc62fd6cf2c2563aed938a284918b78',
            ('krum', 'none', 'all'): 'bb925bf234861e5481d95a4dcb46f5284c7db9e303928ffc6f48a4d594bf0e30',
            ('krum', 'selfish', 'all'): 'ae0395b9db4998a4547f5529bd285f2e932586bbdb5fb7de2eb8e0f216d3210c',
            ('krum', 'gaussian', 'all'): 'c221e3ac1ead3129e2abebf35958f261c77646051037c73b27035912dbb60638',
            ('krum', 'trim', 'all'): 'c221e3ac1ead3129e2abebf35958f261c77646051037c73b27035912dbb60638',
            ('fltrust', 'none', 'all'): '33f3b71d190b7cc9846e711eec77b6d61da7afd6be5287503497ea4d11206ca8',
            ('fltrust', 'selfish', 'all'): 'a3d798c56362da8a964101fc0a1672dc2f095673577b761929c767465e0399e0',
            ('fltrust', 'gaussian', 'all'): '3b70ca12799ebf790315f41b6c63620376d1ddc867ccf761da7b5a1fbf3e7797',
            ('fltrust', 'trim', 'all'): 'd164c9fdde68a1bca54e7070128c3b78d249ef876d6208d4e9416f3e5a344f5d',
            ('flame', 'none', 'all'): '457c5840b7403778d8fa13cefd2a32e4fae879e2968f28c99508f8ad38f71639',
            ('flame', 'selfish', 'all'): 'f84f6081eb484c6064161119ff33679e4f7a7ee14718a2b8afb048ef7931760c',
            ('flame', 'gaussian', 'all'): 'de6720963fe1f8c1895ee8ab85b5d5f5852b98cd47b342bcafc9b02d6b39d657',
            ('flame', 'trim', 'all'): 'de6720963fe1f8c1895ee8ab85b5d5f5852b98cd47b342bcafc9b02d6b39d657',
            ('fedavg', 'selfish', 'selfish_only'): '6b9999140a18359d7f14c1a3f36a649feb44c272eb7a13514f412aac6519c7cc',
            ('median', 'selfish', 'selfish_only'): 'e53923e54e9bf8fc2d0fb3aa70f2920149cf7dac26961adfe24c27674a8aadff',
            ('fltrust', 'selfish', 'selfish_only'): '6943ae3de8c1576847876a1c04471dabf96e9ab30b6d0832a51bd505e83bd5d0',
            ('flame', 'selfish', 'selfish_only'): '9a122bde35bedee3200f766e60aa1159efde8d72312f21c1ab045fca345bd99e',
            ('fedavg', 'independent', 'all'): '574e11413fe0a4aff39d92d7bc5b1301df81f20de01f95956dfebbb3e7bd09d6',
            ('median', 'independent', 'all'): '574e11413fe0a4aff39d92d7bc5b1301df81f20de01f95956dfebbb3e7bd09d6',
            ('trimmed_mean', 'independent', 'all'): '574e11413fe0a4aff39d92d7bc5b1301df81f20de01f95956dfebbb3e7bd09d6',
            ('krum', 'independent', 'all'): '574e11413fe0a4aff39d92d7bc5b1301df81f20de01f95956dfebbb3e7bd09d6',
            ('fltrust', 'independent', 'all'): '574e11413fe0a4aff39d92d7bc5b1301df81f20de01f95956dfebbb3e7bd09d6',
            ('flame', 'independent', 'all'): '574e11413fe0a4aff39d92d7bc5b1301df81f20de01f95956dfebbb3e7bd09d6',
            ('fedavg', 'two_coalitions', 'all'): 'a65d43e7c1ed0366d721eefc4407c01b8ed62b76e78429419ff0a19c0f67fefe',
            ('median', 'two_coalitions', 'all'): 'a65d43e7c1ed0366d721eefc4407c01b8ed62b76e78429419ff0a19c0f67fefe',
            ('trimmed_mean', 'two_coalitions', 'all'): 'a65d43e7c1ed0366d721eefc4407c01b8ed62b76e78429419ff0a19c0f67fefe',
            ('krum', 'two_coalitions', 'all'): 'a65d43e7c1ed0366d721eefc4407c01b8ed62b76e78429419ff0a19c0f67fefe',
            ('fltrust', 'two_coalitions', 'all'): 'a65d43e7c1ed0366d721eefc4407c01b8ed62b76e78429419ff0a19c0f67fefe',
            ('flame', 'two_coalitions', 'all'): 'a65d43e7c1ed0366d721eefc4407c01b8ed62b76e78429419ff0a19c0f67fefe',
        },
        'PINNED_11_3': {
            ('fedavg', 'none', 'all'): 'db3e0dd62c11ac746b99053f60a698b4a5bef6495875843922a3ed119e04d4bf',
            ('fedavg', 'selfish', 'all'): '6fe7efa29dcd74a74269e426351563bf9d4d39c59f4eac32a53fd6ddf94b8101',
            ('fedavg', 'gaussian', 'all'): '5fa8fa3cf866f7e08ab3b1ebd2be7bd7445a84c6f5c9f22be4b3539d764ba446',
            ('fedavg', 'trim', 'all'): 'eeb017b22553a18c05edaad8b5c69a87eac6a2fec6b588ddf79abfdf7428a75d',
            ('median', 'none', 'all'): '769a734407bf8ed02fe0e8cba008554ac3bbd990379324ad872280cb592f5f7a',
            ('median', 'selfish', 'all'): '7847722e649bdfbcc20e4ac630a5acefcd29ba1f28d2ed16356e868fa6bcb051',
            ('median', 'gaussian', 'all'): '2a8bc66c61b30b651d97a6b49f23a765140b14b4ebe03dfd00b02c3219b8f744',
            ('median', 'trim', 'all'): '4d53c1e0b0d92c92092dcd9bf10f08a6141995b17f639456b2cb3813cde575cc',
            ('trimmed_mean', 'none', 'all'): 'ae1d8c8b5d0843d46323d162d2cfd41a5fbe09f517101702ce42a444af323b76',
            ('trimmed_mean', 'selfish', 'all'): '486fd8a41bd04f6b23c060ea38da95c218da0bccc72a359c5e474f9a5936f4bc',
            ('trimmed_mean', 'gaussian', 'all'): 'cbc67f525c561ad1c14fe2e98c6f51fa841b15d58931327edc22c2acd32b629a',
            ('trimmed_mean', 'trim', 'all'): '2164f3f1e8b2f1904f4abfefd26f07f3d7e8458fd01d73490480569d463c2c3c',
            ('krum', 'none', 'all'): '245d8565f0d04745466d96ddfa4cdd85cdd3d1b1df0a4f252c742865e63fe1e9',
            ('krum', 'selfish', 'all'): '245d8565f0d04745466d96ddfa4cdd85cdd3d1b1df0a4f252c742865e63fe1e9',
            ('krum', 'gaussian', 'all'): '335d344ab19c293660305f04dc3b4c77ce4bbb88a69aae58bde10979cecc53c7',
            ('krum', 'trim', 'all'): '335d344ab19c293660305f04dc3b4c77ce4bbb88a69aae58bde10979cecc53c7',
            ('fltrust', 'none', 'all'): '390389a9ea204ca465a605c4018f04ab03da2adf4ee9e878710330e9719a2608',
            ('fltrust', 'selfish', 'all'): 'a8b955cf59156a30a85a4c9910dbe0a8853f407c2758e8b8e2fc819510d3168f',
            ('fltrust', 'gaussian', 'all'): '208f11e29bd972827d668d8701dc953a1858ff8cf052ed6273c3028c2685149f',
            ('fltrust', 'trim', 'all'): '69eaa8fb164aa92fedaa4fece1117663bf635ea1e36a6333480a04f3c7cb9c5d',
            ('flame', 'none', 'all'): 'c1fe19b9dfc1d5d3d9123d7c78ae05902271611a38c9978dd6a3dfad56adb5c7',
            ('flame', 'selfish', 'all'): 'd77d5f694f60ed088977569a7025d642694c6e4d52c1a428bcfdafa0ba6b172c',
            ('flame', 'gaussian', 'all'): '395c33dc02e456f57dcfb9fd2cc5992f5c011c3b86b02f66a102aece96d4e79e',
            ('flame', 'trim', 'all'): '395c33dc02e456f57dcfb9fd2cc5992f5c011c3b86b02f66a102aece96d4e79e',
        },
        'PINNED_13_3': {
            ('trimmed_mean', 'selfish', 'all'): '3965113fbcbfba1f56e0302b00c07e66737c602d090adcce8bc9293d45db421e',
        },
    },
}
MODELS = {
    "SkylakeX": {name: {cell: pins[1] for cell, pins in table.items()} for name, table in TABLES.items()},
    **KERNEL_MODELS,
}
CORE = core_name()


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


def check_digests(digests: tuple[str, str], table: str, cell: tuple[str, str, str]) -> None:
    """The records digest against the one pinned for every core, then the
    final models against this core's set; each model failure names the core."""
    records, models = digests
    assert records == TABLES[table][cell][0]
    core = CORE or "unknown (no OpenBLAS name getter found beside numpy)"
    assert CORE in MODELS, f"OpenBLAS core {core} has no pinned final models; pinned cores: {', '.join(MODELS)}"
    assert models == MODELS[CORE][table][cell], f"final models differ from the digest pinned for OpenBLAS core {core}"


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_regression_matrix(cell, tmp_path):
    digests, started = run_cell(cell, str(tmp_path))
    assert started == (cell[1] in CRAFTING_ATTACKS)
    check_digests(digests, "PINNED", cell)


@pytest.mark.parametrize("cell", WIDE_CELLS, ids="-".join)
def test_regression_matrix_11_3(cell, tmp_path):
    digests, started = run_cell(cell, str(tmp_path), WIDE_ROLES)
    assert started == (cell[1] in CRAFTING_ATTACKS)
    check_digests(digests, "PINNED_11_3", cell)


@pytest.mark.parametrize("cell", WIDER_CELLS, ids="-".join)
def test_regression_matrix_13_3(cell, tmp_path):
    digests, started = run_cell(cell, str(tmp_path), WIDER_ROLES, WIDER_LAMBDA)
    assert started
    check_digests(digests, "PINNED_13_3", cell)


@pytest.mark.parametrize(
    "rule, roles, lam", OPTIMUM_CELLS, ids=[f"{rule}-{roles.n}+{roles.m}" for rule, roles, _ in OPTIMUM_CELLS]
)
def test_crafted_aggregates_sit_on_the_optimum(rule, roles, lam):
    """On every crafted round each attacked receiver's aggregate equals, per
    coordinate, the optimum of (x - w)^2 - lam * (x - w_benign)^2 over the
    reachable interval, from the scalar bounds and solver and the oracles."""
    engine = Engine(regression_config(rule, "selfish", roles=roles, lam=lam))
    bounds_of, benign_of = OPTIMUM_TERMS[rule]
    checks, mismatches = 0, []
    for t in range(1, engine.cfg.rounds + 1):
        pre_agg, crafted = engine.run_round()
        if crafted is None:
            continue
        for k in range(pre_agg.shape[1]):
            q = -np.sort(-pre_agg[: roles.n, k])
            bounds, benign = bounds_of(q, roles.m), benign_of(q, roles.m)
            for r in range(roles.n):
                target = solve_optimal_coordinate(pre_agg[r, k], benign, bounds, engine.lam)
                checks += 1
                if not math.isclose(engine.models[r, k], target, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    mismatches.append((t, r, k, engine.models[r, k], target))
    assert checks > 0
    assert not mismatches, (
        f"{len(mismatches)} of {checks} missed; first (round, receiver, coordinate, got, target): {mismatches[0]}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        tables = (
            ("PINNED", CELLS, ROLES, None),
            ("PINNED_11_3", WIDE_CELLS, WIDE_ROLES, None),
            ("PINNED_13_3", WIDER_CELLS, WIDER_ROLES, WIDER_LAMBDA),
        )
        models = {}
        for table, cells, roles, lam in tables:
            sys.stdout.write(f"{table} = {{\n")
            for cell in cells:
                digests, _ = run_cell(cell, directory, roles, lam)
                models.setdefault(table, {})[cell] = digests[1]
                sys.stdout.write(f"    {cell!r}: {digests!r},\n")
            sys.stdout.write("}\n")
        sys.stdout.write(f"# the KERNEL_MODELS entry of OpenBLAS core {CORE}\n    {CORE!r}: {{\n")
        for table, cells in models.items():
            sys.stdout.write(f"        {table!r}: {{\n")
            for cell, digest in cells.items():
                sys.stdout.write(f"            {cell!r}: {digest!r},\n")
            sys.stdout.write("        },\n")
        sys.stdout.write("    },\n")
