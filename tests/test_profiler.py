"""The profiler's symbolic counts against the model's parameter declarations."""

import hashlib

import pytest

from dpsr.model import DpsrConfig, DpsrParams
from dpsr.profiler import profile

CONFIGS = {
    "mamba": DpsrConfig(bands=66),
    "causalconv": DpsrConfig(bands=66, memory_kind="causalconv"),
    "composed": DpsrConfig(bands=16, features=32),
    "expand2": DpsrConfig(bands=16, features=32, up_features=16, expand=2),
}

# `row()` and the sha256 of `table()` per (config, width): every item's name,
# parameter count and FLOPs, the totals and the state accounting. Any change
# to what `dpsr profile` prints shows up here.
GOLDEN_TABLES = {
    ("mamba", 1): ("280,66,4,mamba,2707939,5890018.0,89242.7,42824",
                   "c73b783276df6032216d5642790e64bb86876c0ba29c3f9cfa58b636b995aef0"),
    ("mamba", 250): ("280,66,4,mamba,2707939,5537200.9,83897.0,10706000",
                     "7900e6fff894d469956c48b1baac8c215bb3eb651e50fc01dde9a56e2e3ca4c4"),
    ("causalconv", 1): ("280,66,4,causalconv,2523139,5456578.0,82675.4,6984",
                        "4df618442717c8826ee08cc389158864201ac58db1c0b31812b0945bd1871eb5"),
    ("causalconv", 250): ("280,66,4,causalconv,2523139,5103760.9,77329.7,1746000",
                          "4cb55a474c1fe053f7053361d20cabc070a7501aa1f43f543075902724be040d"),
    ("composed", 1): ("32,16,4,mamba,131666,157828.0,9864.2,4928",
                      "ccb7dd12ae863adda80067b73761cc243b1ae19de4907ad9f41973c2abe6e94d"),
    ("composed", 250): ("32,16,4,mamba,131666,144660.9,9041.3,1232000",
                        "1316e59ea1a21bd1ca2b988d47b6df00aaeb109d7e0e5d585a41780850000280"),
    ("expand2", 1): ("32,16,4,mamba,70802,181252.0,11328.2,9792",
                     "487708311d37ef20b1201e8ffcfd96f04bc39d5cfba0e9920fba77f5b82aa222"),
    ("expand2", 250): ("32,16,4,mamba,70802,176371.6,11023.2,2448000",
                       "90aff57dd15313940c87626ce746215cb4aee0c731676bc5543ebe118931e4d1"),
}


@pytest.mark.parametrize("name", ["mamba", "causalconv", "expand2"])
def test_param_count_equals_the_declared_tensors(name):
    cfg = CONFIGS[name]
    declared = sum(t.data.size for _, t in DpsrParams.zeros(cfg).named_tensors())
    assert profile(cfg).param_count == declared


@pytest.mark.parametrize("name,width", list(GOLDEN_TABLES))
def test_profile_table_matches_golden(name, width):
    report = profile(CONFIGS[name], width)
    digest = hashlib.sha256(report.table().encode()).hexdigest()
    assert (report.row(), digest) == GOLDEN_TABLES[name, width]
