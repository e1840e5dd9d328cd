"""The profiler's counted FLOPs, parameter and state accounting."""

import hashlib
import itertools

import numpy as np
import pytest

from dpsr import tensor as T
from dpsr.errors import ContractError
from dpsr.model import DpsrConfig, DpsrParams, dpsr_step
from dpsr.profiler import profile

CONFIGS = {
    "mamba": DpsrConfig(bands=66),
    "causalconv": DpsrConfig(bands=66, memory_kind="causalconv"),
    "composed": DpsrConfig(bands=16, features=32),     # composes from W = 45 on
    "expand2": DpsrConfig(bands=16, features=32, up_features=16, expand=2),
}

# `row()` and the sha256 of `table()` per (config, width): every op's FLOPs,
# the totals, the per-block parameter counts and the state accounting. Any change
# to what `dpsr profile` prints shows up here.
GOLDEN_TABLES = {
    ("mamba", 1): ("280,66,4,mamba,2707939,5888652.0,89222.0,42824",
                   "af5ddd60f45752317ecc258ef9a55a1e2e2cb30cbc318b16e4a964b820266d5a"),
    ("mamba", 250): ("280,66,4,mamba,2707939,5521578.2,83660.3,10706000",
                     "ece7f9dacd116eb94cb0cdf631ec1744354bcea7d2b07e7ff613dc0dacb5f62c"),
    ("causalconv", 1): ("280,66,4,causalconv,2523139,5452972.0,82620.8,6984",
                        "3ecaf88c7f2434589a2073ef7b14e54a9a6563313907e8dfc07129e997feb419"),
    ("causalconv", 250): ("280,66,4,causalconv,2523139,5103746.5,77329.5,1746000",
                          "00d4539aee5bd16b89b84a4be0c42615fe00649b92e8d2b9b281c5fe1db75a73"),
    ("composed", 1): ("32,16,4,mamba,131666,363368.0,22710.5,4928",
                      "dd25f4ca8b32b1c2339a8fe489d9cbc4d7225398d5ff655467aa6d45c7643a84"),
    ("composed", 250): ("32,16,4,mamba,131666,181315.9,11332.2,1232000",
                        "aff430fedb0a7eb583acc741eef0021ec694bea1fa438a3573dff3c467d50872"),
    ("expand2", 1): ("32,16,4,mamba,70802,181352.0,11334.5,9792",
                     "e1161f4b9542833637000f6138a09ff0ea3dea67d22e8d2bc1914d0182c06b1d"),
    ("expand2", 250): ("32,16,4,mamba,70802,172802.3,10800.1,2448000",
                       "8b70e17c75ff448292bc9ad1f65a1c3e47b91c7a29a260fdedec245ca490354c"),
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


def test_profile_rejects_a_fractional_width():
    with pytest.raises(ContractError):
        profile(CONFIGS["composed"], 2.5)


def block_of(name):
    return name.rpartition(".")[0]


# both memory kinds, and both upsampler forms (the composed config streams
# separate at 1 px and composed at 250 px)
@pytest.mark.parametrize("name,width", [("mamba", 32), ("causalconv", 32),
                                        ("composed", 1), ("composed", 250)])
def test_blocks_are_named_once_by_the_parameter_prefixes(name, width):
    cfg = CONFIGS[name]
    params = DpsrParams.init(cfg, seed=0)
    blocks = list(dict.fromkeys(block_of(n) for n, _ in params.named_tensors()))
    report = profile(cfg, width)
    # one contiguous run of items per block, in the parameters' order
    assert [b for b, _ in itertools.groupby(block_of(i.name) for i in report.items)] == blocks
    assert [b for b, _ in report.params] == blocks
    # a real stream, primed by its first line: no op counts outside a block
    lines = np.random.default_rng(1).random((2, width, cfg.bands)).astype(np.float32)
    _, state = dpsr_step(lines[0], params, None)
    with T.counting() as tally:
        dpsr_step(lines[1], params, state)
    assert tally and all(block_of(op) in blocks for op in tally)
