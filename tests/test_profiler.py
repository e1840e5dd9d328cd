"""The profiler's symbolic counts against the model's parameter declarations."""

import pytest

from dpsr.model import DpsrConfig, DpsrParams
from dpsr.profiler import profile


@pytest.mark.parametrize("cfg", [
    DpsrConfig(bands=66),
    DpsrConfig(bands=66, memory_kind="causalconv"),
    DpsrConfig(bands=16, features=32, up_features=16, expand=2),
], ids=["mamba", "causalconv", "expand2"])
def test_param_count_equals_the_declared_tensors(cfg):
    declared = sum(t.data.size for _, t in DpsrParams.zeros(cfg).named_tensors())
    assert profile(cfg).param_count == declared
