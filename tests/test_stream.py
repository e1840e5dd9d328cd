"""Streaming state accounting."""

import numpy as np
import pytest

from dpsr.model import MEMORY_KINDS, DpsrConfig, DpsrParams, dpsr_step
from dpsr.stream import account_state_bytes


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_state_accounting_matches_real_state_and_is_constant(kind):
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4,
                     kernel_lines=3, memory_kind=kind)
    params = DpsrParams.init(cfg, seed=0)
    width = 6
    expected = account_state_bytes(cfg, width).total_bytes
    cube = np.random.default_rng(0).random((20, width, 4)).astype(np.float32)
    state, sizes = None, {}
    for y, line in enumerate(cube, start=1):
        _, state = dpsr_step(line, params, state)
        sizes[y] = state.nbytes()
    assert sizes[2] == sizes[20] == expected
    # (K-1) conv tail lines per block, plus the latent when selective
    per_block = (cfg.kernel_lines - 1) * width * cfg.inner * 4
    if kind == "mamba":
        per_block += width * cfg.inner * cfg.state_size * 4
    assert expected == cfg.n_clff * per_block + width * cfg.bands * 4
