"""Memory block: one recurrence for the step and the scan, and its own contract."""

import numpy as np
import pytest

from dpsr import ssm
from dpsr.errors import ContractError, ShapeError
from dpsr.model import MEMORY_KINDS
from dpsr.tensor import Tape, Tensor

FEATURES, STATE, KERNEL, WIDTH = 8, 4, 4, 5


def memory_params(dtype, kind="mamba"):
    rng = np.random.default_rng(7)
    return ssm.MemoryParams.init(FEATURES, 1, STATE, KERNEL, kind == "mamba", rng, dtype=dtype)


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_step_fold_equals_scan_float64(kind):
    params = memory_params(np.float64, kind)
    z = np.random.default_rng(8).standard_normal((12, WIDTH, FEATURES))
    state = ssm.MemoryState.fresh(params, WIDTH, np.float64)
    folded = []
    for line in z:
        out, state = ssm.entry(params)(line, params, state)
        folded.append(out.data)
    fresh = ssm.MemoryState.fresh(params, WIDTH, np.float64)
    scanned = ssm.entry(params, whole=True)(z, params, fresh)[0].data
    assert np.max(np.abs(np.stack(folded) - scanned)) <= 1e-12


# `dpsr_step` checks the width before the block runs, so only a direct call
# reaches the block's own checks
@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("width, features, primed, error, message", [
    (WIDTH, FEATURES, False, ContractError, "called without an initialized state"),
    (WIDTH, FEATURES + 1, True, ShapeError, f"{FEATURES + 1} features vs params {FEATURES}"),
    (WIDTH + 1, FEATURES, True, ContractError,
     f"line width {WIDTH + 1} does not match state width {WIDTH}"),
], ids=["no-state", "features", "width"])
def test_the_block_checks_its_own_contract(kind, width, features, primed, error, message):
    params = memory_params(np.float32, kind)
    state = ssm.MemoryState.fresh(params, WIDTH) if primed else None
    with pytest.raises(error, match=message):
        ssm.entry(params)(np.zeros((width, features), np.float32), params, state)


def test_scan_tape_size_does_not_grow_with_lines():
    params = memory_params(np.float32)
    rng = np.random.default_rng(9)
    counts = []
    for lines in (8, 32):
        z = Tensor(rng.standard_normal((lines, WIDTH, FEATURES)), requires_grad=True)
        with Tape() as tape:
            ssm.mamba_scan(z, params, ssm.MemoryState.fresh(params, WIDTH, np.float32))
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1]
