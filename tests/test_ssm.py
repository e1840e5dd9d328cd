"""Memory block: one recurrence for the step and the scan."""

import numpy as np

from dpsr import ssm
from dpsr.tensor import Tape, Tensor

FEATURES, STATE, KERNEL, WIDTH = 8, 4, 4, 5


def mamba_params(dtype):
    rng = np.random.default_rng(7)
    return ssm.MemoryParams.init(FEATURES, 1, STATE, KERNEL, True, rng, dtype=dtype)


def test_step_fold_equals_scan_float64():
    params = mamba_params(np.float64)
    z = np.random.default_rng(8).standard_normal((12, WIDTH, FEATURES))
    state = ssm.MemoryState.fresh(params, WIDTH, np.float64)
    folded = []
    for line in z:
        out, state = ssm.mamba_step(line, params, state)
        folded.append(out.data)
    fresh = ssm.MemoryState.fresh(params, WIDTH, np.float64)
    scanned = ssm.mamba_scan(z, params, fresh)[0].data
    assert np.max(np.abs(np.stack(folded) - scanned)) <= 1e-12


def test_scan_tape_size_does_not_grow_with_lines():
    params = mamba_params(np.float32)
    rng = np.random.default_rng(9)
    counts = []
    for lines in (8, 32):
        z = Tensor(rng.standard_normal((lines, WIDTH, FEATURES)), requires_grad=True)
        with Tape() as tape:
            ssm.mamba_scan(z, params, ssm.MemoryState.fresh(params, WIDTH, np.float32))
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1]
