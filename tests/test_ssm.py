"""Memory block: one recurrence for the step and the scan, and its own contract."""

import math

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
    state = ssm.MemoryState.fresh(params, WIDTH)
    folded = []
    for line in z:
        out, state = ssm.entry(params)(Tensor(line[None]), params, state)
        folded.append(out.data)
    fresh = ssm.MemoryState.fresh(params, WIDTH)
    scanned = ssm.entry(params, whole=True)(Tensor(z), params, fresh)[0].data
    assert np.max(np.abs(np.concatenate(folded) - scanned)) <= 1e-12


# `dpsr_step` checks the width before the block runs, so only a direct call
# reaches the block's own checks
@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("shape, primed, error, message", [
    ((1, WIDTH, FEATURES), False, ContractError, "called without an initialized state"),
    ((1, WIDTH, FEATURES + 1), True, ShapeError, f"{FEATURES + 1} features vs params {FEATURES}"),
    ((1, WIDTH + 1, FEATURES), True, ContractError,
     f"line width {WIDTH + 1} does not match state width {WIDTH}"),
    ((2, 1, WIDTH, FEATURES), True, ShapeError,
     rf"expected \(L, W, F\) lines, got \(2, 1, {WIDTH}, {FEATURES}\)"),
    ((WIDTH, FEATURES), True, ShapeError,
     rf"expected \(L, W, F\) lines, got \({WIDTH}, {FEATURES}\)"),
], ids=["no-state", "features", "width", "rank-4", "rank-2"])
def test_the_block_checks_its_own_contract(kind, shape, primed, error, message):
    params = memory_params(np.float32, kind)
    state = ssm.MemoryState.fresh(params, WIDTH) if primed else None
    with pytest.raises(error, match=message):
        ssm.entry(params)(Tensor(np.zeros(shape, np.float32)), params, state)


def _matvec(w, x, b=None):
    return [sum(w[o][i] * x[i] for i in range(len(x))) + (0.0 if b is None else b[o])
            for o in range(len(w))]


def _silu(x):
    return x / (1.0 + math.exp(-x))


def oracle_memory_block(z, p):
    """(L, W, F) lines from a fresh state through the block, one pixel and one
    channel at a time in float64, from the math the block declares."""
    w = {name: t.data.tolist() for name, t in p.named_tensors()}
    lines, width, _ = z.shape
    ef, k = len(w["in_w"]), len(w["conv_w"][0])
    out = np.zeros(z.shape)
    for px in range(width):
        v = []                                    # the value branch of every line so far
        h = [[0.0] * len(w["b_w"]) for _ in range(ef)] if p.selective else None
        for t in range(lines):
            x = z[t, px].tolist()
            v.append(_matvec(w["in_w"], x, w["in_b"]))
            # K-line causal conv over the history, conv_w[:, K-1] on the newest
            # line, zeros before the first line
            u = [_silu(w["conv_b"][e] + sum(w["conv_w"][e][j] * v[t - (k - 1) + j][e]
                                            for j in range(k) if t - (k - 1) + j >= 0))
                 for e in range(ef)]
            y = u
            if p.selective:
                dt = [math.log1p(math.exp(a)) for a in _matvec(w["dt_w"], u, w["dt_b"])]
                b, c = _matvec(w["b_w"], u), _matvec(w["c_w"], u)
                for e in range(ef):
                    for n in range(len(b)):
                        a = -math.exp(w["a_log"][e][n])
                        h[e][n] = math.exp(dt[e] * a) * h[e][n] + b[n] * (dt[e] * u[e])
                y = [sum(c[n] * h[e][n] for n in range(len(c))) + w["d_skip"][e] * u[e]
                     for e in range(ef)]
            gate = [_silu(g) for g in _matvec(w["gate_w"], x, w["gate_b"])]
            out[t, px] = _matvec(w["out_w"], [y[e] * gate[e] for e in range(ef)], w["out_b"])
    return out


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_memory_block_equals_its_per_pixel_oracle(kind):
    # W 3, F 4, N 2, K 3 over 6 lines; every parameter random and non-zero,
    # biases and the D skip included
    rng = np.random.default_rng(11)
    params = ssm.MemoryParams.zeros(4, 1, 2, 3, kind == "mamba", dtype=np.float64)
    for _, t in params.named_tensors():
        t.data[...] = rng.uniform(0.2, 1.0, t.shape) * rng.choice([-1, 1], t.shape)
    z = rng.standard_normal((6, 3, 4))
    want = oracle_memory_block(z, params)
    state = ssm.MemoryState.fresh(params, 3)
    folded = []
    for line in z:
        out, state = ssm.entry(params)(Tensor(line[None]), params, state)
        folded.append(out.data)
    whole = ssm.entry(params, whole=True)(Tensor(z), params, ssm.MemoryState.fresh(params, 3))
    for got in (np.concatenate(folded), whole[0].data):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_scan_tape_size_does_not_grow_with_lines():
    params = memory_params(np.float32)
    rng = np.random.default_rng(9)
    counts = []
    for lines in (8, 32):
        z = Tensor(rng.standard_normal((lines, WIDTH, FEATURES)), requires_grad=True)
        with Tape() as tape:
            ssm.mamba_scan(z, params, ssm.MemoryState.fresh(params, WIDTH))
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1]
