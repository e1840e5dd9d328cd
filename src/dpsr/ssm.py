"""Along-track memory: causal line convolution plus a selective SSM.

One block, one forward: `_forward` takes L >= 1 lines and the state left by
the lines before them, and returns the L output lines plus the state after
them. `entry(params, whole)` picks the name a caller runs it under, one
per memory kind and caller, all with the signature `(z, params, state)`:
`mamba_scan` / `causalconv_scan` for training's whole-image forward (from
a fresh state), `mamba_step` / `causalconv_step` for a stream (a line or a
chunk). They differ only by name, so that a tracer can keep the kinds and
the two callers apart. Folding the step over a sequence and running the
scan over it share every operation, which makes line-by-line inference
exact rather than an approximation. In 32-bit the two may still differ by
rounding, since the projections then run over L lines at once.

The SSM recurrence itself is one op, `tensor.selective_scan`, for any L:
it advances the latent with in-place array updates rather than a chain of
per-line tensor ops, and its backward runs the adjoint recurrence in
reverse, so a training step's tape does not grow with the number of lines.

The causal-conv ablation is the same block without the SSM term; the
params decide which one runs.

State per block: the last K-1 projected feature lines (K-1, W, EF), which
is all the causal convolution reads besides the new line, and, for the
selective block, the SSM latent (W, N, EF), laid out with the channels
last so that its updates run along the long contiguous axis. Both are
independent of how many lines were already processed. `MemoryState`'s
fields are those arrays: `fresh` sizes and types them from the block's
parameters, and `arrays()` lists them, for `StreamState.arrays()` and the
state rows `dpsr profile` measures on a primed stream.
Both state ops take the state as an array and return its next value as an
array: `tensor.causal_depthwise_conv` returns (y, next tail) as
`tensor.selective_scan` returns (y, next latent).
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import ParamSet, one, uniform, zero
from .errors import ContractError, ShapeError

DT_MIN = 0.001
DT_MAX = 0.1


def _dt_bias(rng, shape):
    # softplus(bias) uniform in [DT_MIN, DT_MAX], log-spaced
    dt = np.exp(rng.uniform(np.log(DT_MIN), np.log(DT_MAX), size=shape))
    return np.log(np.expm1(dt))


def _a_log(rng, shape):
    # -A = 1..N per state index, repeated over channels
    inner, state = shape
    return np.log(np.tile(np.arange(1, state + 1, dtype=np.float64), (inner, 1)))


class MemoryParams(ParamSet):
    """Memory block: value branch through a causal line conv and, when
    selective, an SSM with input-dependent dt, B, C and learned A, D; then
    a SiLU gate and an output projection.

    Dims: (features, expand, state, kernel_lines, selective). The
    non-selective block (the causal-conv ablation) has no SSM tensors.
    """

    @staticmethod
    def spec(features, expand, state, kernel_lines, selective):
        f, ef, n, k = features, features * expand, state, kernel_lines
        ssm = [
            ("dt_w", (ef, ef), uniform(ef)),
            ("dt_b", (ef,), _dt_bias),
            ("b_w", (n, ef), uniform(ef)),
            ("c_w", (n, ef), uniform(ef)),
            ("a_log", (ef, n), _a_log),      # A = -exp(a_log) < 0
            ("d_skip", (ef,), one),
        ]
        return ([("in_w", (ef, f), uniform(f)), ("in_b", (ef,), zero),
                 ("gate_w", (ef, f), uniform(f)), ("gate_b", (ef,), zero),
                 ("conv_w", (ef, k), uniform(k)), ("conv_b", (ef,), zero)]
                + (ssm if selective else [])
                + [("out_w", (f, ef), uniform(ef)), ("out_b", (f,), zero)])

    @property
    def selective(self):
        return self.dims[4]


@dataclass
class MemoryState:
    """Recurrent state of one memory block: its fields are the arrays it holds."""

    conv_tail: np.ndarray          # (K-1, W, EF) last value lines, oldest first
    h: np.ndarray | None = None    # (W, N, EF) SSM latent; selective blocks only

    @classmethod
    def fresh(cls, params, width):
        """Zero state for `width`-px lines, sized and typed by the block's parameters."""
        features, expand, state, kernel_lines, selective = params.dims
        ef, dtype = features * expand, params.in_w.dtype
        return cls(conv_tail=np.zeros((kernel_lines - 1, width, ef), dtype=dtype),
                   h=np.zeros((width, state, ef), dtype=dtype) if selective else None)

    @property
    def width(self):
        return self.conv_tail.shape[1]

    def arrays(self):
        """(label, array) of each array the state holds, in field order."""
        labeled = [("conv_tail[(K-1)xWxEF]", self.conv_tail), ("ssm_latent[WxNxEF]", self.h)]
        return [(label, a) for label, a in labeled if a is not None]


def _forward(z, p, s):
    """(L, W, F) Tensor of lines after state `s` -> (L, W, F) Tensor plus the next state."""
    if z.data.ndim != 3:
        raise ShapeError(f"memory block: expected (L, W, F) lines, got {z.shape}")
    if s is None:
        raise ContractError("memory block called without an initialized state")
    if z.shape[-1] != p.in_w.shape[1]:
        raise ShapeError(f"memory block: {z.shape[-1]} features vs params {p.in_w.shape[1]}")
    if z.shape[1] != s.width:
        raise ContractError(
            f"memory block: line width {z.shape[1]} does not match state width {s.width}")
    v = T.linear(z, p.in_w, p.in_b)
    zp, tail = T.causal_depthwise_conv(v, s.conv_tail, p.conv_w, p.conv_b)
    zp = T.silu(zp)
    y, h = zp, None
    if p.selective:
        dt = T.softplus(T.linear(zp, p.dt_w, p.dt_b))
        y, h = T.selective_scan(dt, zp, T.linear(zp, p.b_w), T.linear(zp, p.c_w),
                                p.a_log, s.h)
        y = T.add(y, T.mul(p.d_skip, zp))
    gated = T.mul(y, T.silu(T.linear(z, p.gate_w, p.gate_b)))
    return T.linear(gated, p.out_w, p.out_b), MemoryState(conv_tail=tail, h=h)


def entry(params, whole=False):
    """The name `params`' kind runs under: `*_scan` for the whole-image forward
    (`whole`), else `*_step`. Looked up at call time, so a wrapper installed
    over a name is the one returned."""
    if whole:
        return mamba_scan if params.selective else causalconv_scan
    return mamba_step if params.selective else causalconv_step


def mamba_step(z, p, s):
    """(L, W, F) lines after state `s` through the selective block, plus the next state."""
    return _forward(z, p, s)


def causalconv_step(z, p, s):
    """(L, W, F) lines after state `s` through the causal-conv ablation, plus the next state."""
    return _forward(z, p, s)


def mamba_scan(z, p, s):
    """`mamba_step` under the whole-image forward's name."""
    return _forward(z, p, s)


def causalconv_scan(z, p, s):
    """`causalconv_step` under the whole-image forward's name."""
    return _forward(z, p, s)
