"""Full network: SFE -> CLFF blocks -> upsampler, residual over bilinear.

Consuming low-res line y (0-based, y >= 1) emits the r high-res lines
r*(y-1) .. r*(y-1)+r-1, i.e. the gap between the previous line and the one
just acquired. The first line only primes the recurrent state; the last r
high-res grid lines of an H-line image are never produced, so an H-line
input yields (H-1)*r output lines.

There is one forward, `_forward`: L >= 1 lines and the stream state before
them in, their output lines and the state after them out. Streaming
(`dpsr_step`, one line or a chunk at a time) and training
(`dpsr_forward_image`, all lines from a fresh state) are both thin callers
of it, so line-by-line inference equals the whole-image forward by
construction.
"""

import math
import struct
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import ssm, tensor as T
from .blocks import (NafParams, SfeParams, UpsamplerParams, bilinear_two_line,
                     naf_forward, sfe_forward, upsample_line)
from .errors import (ContractError, FormatError, NumericError, check_size, first_non_finite,
                     positive_int, read_exact, read_into)
from .tensor import Tensor

MEMORY_KINDS = ("mamba", "causalconv")
MAGIC = b"DPSRW001"
# the DPSRW001 config header: these DpsrConfig fields in this frozen order,
# one <u4 each, memory_kind as its MEMORY_KINDS index
HEADER_FIELDS = ("bands", "features", "expand", "state_size", "kernel_lines",
                 "up_features", "scale", "n_clff", "memory_kind", "ca_reduction")
HEADER = struct.Struct(f"<{len(HEADER_FIELDS)}I")


@dataclass(frozen=True)
class DpsrConfig:
    """Architecture hyperparameters; defaults follow the full-size model."""

    bands: int                 # input spectral channels
    features: int = 280        # working feature width
    expand: int = 1            # memory-block expansion factor
    state_size: int = 16       # SSM latent length per feature
    kernel_lines: int = 4      # causal-conv receptive field in lines
    up_features: int = 64      # reduced features kept through pixel shuffle
    scale: int = 4             # super-resolution factor
    n_clff: int = 2            # number of CLFF blocks
    memory_kind: str = "mamba"
    ca_reduction: int = 16     # channel-attention bottleneck ratio

    def __post_init__(self):
        for name in ("bands", "features", "expand", "state_size",
                     "kernel_lines", "up_features", "scale", "n_clff",
                     "ca_reduction"):
            object.__setattr__(self, name, positive_int(name, getattr(self, name)))
        if self.features % 2 != 0:
            raise ContractError("features must be even (gated blocks halve channels)")
        if self.memory_kind not in MEMORY_KINDS:
            raise ContractError(f"memory_kind must be one of {MEMORY_KINDS}")

    @property
    def selective(self):
        """Whether the memory blocks carry the selective SSM (else the causal-conv ablation)."""
        return self.memory_kind == "mamba"


@dataclass
class DpsrParams:
    config: DpsrConfig
    sfe: SfeParams
    clff: list            # [(NafParams, memory params), ...]
    upsampler: UpsamplerParams

    @classmethod
    def build(cls, config, make):
        """Each block as `make(block class, *its dims)`, the one place that knows
        every block's dims: tensors for `init` / `zeros`, record sizes for
        `load_params`, the memory dims `MemoryState.fresh` sizes the state by."""
        c = config
        return cls(
            config=c,
            sfe=make(SfeParams, c.bands, c.features, c.ca_reduction),
            clff=[(make(NafParams, c.features),
                   make(ssm.MemoryParams, c.features, c.expand, c.state_size,
                        c.kernel_lines, c.selective))
                  for _ in range(c.n_clff)],
            upsampler=make(UpsamplerParams, c.features, c.up_features, c.scale, c.bands),
        )

    @classmethod
    def init(cls, config, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        return cls.build(config, lambda block, *dims: block.init(*dims, rng, dtype=dtype))

    @classmethod
    def zeros(cls, config, dtype=np.float32):
        return cls.build(config, lambda block, *dims: block.zeros(*dims, dtype=dtype))

    def named_tensors(self):
        """All parameter tensors in the frozen serialization order."""
        out = self.sfe.named_tensors("sfe.")
        for i, (naf, mem) in enumerate(self.clff):
            out += naf.named_tensors(f"clff{i}.naf.")
            out += mem.named_tensors(f"clff{i}.mem.")
        out += self.upsampler.named_tensors("up.")
        return out


@dataclass
class StreamState:
    """Everything the streaming model remembers between lines."""

    mem: list                     # per-CLFF ssm.MemoryState
    prev_line: np.ndarray | None = None
    lines_consumed: int = 0

    @property
    def width(self):
        return self.mem[0].width

    def arrays(self):
        """(label, array) of every array the stream holds: each block's, then `prev_line`."""
        arrays = [(f"clff{i}.{label}", a) for i, m in enumerate(self.mem)
                  for label, a in m.arrays()]
        if self.prev_line is not None:
            arrays.append(("prev_line[WxC]", self.prev_line))
        return arrays

    def nbytes(self):
        return sum(a.nbytes for _, a in self.arrays())


def init_stream(params, width):
    return StreamState(mem=[ssm.MemoryState.fresh(mem, width) for _, mem in params.clff])


# NumPy's overflow warnings are silenced: the finite checks below turn a
# value that overflowed (in the cast or a block) into an error naming the line.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _forward(lines, params, state):
    """(L, W, C) lines that follow `state` -> (out Tensor or None, next StreamState).

    `out` stacks the r high-res lines each input line closes with the line
    before it: (L*r, r*W, C), or ((L-1)*r, r*W, C) when `state` has no
    previous line and the first input line only primes; it is None when no
    line closes, as on a fresh stream's priming line. `state` is never
    mutated, so a caller can drop a rejected chunk and go on from it.

    The lines are cast once to the parameters' dtype, a run's one precision:
    a line already in it enters uncopied, and a value it cannot hold becomes
    inf and is rejected as non-finite input. Lines that are not real numbers
    (complex, strings, objects) are rejected before the cast.
    """
    cfg = params.config
    if lines.dtype.kind not in "biuf":
        raise ContractError(f"input lines of dtype {lines.dtype}: expected real numbers")
    x = Tensor(lines.astype(params.sfe.conv_w.dtype, copy=False))
    whole = state is None         # the whole-image forward, from a fresh stream
    state = init_stream(params, x.shape[1]) if whole else state
    first = state.lines_consumed
    row = first_non_finite(x.data)
    if row is not None:
        raise ContractError(f"non-finite input at line {first + row}")

    # each block runs under its `named_tensors()` prefix, the one name it has
    # on disk, in a FLOP tally and in `dpsr profile`
    with T.named("sfe"):
        z = sfe_forward(x, params.sfe)
    new_mem = []
    for i, ((naf, mem), mstate) in enumerate(zip(params.clff, state.mem)):
        with T.named(f"clff{i}.naf"):
            z = naf_forward(z, naf)
        with T.named(f"clff{i}.mem"):
            z, mstate = ssm.entry(mem, whole)(z, mem, mstate)
        # a non-finite latent reaches z through the readout, gate and output projection,
        # so `first_non_finite` checks each block's (L, W, F) output, not the (L, W, N, EF) latent
        row = first_non_finite(z.data)
        if row is not None:
            what = "SSM latent" if cfg.selective else "causal-conv output"
            raise NumericError(f"non-finite {what} in CLFF block {i} at line {first + row}")
        new_mem.append(mstate)

    next_state = StreamState(mem=new_mem, prev_line=x.data[-1].copy(),
                             lines_consumed=first + len(x.data))
    primed = int(state.prev_line is None)      # a fresh stream's first line only primes
    if primed and len(x.data) == 1:            # no line closes
        return None, next_state
    lines = x.data if primed else np.concatenate([state.prev_line[None], x.data])
    z = T.slice_axis(z, 0, 1, len(x.data)) if primed else z    # upsample only the kept lines
    with T.named("up"):
        out = upsample_line(z, params.upsampler)               # (L - primed, r, rW, C)
    # the base carries no gradient, and no upsampler backward reads its own
    # output, so the base is added in place, once the upsampler's scratch is gone
    out.data += bilinear_two_line(lines[:-1], lines[1:], cfg.scale)
    row = first_non_finite(out.data)
    if row is not None:
        raise NumericError(f"non-finite output at line {first + primed + row}")
    return T.reshape(out, (-1,) + out.shape[2:]), next_state


def dpsr_step(lines, params, state):
    """Feed one low-res line (W, C) or a chunk of k >= 1 lines (k, W, C).

    Returns the (r*n, r*W, C) high-res lines the input closes, n = number of
    input lines with a predecessor, or None when there are none, plus the
    next state. The first line of a stream only primes the recurrent state
    (there is no previous line to interpolate from), so it returns None.
    Any chunking of a stream gives the same output as `dpsr_forward_image`.

    A stream runs in its parameters' dtype whatever its lines' real dtype,
    so its state and outputs keep that dtype and one size. A chunk holding a
    NaN or +-inf value, or a value that dtype cannot hold, raises
    ContractError naming the line, and a complex or non-numeric chunk raises
    ContractError naming its dtype; nothing of the chunk is processed and
    `state` is left as it was, so the stream can skip the bad line and go
    on from `state`.
    """
    cfg = params.config
    lines = np.asarray(lines)
    if lines.ndim not in (2, 3) or lines.shape[-1] != cfg.bands or lines.size == 0:
        raise ContractError(f"dpsr_step: expected a (W, {cfg.bands}) line or a "
                            f"(k, W, {cfg.bands}) chunk, got {lines.shape}")
    x = lines.reshape((-1,) + lines.shape[-2:])
    state = init_stream(params, x.shape[1]) if state is None else state
    if x.shape[1] != state.width:
        raise ContractError(
            f"dpsr_step: line width {x.shape[1]} vs stream width {state.width}")
    out, next_state = _forward(x, params, state)
    return (None if out is None else out.data), next_state


def dpsr_forward_image(cube_lr, params):
    """Whole-image forward: (H, W, C) -> Tensor ((H-1)*r, r*W, C).

    The same forward as dpsr_step, over all lines from a fresh state; this
    is the training path, so the result participates in the tape.
    """
    cfg = params.config
    x = np.asarray(cube_lr)
    if x.ndim != 3 or x.shape[2] != cfg.bands:
        raise ContractError(
            f"forward_image: expected (H, W, {cfg.bands}), got {x.shape}")
    if x.shape[0] < 2:
        raise ContractError("forward_image needs at least 2 lines")
    return _forward(x, params, None)[0]


# ---------------------------------------------------------------------------
# parameter container format


def _write_tensor(fh, arr):
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f4", copy=False).tobytes())


def save_params(params, path):
    fields = {name: getattr(params.config, name) for name in HEADER_FIELDS}
    fields["memory_kind"] = MEMORY_KINDS.index(fields["memory_kind"])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(HEADER.pack(*fields.values()))
        for _, t in params.named_tensors():
            _write_tensor(fh, t.data)


def _record_bytes(config):
    """Bytes of `config`'s tensor records, from `ParamSet.spec` (alike CLFF blocks sized once)."""
    sizes = DpsrParams.build(replace(config, n_clff=1), lambda block, *dims: sum(
        4 + 4 * len(shape) + 4 * math.prod(shape) for _, shape, _ in block.spec(*dims)))
    return sizes.sfe + config.n_clff * sum(sizes.clff[0]) + sizes.upsampler


def load_params(path):
    with open(path, "rb") as fh:
        magic = read_exact(fh, len(MAGIC), "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}; not a model container")
        fields = dict(zip(HEADER_FIELDS, HEADER.unpack(
            read_exact(fh, HEADER.size, "config header"))))
        kind_idx = fields["memory_kind"]
        if kind_idx >= len(MEMORY_KINDS):
            raise FormatError(f"unknown memory kind index {kind_idx}")
        fields["memory_kind"] = MEMORY_KINDS[kind_idx]
        try:
            cfg = DpsrConfig(**fields)
        except ContractError as e:
            raise FormatError(f"invalid config header: {e}") from e
        check_size(fh, _record_bytes(cfg), "config header")
        params = DpsrParams.zeros(cfg)
        for name, t in params.named_tensors():
            ndim, = struct.unpack("<I", read_exact(fh, 4, f"{name} rank"))
            if ndim != t.data.ndim:
                raise FormatError(f"{name}: rank {ndim} does not match config shape")
            shape = struct.unpack(f"<{ndim}I", read_exact(fh, 4 * ndim, f"{name} shape"))
            if shape != t.data.shape:
                raise FormatError(
                    f"{name}: stored shape {shape} does not match config shape {t.data.shape}")
            read_into(fh, t.data, f"{name} payload")     # `<f4` on disk
            if sys.byteorder == "big":
                t.data.byteswap(inplace=True)
            if first_non_finite(t.data) is not None:
                raise FormatError(f"{name}: non-finite weight")
        if fh.read(1):
            raise FormatError("trailing bytes after the last tensor")
    return params
