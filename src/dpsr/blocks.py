"""Per-line building blocks: SFE, NAF block, upsampler, bilinear base.

Everything here is stateless: parameters in, features out. All forwards
accept either one line (W, channels) or a whole stack of lines
(H, W, channels); the line axis is always -2 and channels are last.

The upsampler has two exact forms of one function. The separate form runs
the declared steps: a 3-tap expand conv F -> f*r^2, the pixel shuffle and a
3-tap restore conv f -> C. The composed form runs them as one 5-tap conv
F -> r^2*C, less two border terms where the restore conv's zero padding
hides an expand output. `upsample_line` takes the composed form when
5*C*F < 3*f*(F + C), the rule on FLOPs per low-res pixel in `composes`;
the full-size model (F=280, f=64, C=66) streams through the separate form
and a narrow training config (F=32, f=64, C=16) takes the composed one.
"""

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


def uniform(fan_in):
    """Init rule: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return lambda rng, shape: rng.uniform(-bound, bound, size=shape)


def zero(rng, shape):
    """Init rule: all zeros (draws nothing from the RNG)."""
    return np.zeros(shape)


def one(rng, shape):
    """Init rule: all ones (draws nothing from the RNG)."""
    return np.ones(shape)


class ParamSet:
    """Parameter tensors of one block, declared once by `spec`.

    `spec(*dims)` lists (name, shape, init rule) in the frozen DPSRW001
    serialization order. Seeded construction, zero construction and
    `named_tensors` are all derived from it; seeded construction draws from
    the RNG in declaration order, so the order fixes the seeded weights.
    Each tensor is an attribute named as declared.
    """

    def __init__(self, dims, make):
        self.dims = tuple(dims)
        for name, shape, rule in self.spec(*dims):
            setattr(self, name, make(shape, rule))

    @classmethod
    def init(cls, *dims_then_rng, dtype=np.float32):
        """Seeded parameters: `init(*dims, rng)`."""
        *dims, rng = dims_then_rng
        return cls(dims, lambda shape, rule: Tensor(rule(rng, shape).astype(dtype),
                                                    requires_grad=True))

    @classmethod
    def zeros(cls, *dims, dtype=np.float32):
        return cls(dims, lambda shape, rule: Tensor(np.zeros(shape, dtype=dtype),
                                                    requires_grad=True))

    def named_tensors(self, prefix=""):
        return [(prefix + n, getattr(self, n)) for n, _, _ in self.spec(*self.dims)]


def attention_hidden(features, reduction):
    """Width of the channel-attention bottleneck (never below 1)."""
    return max(1, features // reduction)


class SfeParams(ParamSet):
    """Shallow feature extraction: conv3 C->F, layer norm, SiLU, channel attention.

    Dims: (bands, features, reduction).
    """

    @staticmethod
    def spec(bands, features, reduction):
        f, hidden = features, attention_hidden(features, reduction)
        return [
            ("conv_w", (f, bands, 3), uniform(bands * 3)),
            ("conv_b", (f,), zero),
            ("ln_gamma", (f,), one),
            ("ln_beta", (f,), zero),
            ("att_w1", (hidden, f), uniform(f)),   # shared MLP, avg and max descriptors
            ("att_b1", (hidden,), zero),
            ("att_w2", (f, hidden), uniform(hidden)),
            ("att_b2", (f,), zero),
        ]


def _attention_mlp(pooled, p):
    return T.linear(T.relu(T.linear(pooled, p.att_w1, p.att_b1)), p.att_w2, p.att_b2)


def sfe_forward(x, p):
    """(.., W, C) spectral line -> (.., W, F) shallow features."""
    if x.shape[-1] != p.conv_w.shape[1]:
        raise ShapeError(
            f"sfe_forward: line has {x.shape[-1]} bands, params expect {p.conv_w.shape[1]}")
    h = T.conv1d(x, p.conv_w, p.conv_b)
    h = T.layer_norm(h, p.ln_gamma, p.ln_beta)
    h = T.silu(h)
    avg = T.reduce_mean(h, axis=-2, keepdims=True)
    mx = T.reduce_max(h, axis=-2, keepdims=True)
    att = T.sigmoid(T.add(_attention_mlp(avg, p), _attention_mlp(mx, p)))
    return T.mul(h, att)


class NafParams(ParamSet):
    """Two residual sub-blocks: gated separable-conv mixer, then a gated MLP.

    Dims: (features,).
    """

    @staticmethod
    def spec(features):
        f = features
        return [
            ("ln1_gamma", (f,), one), ("ln1_beta", (f,), zero),
            ("pw1_w", (2 * f, f), uniform(f)), ("pw1_b", (2 * f,), zero),
            ("dw_w", (2 * f, 3), uniform(3)), ("dw_b", (2 * f,), zero),  # across-track
            ("sca_w", (f, f), uniform(f)), ("sca_b", (f,), zero),  # on the pooled descriptor
            ("pw2_w", (f, f), uniform(f)), ("pw2_b", (f,), zero),
            ("ln2_gamma", (f,), one), ("ln2_beta", (f,), zero),
            ("ffn1_w", (2 * f, f), uniform(f)), ("ffn1_b", (2 * f,), zero),
            ("ffn2_w", (f, f), uniform(f)), ("ffn2_b", (f,), zero),
        ]


def simple_gate(x):
    """Halve the channels and multiply the halves (no parameters)."""
    a, b = T.split_half(x)
    return T.mul(a, b)


def naf_forward(z, p):
    """(.., W, F) -> (.., W, F), two residual sub-blocks."""
    t = T.layer_norm(z, p.ln1_gamma, p.ln1_beta)
    t = T.linear(t, p.pw1_w, p.pw1_b)
    t = T.depthwise_conv1d(t, p.dw_w, p.dw_b)
    t = simple_gate(t)
    pooled = T.reduce_mean(t, axis=-2, keepdims=True)
    t = T.mul(t, T.linear(pooled, p.sca_w, p.sca_b))
    t = T.linear(t, p.pw2_w, p.pw2_b)
    y = T.add(z, t)

    u = T.layer_norm(y, p.ln2_gamma, p.ln2_beta)
    u = T.linear(u, p.ffn1_w, p.ffn1_b)
    u = simple_gate(u)
    u = T.linear(u, p.ffn2_w, p.ffn2_b)
    return T.add(y, u)


class UpsamplerParams(ParamSet):
    """Channel expansion to f*r^2, 1D pixel shuffle, per-line restore conv.

    Dims: (features, up_features, scale, bands).
    """

    @staticmethod
    def spec(features, up_features, scale, bands):
        fr2 = up_features * scale * scale
        return [
            ("expand_w", (fr2, features, 3), uniform(features * 3)),
            ("expand_b", (fr2,), zero),
            ("restore_w", (bands, up_features, 3), uniform(up_features * 3)),
            ("restore_b", (bands,), zero),
        ]

    @property
    def up_features(self):
        return self.dims[1]

    @property
    def scale(self):
        return self.dims[2]


def composes(features, up_features, bands):
    """True when the upsampler runs as one composed 5-tap conv.

    Per low-res pixel the composed conv F -> r^2*C costs 10*r^2*C*F FLOPs and
    the separate pair F -> r^2*f -> C costs 6*r^2*f*(F + C); r and W cancel,
    so the choice depends on the channel widths alone.
    """
    return 5 * bands * features < 3 * up_features * (features + bands)


def pixel_shuffle_line(x, scale, up_features):
    """Rearrange (.., W, f*r^2) -> (.., r, r*W, f).

    Channel q = (a*r + b)*f + c at low-res column j lands on output line a,
    output column j*r + b, feature c. This ordering is frozen; the model
    container format depends on it.
    """
    r, f = scale, up_features
    w = x.shape[-2]
    lead = x.shape[:-2]
    n = len(lead)
    t = T.reshape(x, lead + (w, r, r, f))            # (.., j, a, b, c)
    perm = tuple(range(n)) + (n + 1, n, n + 2, n + 3)
    t = T.transpose(t, perm)                         # (.., a, j, b, c)
    return T.reshape(t, lead + (r, w * r, f))


def upsample_separate(x, p):
    """The upsampler as its three declared steps: expand, shuffle, restore."""
    t = T.conv1d(x, p.expand_w, p.expand_b)
    t = pixel_shuffle_line(t, p.scale, p.up_features)
    return T.conv1d(t, p.restore_w, p.restore_b)


# Restore tap t reads high-res column j*r + b + t - 1, which is expand
# sub-pixel b' = (b + t - 1) mod r of low-res column j + d, d the floor of
# (b + t - 1) / r. Per tap, (t, output sub-pixels b, their b', composite
# taps d + s + 1 for expand taps s = 0, 1, 2), covering every (t, b') once.
_RESTORE_TAPS = [
    (1, np.s_[:], np.s_[:], np.s_[1:4]),
    (0, np.s_[1:], np.s_[:-1], np.s_[1:4]),
    (0, np.s_[:1], np.s_[-1:], np.s_[0:3]),      # d = -1
    (2, np.s_[:-1], np.s_[1:], np.s_[1:4]),
    (2, np.s_[-1:], np.s_[:1], np.s_[2:5]),      # d = +1
]
# The two reads of the composite that fall on the restore conv's padding, as
# (low-res column j, sub-pixel b, restore tap t, sub-pixel b', expand tap s):
# the only expand tap of column -1 or W that reaches an input column.
_BORDERS = [(0, 0, 0, -1, 2), (-1, -1, 2, 0, 0)]


def upsample_composed(x, p):
    """The upsampler as one 5-tap conv F -> r^2*C, as one tape op.

    Nothing nonlinear sits between the expand and restore convs, so they
    compose: with Z_t = restore tap t times the expand weight over the f
    reduced features, the composite weight of output (a, b, o) at tap m
    sums Z_t's expand taps s of sub-pixel b' = (b + t - 1) mod r with
    m = d + s + 1 (see `_RESTORE_TAPS`), and its bias sums restore_b and
    restore_w times expand_b the same way. One im2col GEMM through
    `T.conv1d_gemm`, (L*W, 5F) @ (5F, r^2*C), then gives every output.

    The restore conv zero-pads the high-res line, so it never reads an
    expand output at low-res column -1 or W; the composite weight does. Two
    border terms take those reads back out: at j = 0, b = 0 (tap t = 0,
    d = -1) and at j = W-1, b = r-1 (tap t = 2, d = +1). Each is a small
    GEMM of the edge input column. The backward runs the two big GEMMs the
    other way round and contracts the composite's gradient back to the four
    declared tensors.
    """
    fin, f, r, c = p.dims
    xd = x.data
    w = xd.shape[-2]
    x3 = xd.reshape(-1, w, fin)
    n = len(x3)
    nz = r * r * 3 * fin
    # expand weight and bias as (f, r^2*3F + r^2): row c, columns (a, b', i, s) then (a, b')
    wex = np.concatenate([p.expand_w.data.reshape(r * r, f, 3 * fin).transpose(1, 0, 2)
                          .reshape(f, nz), p.expand_b.data.reshape(r * r, f).T], axis=1)
    wr3 = p.restore_w.data.transpose(2, 0, 1)                       # (t, o, c)
    zx = wr3 @ wex
    z = zx[..., :nz].reshape(3, c, r, r, fin, 3).transpose(0, 2, 3, 1, 4, 5)  # (t, a, b', o, i, s)
    zb = zx[..., nz:].reshape(3, c, r, r).transpose(0, 2, 3, 1)             # (t, a, b', o)
    wc = np.zeros((r, r, c, fin, 5), dtype=zx.dtype)                    # (a, b, o, i, m)
    bc = np.broadcast_to(p.restore_b.data, (r, r, c)).copy()
    for t, b, bs, m in _RESTORE_TAPS:
        wc[:, b, ..., m] += z[t, :, bs]
        bc[:, b] += zb[t, :, bs]
    wc = wc.reshape(r * r * c, fin, 5)
    borders = [(j, b, t, bs, s, z[t, :, bs, ..., s].reshape(r * c, fin))
               for j, b, t, bs, s in _BORDERS]

    y, conv_back = T.conv1d_gemm(x3, wc)
    y += bc.reshape(-1)
    y = y.reshape(n, w, r, r, c)
    for j, b, t, bs, _, ew in borders:
        y[:, j, :, b] -= (x3[:, j] @ ew.T).reshape(n, r, c) + zb[t, :, bs]
    out = Tensor(y.transpose(0, 2, 1, 3, 4).reshape(xd.shape[:-2] + (r, r * w, c)))

    def fn(g):
        g = g.reshape(n, r, w * r, c)
        g2 = g.reshape(n, r, w, r, c).transpose(0, 2, 1, 3, 4).reshape(n * w, r * r * c)
        gx, gwc = conv_back(g2)
        gwc = gwc.reshape(r, r, c, fin, 5)
        gbc = g2.sum(axis=0).reshape(r, r, c)
        gz = np.empty(z.shape, dtype=gwc.dtype)
        gzb = np.empty(zb.shape, dtype=gwc.dtype)
        for t, b, bs, m in _RESTORE_TAPS:
            gz[t, :, bs] = gwc[:, b, ..., m]
            gzb[t, :, bs] = gbc[:, b]
        for j, _, t, bs, s, ew in borders:
            ge = g[:, :, j].reshape(n, r * c)       # high-res column j*r + b is 0 or r*W-1
            gx[:, j] -= ge @ ew
            gz[t, :, bs, ..., s] -= (ge.T @ x3[:, j]).reshape(r, c, fin)
            gzb[t, :, bs] -= ge.sum(axis=0).reshape(r, c)
        gzx = np.concatenate([gz.transpose(0, 3, 1, 2, 4, 5).reshape(3, c, nz),
                              gzb.transpose(0, 3, 1, 2).reshape(3, c, r * r)], axis=2)
        gwr = (gzx @ wex.T).transpose(1, 2, 0)
        gwex = wr3.reshape(3 * c, f).T @ gzx.reshape(3 * c, -1)
        gwe = gwex[:, :nz].reshape(f, r * r, fin * 3).transpose(1, 0, 2).reshape(r * r * f, fin, 3)
        gbe = gwex[:, nz:].T.reshape(-1)
        return gx.reshape(xd.shape), gwe, gbe, np.ascontiguousarray(gwr), gbc.sum(axis=(0, 1))

    return T.record(out, (x, p.expand_w, p.expand_b, p.restore_w, p.restore_b), fn)


def upsample_line(x, p):
    """(.., W, F) line features -> (.., r, r*W, C) super-resolved residual.

    Runs `upsample_composed`, one 5-tap conv less the border terms at the
    line's first and last high-res column, when `composes` says it does
    fewer FLOPs than `upsample_separate` (5*C*F < 3*f*(F + C)); otherwise
    the expand conv, pixel shuffle and restore conv. The rule reads channel
    widths only, so a config takes the same form streaming and training.
    """
    features, up_features, _, bands = p.dims
    if composes(features, up_features, bands):
        return upsample_composed(x, p)
    return upsample_separate(x, p)


def bilinear_two_line(prev, curr, scale):
    """Bilinear base between low-res lines and the lines that follow them.

    (.., W, C) stacks of line pairs -> (.., r, r*W, C). Output line k of r
    sits at fraction k/r of the way from `prev` to `curr`; across-track
    position j*r + b sits at fraction b/r of the way from low-res column j
    to column j+1, clamping at the right edge. Each blended line and its
    left-shifted neighbour are combined once per sub-pixel b into an
    (.., r, W, r, C) array, which reshapes to (.., r, r*W, C) for free.
    Returns an ndarray; this path carries no gradient.
    """
    prev = np.asarray(prev)
    curr = np.asarray(curr)
    if prev.shape != curr.shape:
        raise ShapeError(f"bilinear: line shapes differ {prev.shape} vs {curr.shape}")
    r = int(scale)
    w, c = prev.shape[-2:]
    out = np.empty(prev.shape[:-2] + (r, w, r, c), dtype=prev.dtype)
    for k in range(r):
        a = np.asarray(k / r, dtype=prev.dtype)
        line = (1 - a) * prev + a * curr
        nxt = np.concatenate([line[..., 1:, :], line[..., -1:, :]], axis=-2)
        for b in range(r):
            f = np.asarray(b / r, dtype=prev.dtype)
            out[..., k, :, b, :] = (1 - f) * line + f * nxt
    return out.reshape(prev.shape[:-2] + (r, w * r, c))
