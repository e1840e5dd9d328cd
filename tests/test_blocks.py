"""Block-level oracles: SFE, NAF block, upsampler, bilinear base."""

import numpy as np
import pytest

from dpsr import tensor as T
from dpsr.blocks import (NafParams, SfeParams, UpsamplerParams,
                         bilinear_two_line, composes, naf_forward, pixel_shuffle_line,
                         sfe_forward, upsample_composed, upsample_line,
                         upsample_separate)
from dpsr.errors import ShapeError
from dpsr.model import DpsrConfig
from dpsr.profiler import profile
from dpsr.tensor import Tape, Tensor
from gradcheck import grad_check


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _silu(x):
    return x * _sigmoid(x)


# ---------------------------------------------------------------------------
# SFE


def test_sfe_zero_input_zero_params_gives_zero():
    p = SfeParams.zeros(3, 8, 4)
    out = sfe_forward(Tensor(np.zeros((5, 3))), p)
    assert np.array_equal(out.data, np.zeros((5, 8)))


def test_sfe_zeroed_attention_mlp_scales_by_half():
    rng = np.random.default_rng(0)
    p = SfeParams.init(3, 8, 4, rng)
    for t in (p.att_w1, p.att_b1, p.att_w2, p.att_b2):
        t.data[...] = 0.0
    x = Tensor(rng.uniform(0, 1, (4, 3)).astype(np.float32))
    out = sfe_forward(x, p)
    # recompute the pre-attention features
    h = T.silu(T.layer_norm(T.conv1d(x, p.conv_w, p.conv_b),
                            p.ln_gamma, p.ln_beta))
    assert np.allclose(out.data, 0.5 * h.data, atol=1e-7)


def _sfe_oracle(x, p):
    """Straight-line scalar reimplementation of the SFE forward."""
    width, bands = x.shape
    feats = p.conv_w.data.shape[0]
    conv = np.zeros((width, feats))
    for i in range(width):
        for o in range(feats):
            acc = p.conv_b.data[o]
            for c in range(bands):
                for j in range(3):
                    src = i + j - 1
                    if 0 <= src < width:
                        acc += p.conv_w.data[o, c, j] * x[src, c]
            conv[i, o] = acc
    normed = np.zeros_like(conv)
    for i in range(width):
        mu = conv[i].mean()
        var = ((conv[i] - mu) ** 2).mean()
        normed[i] = ((conv[i] - mu) / np.sqrt(var + 1e-6)
                     * p.ln_gamma.data + p.ln_beta.data)
    h = _silu(normed)

    def mlp(d):
        hid = np.maximum(p.att_w1.data @ d + p.att_b1.data, 0.0)
        return p.att_w2.data @ hid + p.att_b2.data

    att = _sigmoid(mlp(h.mean(axis=0)) + mlp(h.max(axis=0)))
    return h * att


def test_sfe_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    p = SfeParams.init(3, 8, 4, rng, dtype=np.float64)
    x = rng.uniform(0, 1, (4, 3))
    got = sfe_forward(Tensor(x), p).data
    assert np.allclose(got, _sfe_oracle(x, p), atol=1e-9)


def test_sfe_attention_weights_in_unit_interval():
    rng = np.random.default_rng(2)
    p = SfeParams.init(5, 8, 4, rng)
    x = Tensor(rng.uniform(0, 1, (6, 5)).astype(np.float32))
    h = T.silu(T.layer_norm(T.conv1d(x, p.conv_w, p.conv_b),
                            p.ln_gamma, p.ln_beta))
    out = sfe_forward(x, p)
    ratio = out.data / np.where(np.abs(h.data) > 1e-6, h.data, 1.0)
    inside = ratio[np.abs(h.data) > 1e-6]
    assert np.all(inside > 0.0) and np.all(inside < 1.0)


def test_sfe_band_mismatch():
    p = SfeParams.zeros(3, 8, 4)
    with pytest.raises(ShapeError):
        sfe_forward(Tensor(np.zeros((5, 4))), p)


# ---------------------------------------------------------------------------
# NAF block


def test_naf_zeroed_projections_is_identity():
    rng = np.random.default_rng(3)
    p = NafParams.init(8, rng)
    for t in (p.pw2_w, p.pw2_b, p.ffn2_w, p.ffn2_b):
        t.data[...] = 0.0
    z = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
    out = naf_forward(z, p)
    assert np.array_equal(out.data, z.data)


def test_simple_gate_multiplicative_identity():
    from dpsr.blocks import simple_gate
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 3))
    stacked = Tensor(np.concatenate([x, np.ones_like(x)], axis=-1))
    assert np.allclose(simple_gate(stacked).data, x)


def _naf_oracle(z, p):
    def ln(v, gamma, beta):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-6) * gamma + beta

    t = ln(z, p.ln1_gamma.data, p.ln1_beta.data)
    t = t @ p.pw1_w.data.T + p.pw1_b.data
    # depthwise k=3, zero padded
    tp = np.pad(t, ((1, 1), (0, 0)))
    t = np.stack([sum(p.dw_w.data[c, j] * tp[i + j, c] for j in range(3))
                  for i in range(z.shape[0]) for c in range(t.shape[1])]
                 ).reshape(z.shape[0], t.shape[1]) + p.dw_b.data
    half = t.shape[1] // 2
    t = t[:, :half] * t[:, half:]
    sca = t.mean(axis=0) @ p.sca_w.data.T + p.sca_b.data
    t = t * sca
    t = t @ p.pw2_w.data.T + p.pw2_b.data
    y = z + t
    u = ln(y, p.ln2_gamma.data, p.ln2_beta.data)
    u = u @ p.ffn1_w.data.T + p.ffn1_b.data
    u = u[:, :half] * u[:, half:]
    u = u @ p.ffn2_w.data.T + p.ffn2_b.data
    return y + u


def test_naf_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    p = NafParams.init(4, rng, dtype=np.float64)
    z = rng.standard_normal((3, 4))
    got = naf_forward(Tensor(z), p).data
    assert np.allclose(got, _naf_oracle(z, p), atol=1e-9)


# ---------------------------------------------------------------------------
# upsampler


def test_upsampler_one_hot_permutation():
    # F = r*r*f = 4 input features; expansion conv copies channel q at the
    # kernel center; restore conv (f=1 -> C=1) is the identity.
    f, r, w = 1, 2, 2
    p = UpsamplerParams.zeros(4, f, r, 1)
    for q in range(4):
        p.expand_w.data[q, q, 1] = 1.0
    p.restore_w.data[0, 0, 1] = 1.0
    rng = np.random.default_rng(6)
    x = rng.standard_normal((w, 4)).astype(np.float32)
    out = upsample_line(Tensor(x), p).data
    assert out.shape == (r, r * w, 1)
    for j in range(w):
        for a in range(r):
            for b in range(r):
                q = (a * r + b) * f
                assert out[a, j * r + b, 0] == pytest.approx(x[j, q])


def test_upsampler_shape_contract_full_size():
    p = UpsamplerParams.zeros(280, 64, 4, 202)
    x = Tensor(np.zeros((32, 280), dtype=np.float32))
    out = upsample_line(x, p)
    assert out.shape == (4, 128, 202)


def test_pixel_shuffle_enumeration():
    # every element lands where the index formula says, W=2, f=2, r=2
    w, r, f = 2, 2, 2
    x = np.arange(w * r * r * f, dtype=np.float32).reshape(w, r * r * f)
    out = pixel_shuffle_line(Tensor(x), r, f).data
    assert out.shape == (r, r * w, f)
    for j in range(w):
        for a in range(r):
            for b in range(r):
                for c in range(f):
                    q = (a * r + b) * f + c
                    assert out[a, j * r + b, c] == x[j, q]


def test_pixel_shuffle_is_bijection():
    rng = np.random.default_rng(7)
    for w, r, f in [(2, 2, 2), (3, 2, 1), (2, 3, 2)]:
        x = rng.standard_normal((w, r * r * f)).astype(np.float32)
        out = pixel_shuffle_line(Tensor(x), r, f).data
        assert sorted(out.ravel().tolist()) == sorted(x.ravel().tolist())


def _composed_params(f_in, f, r, c, rng):
    p = UpsamplerParams.init(f_in, f, r, c, rng, dtype=np.float64)
    p.expand_b.data[...] = rng.standard_normal(p.expand_b.shape)
    p.restore_b.data[...] = rng.standard_normal(p.restore_b.shape)
    return p


def _forward_and_grads(form, x, p, g):
    """Output of `form` and the gradients of <output, g> w.r.t. x and the 4 tensors."""
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = form(xt, p)
        loss = T.reduce_sum(T.mul(y, Tensor(g)))
    return [y.data] + tape.gradients(loss, [xt] + [t for _, t in p.named_tensors()])


@pytest.mark.parametrize("lines", [(), (1,), (3,)], ids=["one-line", "L1", "L3"])
@pytest.mark.parametrize("width", [1, 2, 5])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_composed_upsampler_equals_separate_form(r, width, lines):
    # the edge columns are where the two border terms act; W = 1 has both in one column
    rng = np.random.default_rng(100 * r + 10 * width + len(lines))
    f_in, f, c = 4, 6, 2
    assert composes(f_in, f, c)
    p = _composed_params(f_in, f, r, c, rng)
    x = rng.standard_normal(lines + (width, f_in))
    g = rng.standard_normal(lines + (r, r * width, c))
    sep = _forward_and_grads(upsample_separate, x, p, g)
    comp = _forward_and_grads(upsample_composed, x, p, g)
    names = ["out", "x", "expand_w", "expand_b", "restore_w", "restore_b"]
    for name, a, b in zip(names, sep, comp):
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a)), name


def test_composed_upsampler_gradients_pass():
    rng = np.random.default_rng(13)
    p = _composed_params(3, 4, 2, 2, rng)
    x = Tensor(rng.standard_normal((2, 3, 3)) * 0.5, requires_grad=True)
    ps = [x] + [t for _, t in p.named_tensors()]
    err = grad_check(lambda: _sq_loss(upsample_composed(x, p)), ps)
    assert err < 1e-4


def test_upsampler_form_follows_the_channel_rule():
    # the benchmark's training config composes; the full-size model does not
    train, full = DpsrConfig(bands=16, features=32), DpsrConfig(bands=66)
    assert composes(train.features, train.up_features, train.bands)
    assert not composes(full.features, full.up_features, full.bands)
    # composed is one tape node; separate is conv, shuffle (3 nodes), conv
    for (f_in, f, c), nodes in [((32, 64, 16), 1), ((280, 64, 66), 5)]:
        p = UpsamplerParams.zeros(f_in, f, 2, c)
        with Tape() as tape:
            upsample_line(Tensor(np.zeros((2, f_in), dtype=np.float32)), p)
        assert len(tape.nodes) == nodes


def test_profiler_counts_the_form_that_runs():
    full = profile(DpsrConfig(bands=66), 32)
    assert full.flops_per_line == 177_499_322
    assert [i.name for i in full.items if i.name.startswith("up.")] == ["up.expand",
                                                                         "up.restore"]
    train = profile(DpsrConfig(bands=16, features=32), 32)
    up = [i for i in train.items if i.name.startswith("up.")]
    # 5-tap conv 32 -> 256 over 32 columns, plus two 64-output border terms
    assert [(i.name, i.flops) for i in up] == [("up.composed", 32 * 256 * (2 * 160 + 1)
                                                + 2 * 64 * (2 * 32 + 1))]
    assert up[0].params == 1024 * 32 * 3 + 1024 + 16 * 64 * 3 + 16
    assert train.flops_per_line == 4_640_676


# ---------------------------------------------------------------------------
# bilinear base


def test_bilinear_constant_field():
    prev = np.full((3, 2), 0.7, dtype=np.float32)
    out = bilinear_two_line(prev, prev.copy(), 4)
    assert np.allclose(out, 0.7)


def test_bilinear_midpoint():
    out = bilinear_two_line(np.array([[0.0]]), np.array([[2.0]]), 2)
    assert np.allclose(out[:, 0, 0], [0.0, 1.0])


def test_bilinear_edge_clamp():
    prev = np.array([[0.0], [2.0]])
    out = bilinear_two_line(prev, prev.copy(), 2)
    for k in range(2):
        assert np.allclose(out[k, :, 0], [0.0, 1.0, 2.0, 2.0])


def test_bilinear_reproduces_linear_fields():
    # along-track linear, across-track linear -> exact at interior positions
    r, w, c = 3, 5, 2
    cols = np.arange(w)[:, None] * np.array([1.0, -0.5])
    prev = 0.2 + cols
    curr = prev + 1.0
    out = bilinear_two_line(prev, curr, r)
    for k in range(r):
        for i in range(r * (w - 1) + 1):   # interior columns only (no clamp)
            expect = 0.2 + (i / r) * np.array([1.0, -0.5]) + k / r
            assert np.allclose(out[k, i], expect, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilinear_on_a_stack_equals_per_line_calls(dtype):
    rng = np.random.default_rng(6)
    prev, curr = rng.standard_normal((2, 5, 7, 3)).astype(dtype)
    out = bilinear_two_line(prev, curr, 4)
    assert out.shape == (5, 4, 28, 3) and out.dtype == dtype
    for y in range(5):
        assert np.array_equal(out[y], bilinear_two_line(prev[y], curr[y], 4))


def _bilinear_gather(prev, curr, r):
    """The bilinear base by gathering columns floor(i/r) and floor(i/r)+1
    at fraction i/r - floor(i/r), computed in the input's dtype."""
    w = prev.shape[-2]
    pos = np.arange(w * r, dtype=prev.dtype) / r
    j0 = np.floor(pos).astype(np.int64)
    frac = (pos - j0).astype(prev.dtype)[:, None]
    j1 = np.minimum(j0 + 1, w - 1)
    out = np.empty(prev.shape[:-2] + (r, w * r, prev.shape[-1]), dtype=prev.dtype)
    for k in range(r):
        a = np.asarray(k / r, dtype=prev.dtype)
        line = (1 - a) * prev + a * curr
        out[..., k, :, :] = (1 - frac) * line[..., j0, :] + frac * line[..., j1, :]
    return out


@pytest.mark.parametrize("shape", [(31, 32, 16), (250, 66)], ids=["train", "stream"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_bilinear_equals_the_column_gather(shape, dtype, r):
    prev, curr = np.random.default_rng(r).random((2,) + shape).astype(dtype)
    got, want = bilinear_two_line(prev, curr, r), _bilinear_gather(prev, curr, r)
    assert got.shape == want.shape and got.dtype == dtype
    if r in (2, 4):                     # i/r - floor(i/r) == b/r exactly
        assert np.array_equal(got, want)
    else:
        # i/r rounds in the gather: at float32 by up to ulp(W) (about 1.5e-5
        # at W = 250), which the sub-pixel form does not do
        tol = 1e-12 if dtype == np.float64 else 2 * np.spacing(np.float32(shape[-2]))
        assert np.max(np.abs(got - want)) <= tol


def test_bilinear_shape_mismatch():
    with pytest.raises(ShapeError):
        bilinear_two_line(np.zeros((3, 2)), np.zeros((4, 2)), 2)


# ---------------------------------------------------------------------------
# gradients


def _sq_loss(out):
    # small loss magnitude keeps central-difference noise well under the
    # 1e-8 relative-error floor
    return T.mul(T.reduce_mean(T.mul(out, out)), 0.1)


def test_block_gradients_pass():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 0.9, (3, 3))

    sfe = SfeParams.init(3, 8, 4, np.random.default_rng(10), dtype=np.float64)
    ps = [t for _, t in sfe.named_tensors()]
    err = grad_check(lambda: _sq_loss(sfe_forward(Tensor(x), sfe)), ps)
    assert err < 1e-4

    naf = NafParams.init(8, np.random.default_rng(11), dtype=np.float64)
    z = rng.standard_normal((3, 8)) * 0.5
    pn = [t for _, t in naf.named_tensors()]
    err = grad_check(lambda: _sq_loss(naf_forward(Tensor(z), naf)), pn)
    assert err < 1e-4

    up = UpsamplerParams.init(8, 2, 2, 3, np.random.default_rng(12),
                              dtype=np.float64)
    pu = [t for _, t in up.named_tensors()]
    err = grad_check(lambda: _sq_loss(upsample_line(Tensor(z), up)), pu)
    assert err < 1e-4
