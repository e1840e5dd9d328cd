"""Tensor primitives: forward oracles and gradient checks."""

import zlib

import numpy as np
import pytest

from dpsr import tensor as T
from dpsr.errors import ContractError, ShapeError
from dpsr.tensor import Tape, Tensor
from gradcheck import grad_check


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_identity_kernel():
    x = Tensor([[1.0], [2.0], [3.0]])
    w = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
    out = T.conv1d(x, w)
    assert np.array_equal(out.data[:, 0], [1.0, 2.0, 3.0])


def test_conv1d_box_kernel_hand_values():
    # zero padding: [0,1,2,3,0] convolved with [1,1,1]
    x = Tensor([[1.0], [2.0], [3.0]])
    w = Tensor(np.array([[[1.0, 1.0, 1.0]]]))
    out = T.conv1d(x, w)
    assert np.allclose(out.data[:, 0], [3.0, 6.0, 5.0])


def test_conv1d_zero_input_gives_bias():
    x = Tensor(np.zeros((5, 2)))
    w = Tensor(np.random.default_rng(0).standard_normal((3, 2, 3)))
    b = Tensor([1.5, -2.0, 0.25])
    out = T.conv1d(x, w, b)
    assert np.allclose(out.data, np.broadcast_to(b.data, (5, 3)))


def test_conv1d_shape_error():
    x = Tensor(np.zeros((4, 3)))
    w = Tensor(np.zeros((2, 5, 3)))
    with pytest.raises(ShapeError):
        T.conv1d(x, w)


def test_conv1d_even_kernel_rejected():
    with pytest.raises(ContractError):
        T.conv1d(Tensor(np.zeros((4, 1))), Tensor(np.zeros((1, 1, 4))))


def _dense_conv1d_oracle(x, w, b=None):
    """Direct triple loop over the definition (zero same-padding)."""
    width, cin = x.shape
    cout, _, k = w.shape
    p = k // 2
    out = np.zeros((width, cout))
    for i in range(width):
        for o in range(cout):
            acc = 0.0
            for c in range(cin):
                for j in range(k):
                    src = i + j - p
                    if 0 <= src < width:
                        acc += w[o, c, j] * x[src, c]
            out[i, o] = acc + (b[o] if b is not None else 0.0)
    return out


def test_conv1d_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal((6, 3))
        w = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal(4)
        got = T.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(got, _dense_conv1d_oracle(x, w, b), atol=1e-5)


def _oracle_lines(x, w, b):
    """The dense oracle on every line of a (..., W, Cin) input."""
    out = np.empty(x.shape[:-1] + (w.shape[0],))
    for idx in np.ndindex(x.shape[:-2]):
        out[idx] = _dense_conv1d_oracle(x[idx], w, b)
    return out


def _diagonal(dw):
    """(C, K) depthwise kernels as the (C, C, K) dense weight they stand for."""
    c = dw.shape[0]
    full = np.zeros((c, c, dw.shape[1]))
    full[np.arange(c), np.arange(c)] = dw
    return full


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("lead,width", [((), 5), ((2, 3), 4), ((2, 3), 1)])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_line_convs_on_batches(k, lead, width, transposed):
    # leading batch dims as in training, widths below K (taps wholly in the
    # padding) and a non-contiguous input reached through a transpose; with
    # 3 input channels, Cout 2, 3 and 5 give fewer, as many and more outputs
    rng = np.random.default_rng(200 + 10 * k + width)
    n = len(lead)
    xb = t64(rng.standard_normal(lead + ((3, width) if transposed else (width, 3))))
    weights = [(t64(rng.standard_normal((cout, 3, k))), t64(rng.standard_normal(cout)))
               for cout in (2, 3, 5)]
    dw, db = t64(rng.standard_normal((3, k))), t64(rng.standard_normal(3))

    def x():
        return T.transpose(xb, tuple(range(n)) + (n + 1, n)) if transposed else xb

    xv = x().data
    for w, b in weights:
        assert np.allclose(T.conv1d(x(), w, b).data, _oracle_lines(xv, w.data, b.data),
                           rtol=0, atol=1e-12)
        err = grad_check(lambda: T.reduce_mean(T.mul(T.conv1d(x(), w, b),
                                                     T.conv1d(x(), w, b))),
                         [xb, w, b])
        assert err < 1e-6
    assert np.allclose(T.depthwise_conv1d(x(), dw, db).data,
                       _oracle_lines(xv, _diagonal(dw.data), db.data), rtol=0, atol=1e-12)
    err = grad_check(lambda: T.reduce_mean(T.mul(T.depthwise_conv1d(x(), dw, db),
                                                 T.depthwise_conv1d(x(), dw, db))),
                     [xb, dw, db])
    assert err < 1e-6


def test_conv1d_linearity():
    rng = np.random.default_rng(8)
    w = Tensor(rng.standard_normal((2, 3, 3)))
    x1, x2 = rng.standard_normal((2, 5, 3))
    a, b = 0.7, -1.3
    lhs = T.conv1d(Tensor(a * x1 + b * x2), w).data
    rhs = a * T.conv1d(Tensor(x1), w).data + b * T.conv1d(Tensor(x2), w).data
    assert np.allclose(lhs, rhs, atol=1e-6)


# ---------------------------------------------------------------------------
# depthwise / causal conv


def test_depthwise_identity():
    x = Tensor(np.random.default_rng(1).standard_normal((4, 3)))
    w = np.zeros((3, 3))
    w[:, 1] = 1.0
    out = T.depthwise_conv1d(x, Tensor(w))
    assert np.allclose(out.data, x.data)


def test_depthwise_channel_separation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    w = Tensor(rng.standard_normal((4, 3)))
    base = T.depthwise_conv1d(Tensor(x), w).data
    x2 = x.copy()
    x2[:, 0] += rng.standard_normal(6)
    pert = T.depthwise_conv1d(Tensor(x2), w).data
    assert np.array_equal(base[:, 1:], pert[:, 1:])
    assert not np.array_equal(base[:, 0], pert[:, 0])


def test_depthwise_causal_kernel_vs_conv1d():
    x = np.array([[1.0], [2.0], [4.0]])
    w = np.array([[1.0, 1.0, 0.0]])
    got = T.depthwise_conv1d(Tensor(x), Tensor(w)).data
    ref = T.conv1d(Tensor(x), Tensor(w[None])).data
    assert np.array_equal(got, ref)
    assert np.allclose(got[:, 0], [1.0, 3.0, 6.0])


def test_depthwise_shape_error():
    with pytest.raises(ShapeError):
        T.depthwise_conv1d(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 3))))


def test_depthwise_even_kernel_rejected():
    with pytest.raises(ContractError, match="^depthwise_conv1d kernel size must be odd, got 2$"):
        T.depthwise_conv1d(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2))))


def test_causal_conv_channel_mismatch_rejected():
    with pytest.raises(ShapeError, match="^causal conv: 3 channels vs 2 kernels$"):
        T.causal_depthwise_conv(Tensor(np.zeros((4, 2, 3))), np.zeros((1, 2, 3)),
                                Tensor(np.zeros((2, 2))))


def test_causal_conv_matches_explicit_sum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 2, 3))
    w = rng.standard_normal((3, 4))
    got = T.causal_depthwise_conv(Tensor(x), np.zeros((3, 2, 3)), Tensor(w))[0].data
    for y in range(5):
        for c in range(3):
            acc = np.zeros(2)
            for j in range(4):
                src = y - 3 + j
                if src >= 0:
                    acc += w[c, j] * x[src, :, c]
            assert np.allclose(got[y, :, c], acc, atol=1e-6)


def test_causal_conv_is_causal():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 2, 3))
    w = Tensor(rng.standard_normal((3, 2)))
    base = T.causal_depthwise_conv(Tensor(x), np.zeros((1, 2, 3)), w)[0].data
    x2 = x.copy()
    x2[4:] += 100.0
    pert = T.causal_depthwise_conv(Tensor(x2), np.zeros((1, 2, 3)), w)[0].data
    assert np.array_equal(base[:4], pert[:4])


def test_causal_conv_history_continues_the_sequence():
    # conv of x[m:] after the history that conv of x[:m] returns == the tail of conv of x
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 2, 3))
    w = t64(rng.standard_normal((3, 3)))
    b = t64(rng.standard_normal(3))
    padded = np.concatenate([np.zeros((2, 2, 3)), x])
    whole, tail = T.causal_depthwise_conv(Tensor(x), padded[:2], w, b)
    assert np.array_equal(tail, x[-2:])
    for m in (1, 2, 5):
        _, history = T.causal_depthwise_conv(Tensor(x[:m]), padded[:2], w, b)
        assert np.array_equal(history, padded[m:m + 2])
        part = T.causal_depthwise_conv(Tensor(x[m:]), history, w, b)[0].data
        assert np.allclose(part, whole.data[m:], rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        T.causal_depthwise_conv(Tensor(x), np.zeros((1, 2, 3)), w)
    seq = t64(x[3:6])
    err = grad_check(lambda: T.reduce_mean(T.mul(T.causal_depthwise_conv(seq, x[1:3], w, b)[0],
                                                 T.causal_depthwise_conv(seq, x[1:3], w, b)[0])),
                     [seq, w, b])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# layer norm / activations / elementwise


def test_layer_norm_constant_input_zeros():
    x = Tensor(np.full((3, 4), 2.5))
    out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0, atol=1e-3)


def test_layer_norm_two_point_oracle():
    x = Tensor(np.array([[-1.0, 1.0]]))
    out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((6, 8)).astype(np.float64))
    out = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-5)


def test_layer_norm_gamma_annihilation():
    x = Tensor(np.random.default_rng(6).standard_normal((4, 3)))
    out = T.layer_norm(x, Tensor(np.zeros(3)), Tensor(np.full(3, 0.75)))
    assert np.allclose(out.data, 0.75)


@pytest.mark.parametrize("gamma, beta", [(3, 4), (4, 3)], ids=["gamma", "beta"])
def test_layer_norm_rejects_gamma_or_beta_off_the_feature_axis(gamma, beta):
    with pytest.raises(ShapeError, match="^layer_norm: gamma/beta must match the feature axis$"):
        T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(gamma)), Tensor(np.zeros(beta)))


def test_silu_values():
    assert T.silu(Tensor([0.0])).data[0] == 0.0
    assert np.isclose(T.silu(Tensor([1.0])).data[0], 0.731059, atol=1e-5)
    xs = np.linspace(-4, 4, 100)
    got = T.silu(Tensor(xs)).data
    ref = xs / (1.0 + np.exp(-xs))
    assert np.allclose(got, ref, atol=1e-6)


def test_softplus_at_zero():
    assert np.isclose(T.softplus(Tensor([0.0])).data[0], np.log(2.0), atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_matches_logaddexp_without_overflow(dtype):
    xs = np.linspace(-100, 100, 20001).astype(dtype)
    x = Tensor(xs, requires_grad=True)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with Tape() as tape:
            out = T.softplus(x)
            loss = T.reduce_sum(out)
        grad, = tape.gradients(loss, [x])
    # relative to a few ulps, absolute below the smallest normal number,
    # where float32 values near x = -100 are subnormal
    eps, tiny = np.finfo(dtype).eps, np.finfo(dtype).tiny
    assert out.dtype == grad.dtype == dtype
    assert np.allclose(out.data, np.logaddexp(dtype(0), xs), rtol=4 * eps, atol=tiny)
    sigmoid = 1.0 / (1.0 + np.exp(-xs.astype(np.float64)))
    assert np.allclose(grad, sigmoid, rtol=4 * eps, atol=tiny)


def test_linear_identity_and_hand_sum():
    x = Tensor([[1.0, 2.0]])
    assert np.allclose(T.linear(x, Tensor(np.eye(2))).data, x.data)
    out = T.linear(x, Tensor([[1.0, 1.0]]), Tensor([3.0]))
    assert np.allclose(out.data, [[6.0]])


def test_linear_dot_product_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(3)
    w = rng.standard_normal((4, 3))
    got = T.linear(Tensor(x), Tensor(w)).data
    ref = np.array([sum(w[o, i] * x[i] for i in range(3)) for o in range(4)])
    assert np.allclose(got, ref, atol=1e-6)


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_gate():
    assert np.array_equal(T.gate(Tensor([[1.0, 2.0, 3.0, 4.0]])).data, [[3.0, 8.0]])
    with pytest.raises(ShapeError, match="even channel count, got 3"):
        T.gate(Tensor(np.zeros((2, 3))))
    x = t64(np.random.default_rng(12).standard_normal((3, 2, 6)))
    w = np.random.default_rng(13).standard_normal((3, 2, 3))
    assert grad_check(lambda: T.reduce_sum(T.mul(T.gate(x), w)), [x]) < 1e-6


def test_mean_pool_constant():
    x = Tensor(np.full((5, 3), 1.25))
    out = T.reduce_mean(x, axis=-2, keepdims=True)
    assert np.allclose(out.data, 1.25)


def test_determinism_bitwise():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 5)).astype(np.float32)
    w = rng.standard_normal((4, 5, 3)).astype(np.float32)
    a = T.conv1d(Tensor(x), Tensor(w)).data
    b = T.conv1d(Tensor(x), Tensor(w)).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# FLOP counting


def test_counting_tallies_the_shapes_each_op_ran():
    x = Tensor(np.ones((2, 5, 3)))
    with T.counting() as tally:
        T.linear(x, Tensor(np.ones((4, 3))), Tensor(np.ones(4)))
        T.conv1d(x, Tensor(np.ones((4, 3, 3))))
        # a 3-tap depthwise conv skips the one padded column of each edge tap
        T.depthwise_conv1d(x, Tensor(np.ones((3, 3))))
        T.causal_depthwise_conv(x, np.zeros((1, 5, 3)), Tensor(np.ones((3, 2))))
        T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        T.silu(T.add(x, T.mul(x, 2.0)))
        T.reduce_mean(x, axis=-2)
    assert tally == {"linear": 2 * 10 * 4 * 3, "bias": 10 * 4, "conv1d": 2 * 10 * 4 * 3 * 3,
                     "depthwise_conv": 2 * 2 * 3 * (5 + 4 + 4) + 2 * 2 * 5 * 3 * 2,
                     "layer_norm": 8 * 30, "mul": 30 + 6, "add": 30, "silu": 5 * 30,
                     "reduce_sum": 30}


def test_ops_count_only_inside_counting():
    x = Tensor(np.ones((4, 2)))
    with T.counting() as outer:
        T.add(x, x)
        with T.counting() as inner:          # the innermost tally alone gets an op
            T.relu(x)
        # the context unwinds when an exception passes through it
        with pytest.raises(ValueError), T.counting() as failed:
            T.sigmoid(x)
            raise ValueError
        T.add(x, x)
    T.relu(x)
    assert outer == {"add": 16} and inner == {"relu": 8} and failed == {"sigmoid": 32}


# ---------------------------------------------------------------------------
# backward / tape


def test_backward_sum_gives_ones():
    x = t64(np.random.default_rng(11).standard_normal((3, 4)))
    with Tape() as tape:
        loss = T.reduce_sum(x)
    (g,) = tape.gradients(loss, [x])
    assert np.array_equal(g, np.ones((3, 4)))


def test_backward_silu_finite_difference():
    x = t64(np.random.default_rng(12).standard_normal(20))
    err = grad_check(lambda: T.reduce_sum(T.silu(x)), [x])
    assert err < 1e-7


def test_backward_unreachable_param_zero():
    x = t64(np.ones(3))
    orphan = t64(np.ones(2))
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(x, x))
    gx, go = tape.gradients(loss, [x, orphan])
    assert np.allclose(gx, 2.0)
    assert np.array_equal(go, np.zeros(2))


def test_backward_rejects_nonscalar_loss():
    x = t64(np.ones(3))
    with Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ContractError):
        T.backward(tape, y)


def test_grad_check_linear_layer():
    rng = np.random.default_rng(13)
    x = t64(rng.standard_normal((4, 3)), grad=False)
    w = t64(rng.standard_normal((2, 3)))
    b = t64(rng.standard_normal(2))
    err = grad_check(lambda: T.reduce_mean(T.mul(T.linear(x, w, b),
                                                 T.linear(x, w, b))), [w, b])
    assert err < 1e-7


def test_grad_check_constant_function():
    x = t64(np.ones(3))
    c = Tensor(np.array(2.0, dtype=np.float64))
    err = grad_check(lambda: T.add(T.mul(T.reduce_sum(x), 0.0), c), [x])
    assert err < 1e-8


def test_grad_check_requires_float64():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda: T.reduce_sum(x), [x])


def test_grad_check_reads_roundoff_on_small_entries_as_roundoff():
    # an input entry's gradient here is 2.23e-5 and its central difference
    # 1.3e-6 off relative to it, which is roundoff: per tensor the error is 1.4e-10
    rng = np.random.default_rng(214)
    x = t64(rng.standard_normal((2, 3, 4, 3)))
    w = t64(rng.standard_normal((3, 3, 1)))
    b = t64(rng.standard_normal(3))
    err = grad_check(lambda: T.reduce_mean(T.mul(T.conv1d(x, w, b), T.conv1d(x, w, b))),
                     [x, w, b])
    assert err < 1e-6


def _one_entry_off(gx):
    gx.flat[7] += 1e-5 * np.abs(gx).max()
    return gx


@pytest.mark.parametrize("wrong", [lambda gx: gx * (1 + 1e-5), _one_entry_off],
                         ids=["scaled", "one-entry"])
def test_grad_check_flags_a_wrong_gradient(wrong):
    # sum(x^2) with a backward 1e-5 off, relative to the largest gradient
    x = t64(np.random.default_rng(215).standard_normal((3, 4)))

    def f():
        return T.record(Tensor(np.sum(x.data ** 2)), (x,), lambda g: (wrong(g * 2 * x.data),))
    assert 5e-6 < grad_check(f, [x]) < 2e-5


# every primitive against central differences, many random instances
_UNARY = [
    ("silu", T.silu), ("sigmoid", T.sigmoid), ("softplus", T.softplus),
    ("relu", T.relu),
]


@pytest.mark.parametrize("name,op", _UNARY)
def test_unary_gradients(name, op):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(15):
        x = t64(rng.uniform(0.2, 1.5, size=(3, 4)) * rng.choice([-1.0, 1.0], (3, 4)))
        err = grad_check(lambda: T.reduce_mean(T.mul(op(x), op(x))), [x])
        assert err < 1e-6, f"{name}: {err}"


def test_binary_and_shape_op_gradients():
    rng = np.random.default_rng(99)
    for _ in range(15):
        a = t64(rng.uniform(0.5, 1.5, (3, 4)))
        b = t64(rng.uniform(0.5, 1.5, (3, 4)))
        c = t64(rng.uniform(0.5, 1.5, (4,)))

        def f():
            s = T.add(T.mul(a, b), T.mul(a, c))       # broadcast mul
            s = T.add(T.slice_axis(s, 0, 0, 2), T.slice_axis(s, 0, 1, 3))
            s = T.reshape(T.transpose(s, (1, 0)), (8,))
            return T.reduce_mean(T.mul(s, s))

        err = grad_check(f, [a, b, c])
        assert err < 1e-6


def test_reduce_max_routes_a_tie_to_the_first_maximum():
    x = t64([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]])
    for keepdims in (True, False):
        with Tape() as tape:
            m = T.reduce_max(x, axis=0, keepdims=keepdims)
            loss = T.reduce_sum(T.mul(m, t64([2.0, 7.0], grad=False)))
        assert np.array_equal(m.data.ravel(), [3.0, 5.0])
        g, = tape.gradients(loss, [x])
        assert np.array_equal(g, [[0.0, 7.0], [2.0, 0.0], [0.0, 0.0]])


def test_reduce_and_stack_gradients():
    rng = np.random.default_rng(100)
    for _ in range(10):
        x = t64(rng.standard_normal((4, 3)) + 3.0)

        def f():
            m = T.reduce_max(x, axis=0, keepdims=True)
            s = T.reduce_sum(x, axis=1, keepdims=True)
            y = T.add(T.mul(x, m), s)
            return T.reduce_mean(T.mul(y, T.sigmoid(T.mul(x, 0.1))))

        err = grad_check(f, [x])
        assert err < 1e-6


def _scan_inputs(rng, lines, width=2, inner=3, state=2):
    """dt, u, b, c, a_log, h0 for selective_scan, all float64: five tracked
    Tensors, then h0 as an array, which carries no gradient."""
    return [t64(rng.uniform(0.1, 0.8, (lines, width, inner))),
            t64(rng.standard_normal((lines, width, inner))),
            t64(rng.standard_normal((lines, width, state))),
            t64(rng.standard_normal((lines, width, state))),
            t64(rng.uniform(-0.7, 0.7, (inner, state))),
            rng.standard_normal((width, state, inner))]


def test_selective_scan_matches_explicit_recurrence():
    rng = np.random.default_rng(102)
    *tensors, h0 = _scan_inputs(rng, 4, width=3)
    dt, u, b, c, a_log = (t.data for t in tensors)
    a = -np.exp(a_log)                                  # (E, N)
    h = h0.transpose(0, 2, 1).copy()                    # (W, E, N)
    ref = np.zeros(dt.shape)
    for t in range(dt.shape[0]):
        for w in range(dt.shape[1]):
            for e in range(dt.shape[2]):
                for n in range(a.shape[1]):
                    h[w, e, n] = (np.exp(dt[t, w, e] * a[e, n]) * h[w, e, n]
                                  + b[t, w, n] * dt[t, w, e] * u[t, w, e])
                    ref[t, w, e] += c[t, w, n] * h[w, e, n]
    y, h_last = T.selective_scan(*(Tensor(x) for x in (dt, u, b, c, a_log)), h0)
    assert np.allclose(y.data, ref, rtol=1e-13, atol=1e-13)
    assert np.allclose(h_last, h.transpose(0, 2, 1), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("lines", [1, 3])
def test_selective_scan_gradients(lines):
    rng = np.random.default_rng(103 + lines)
    for _ in range(5):
        ins = _scan_inputs(rng, lines)
        w = rng.standard_normal((lines, 2, 3))

        def f():
            y, _ = T.selective_scan(*ins)
            return T.reduce_mean(T.mul(T.mul(y, y), w))

        err = grad_check(f, ins[:5])
        assert err < 1e-6


def test_selective_scan_leaves_inputs_unchanged():
    ins = _scan_inputs(np.random.default_rng(105), 3)
    arrays = [t.data for t in ins[:5]] + [ins[5]]
    before = [a.copy() for a in arrays]
    with Tape() as tape:
        y, h_last = T.selective_scan(*ins)
        loss = T.reduce_sum(T.mul(y, y))
    tape.gradients(loss, ins[:5])
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)
    assert not np.shares_memory(h_last, ins[5])


def test_selective_scan_slabs_change_nothing(monkeypatch):
    ins = _scan_inputs(np.random.default_rng(107), 3, width=5)

    def run():
        with Tape() as tape:
            y, h_last = T.selective_scan(*ins)
            loss = T.reduce_sum(T.mul(y, y))
        return [y.data, h_last] + tape.gradients(loss, ins[:5])

    whole = run()
    # two columns per slab: slabs of 2, 2 and 1 columns at W=5
    monkeypatch.setattr(T, "_SCAN_SLAB_BYTES", 2 * 2 * 3 * 8)
    for a, b in zip(whole, run()):
        assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


def test_selective_scan_shape_error():
    ins = _scan_inputs(np.random.default_rng(106), 2)
    ins[5] = t64(np.zeros((2, 3, 2)))                   # (W, E, N): wrong layout
    with pytest.raises(ShapeError):
        T.selective_scan(*ins)


def test_conv_gradients():
    rng = np.random.default_rng(101)
    for _ in range(8):
        x = t64(rng.standard_normal((5, 3)))
        w = t64(rng.standard_normal((2, 3, 3)))
        b = t64(rng.standard_normal(2))
        err = grad_check(
            lambda: T.reduce_mean(T.mul(T.conv1d(x, w, b), T.conv1d(x, w, b))),
            [x, w, b])
        assert err < 1e-6

        dw = t64(rng.standard_normal((3, 3)))
        err = grad_check(
            lambda: T.reduce_mean(T.mul(T.depthwise_conv1d(x, dw),
                                        T.depthwise_conv1d(x, dw))), [x, dw])
        assert err < 1e-6

        seq = t64(rng.standard_normal((4, 2, 3)))
        cw = t64(rng.standard_normal((3, 2)))
        cb = t64(rng.standard_normal(3))
        hist = np.zeros((1, 2, 3))
        err = grad_check(
            lambda: T.reduce_mean(T.mul(T.causal_depthwise_conv(seq, hist, cw, cb)[0],
                                        T.causal_depthwise_conv(seq, hist, cw, cb)[0])),
            [seq, cw, cb])
        assert err < 1e-6


def test_layer_norm_gradients_over_two_leading_axes():
    # gamma and beta sum over both leading axes; nothing is written in place
    rng = np.random.default_rng(103)
    x = t64(rng.standard_normal((2, 3, 4)))
    g = t64(rng.uniform(0.5, 1.5, 4))
    b = t64(rng.standard_normal(4))
    w = rng.standard_normal((2, 3, 4))
    before = [t.data.copy() for t in (x, g, b)]
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(T.layer_norm(x, g, b), Tensor(w)))
    tape.gradients(loss, [x, g, b])
    for t, old in zip((x, g, b), before):
        assert np.array_equal(t.data, old)
    err = grad_check(lambda: T.reduce_sum(T.mul(T.layer_norm(x, g, b), Tensor(w))), [x, g, b])
    assert err < 1e-6


def test_layer_norm_gradients():
    rng = np.random.default_rng(102)
    for _ in range(10):
        x = t64(rng.standard_normal((3, 5)))
        g = t64(rng.uniform(0.5, 1.5, 5))
        b = t64(rng.standard_normal(5))
        err = grad_check(
            lambda: T.reduce_mean(T.mul(T.layer_norm(x, g, b),
                                        T.layer_norm(x, g, b))), [x, g, b])
        assert err < 1e-5


def test_ops_count_under_the_innermost_open_name():
    x = Tensor(np.ones((4, 2)))
    with T.counting() as tally:
        with T.named("a"):
            T.add(x, x)
            with T.named("b"):
                T.add(x, x)
            # the name unwinds when an exception passes through it
            with pytest.raises(ValueError), T.named("c"):
                raise ValueError
            T.relu(x)
        T.relu(x)
    assert tally == {"a.add": 8, "b.add": 8, "a.relu": 8, "relu": 8}
