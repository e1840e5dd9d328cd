"""Dense tensors plus reverse-mode automatic differentiation.

Only the operations the network actually uses are implemented. A Tensor
holds the NumPy array it is given, in its dtype, and is made only where an
op differentiates it; state crosses the ops as plain arrays. When a Tape is
active, every op that touches a grad-enabled tensor appends a node with a
hand-written backward closure. The tape is appended in execution order,
which is already a topological order, so the backward pass is a single
reversed sweep.

All ops are pure and deterministic; nothing here mutates its inputs.
Inside a `counting()` context they also tally the FLOPs they ran, each
under the name of the `named()` block that ran it.
"""

import contextlib
import itertools

import numpy as np

from .errors import ContractError, ShapeError

_ids = itertools.count()
_tape_stack = []
_count_stack = []
_name_stack = []


def _active_tape():
    return _tape_stack[-1] if _tape_stack else None


@contextlib.contextmanager
def counting():
    """Tally the FLOPs of the ops run inside, as {op name: FLOPs}; inside
    `named(block)` an op is tallied as `<block>.<op>`.

    Each op passes the FLOPs of the shapes it ran to `count`, which adds
    them to the innermost open tally. The conventions live in the ops: a
    multiply-add is 2 FLOPs, and every other arithmetic step or
    transcendental is 1 FLOP per element, so sigmoid is 4 (negate, exp,
    add, divide), silu 5, softplus 6 and layer norm 8 per element.
    """
    tally = {}
    _count_stack.append(tally)
    try:
        yield tally
    finally:
        _count_stack.pop()


class named:
    """Files the ops run inside under `<name>.<op>`; the innermost open name wins.
    A class: a line opens one per block, at a third of a generator's cost."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        _name_stack.append(self.name)

    def __exit__(self, *exc):
        _name_stack.pop()


def count(op, flops):
    """Add `flops` under `op` (`<name>.<op>` in `named`) to the innermost open tally, if any."""
    if _count_stack:
        if _name_stack:
            op = f"{_name_stack[-1]}.{op}"
        tally = _count_stack[-1]
        tally[op] = tally.get(op, 0) + flops


class Tensor:
    """N-dimensional array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "tid")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.tid = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)


def as_tensor(x, like=None):
    """Coerce scalars/arrays to Tensor, matching `like`'s dtype if given."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype if isinstance(like, Tensor) else None))


class _Node:
    __slots__ = ("out_id", "in_ids", "needs", "fn")

    def __init__(self, out_id, in_ids, needs, fn):
        self.out_id = out_id
        self.in_ids = in_ids
        self.needs = needs
        self.fn = fn


class Tape:
    """Ordered record of operations for one forward pass."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack.pop()
        return False

    def gradients(self, loss, params):
        """Gradients of a scalar loss w.r.t. a list of tensors.

        Parameters not reachable from the loss get zeros.
        """
        grads = backward(self, loss)
        return [grads[p.tid] if p.tid in grads else np.zeros_like(p.data)
                for p in params]


def record(out, inputs, fn):
    """Attach a backward closure to `out` if a tape is live.

    `fn(g)` must return one gradient array (or None) per input, aligned
    with `inputs`. Every op here ends with it (the layer ops through
    `_with_bias`), and so do the fused ops defined elsewhere:
    `train.loss_terms` and `blocks.upsample_composed`.
    """
    tape = _active_tape()
    if tape is None:
        return out
    needs = [t.requires_grad for t in inputs]
    if not any(needs):
        return out
    out.requires_grad = True
    tape.nodes.append(_Node(out.tid, [t.tid for t in inputs], needs, fn))
    return out


def backward(tape, loss):
    """Reverse sweep over the tape; returns {tensor id: gradient array}."""
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    grads = {loss.tid: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g_out = grads.get(node.out_id)
        if g_out is None:
            continue  # not reachable from the loss
        g_ins = node.fn(g_out)
        for tid, need, g in zip(node.in_ids, node.needs, g_ins):
            if not need or g is None:
                continue
            if tid in grads:
                grads[tid] = grads[tid] + g
            else:
                grads[tid] = g
    return grads


def _unbroadcast(g, shape):
    """Sum a gradient back down to `shape` after NumPy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = Tensor(a.data + b.data)
    count("add", out.size)
    sa, sb = a.shape, b.shape
    return record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = Tensor(a.data * b.data)
    count("mul", out.size)
    da, db = a.data, b.data

    def fn(g):
        return _unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)

    return record(out, (a, b), fn)


def gate(a):
    """SimpleGate (NAFNet) as one op, counted as `mul`: a[..., :c/2] * a[..., c/2:].
    The backward writes one gradient array, [g * a[..., c/2:] | g * a[..., :c/2]]."""
    c = a.shape[-1]
    if c % 2 != 0:
        raise ShapeError(f"gate needs an even channel count, got {c}")
    x1, x2 = a.data[..., :c // 2], a.data[..., c // 2:]
    out = Tensor(x1 * x2)
    count("mul", out.size)
    return record(out, (a,), lambda g: (np.concatenate([g * x2, g * x1], axis=-1),))


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(a):
    s = 1.0 / (1.0 + np.exp(-a.data))
    count("sigmoid", 4 * s.size)
    out = Tensor(s)
    return record(out, (a,), lambda g: (g * s * (1.0 - s),))


def silu(a):
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(a.data * s)
    count("silu", 5 * s.size)
    da = a.data
    return record(out, (a,), lambda g: (g * (s + da * s * (1.0 - s)),))


def softplus(a):
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which cannot overflow."""
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.log1p(e)
    y += np.maximum(x, 0)
    count("softplus", 6 * y.size)
    out = Tensor(y)

    def fn(g):
        # sigmoid(x) from the same exp(-|x|), only when a backward runs
        return (g * np.where(x >= 0, 1, e) / (1 + e),)

    return record(out, (a,), fn)


def relu(a):
    out = Tensor(np.maximum(a.data, 0))
    count("relu", out.size)
    mask = a.data > 0
    return record(out, (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims, dtype=a.dtype))
    count("reduce_sum", a.size)
    shape = a.shape

    def fn(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return record(out, (a,), fn)


def reduce_mean(a, axis=None, keepdims=False):
    n = a.size if axis is None else a.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reduce_max(a, axis, keepdims=False):
    ad = a.data
    m = ad.max(axis=axis, keepdims=True)
    out = Tensor(m if keepdims else np.squeeze(m, axis=axis))
    count("reduce_max", ad.size)

    def fn(g):
        # ties: route the whole gradient to the first maximum along the axis
        gx = np.zeros_like(ad)
        idx = np.expand_dims(np.argmax(ad, axis=axis), axis)
        gg = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, idx, gg, axis=axis)
        return (gx,)

    return record(out, (a,), fn)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))
    old = a.shape
    return record(out, (a,), lambda g: (g.reshape(old),))


def transpose(a, axes):
    out = Tensor(a.data.transpose(axes))
    inv = np.argsort(axes)
    return record(out, (a,), lambda g: (g.transpose(inv),))


def slice_axis(a, axis, lo, hi):
    """a[..., lo:hi, ...] along `axis`; gradient zero-pads the complement."""
    idx = (slice(None),) * (axis % a.data.ndim) + (slice(lo, hi),)
    out = Tensor(a.data[idx])
    shape = a.shape

    def fn(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return record(out, (a,), fn)


# ---------------------------------------------------------------------------
# linear / convolutional layers


def _with_bias(y, x, weight, bias, back):
    """y (+ bias over the last axis) recorded as a layer op on x: the layer
    ops here end with it. `back(g)` returns (gx, gw); the bias gets g summed
    over every leading axis."""
    if bias is None:
        return record(Tensor(y), (x, weight), back)
    y += bias.data
    count("bias", y.size)
    return record(Tensor(y), (x, weight, bias),
                  lambda g: back(g) + (g.reshape(-1, g.shape[-1]).sum(axis=0),))


def linear(x, weight, bias=None):
    """Affine map over the last axis: y[..., o] = sum_i x[..., i] * W[o, i] + b[o]."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear: input features {x.shape[-1]} != weight fan-in {weight.shape[1]}")
    xd, wd = x.data, weight.data

    def back(g):
        gw = g.reshape(-1, g.shape[-1]).T @ xd.reshape(-1, xd.shape[-1])
        return (g @ wd).reshape(xd.shape), gw

    y = xd @ wd.T
    count("linear", 2 * y.size * wd.shape[1])
    return _with_bias(y, x, weight, bias, back)


def _taps(k, width):
    """(j, dst, src) for each tap j of a same-size K-tap line convolution.

    Tap j reads the input j - K//2 columns from the output column: output
    columns `dst` take input columns `src` (the same count), and the other
    output columns fall on the zero padding. A tap that lies wholly in the
    padding (width <= |j - K//2|) gets two empty slices.
    """
    p = k // 2
    for j in range(k):
        s = j - p
        lo = max(-s, 0)
        n = max(width - abs(s), 0)
        yield j, slice(lo, lo + n), slice(lo + s, lo + s + n)


def _columns(x, k):
    """(..., W, Cin) -> (..., W, Cin, K) column matrix: [..., i, c, j] = x[..., i+j-K//2, c].

    Zero where the tap falls on the padding. Filled tap by tap from
    contiguous input rows, so no strided window is ever gathered.
    """
    cols = np.empty(x.shape + (k,), dtype=x.dtype)
    for j, dst, src in _taps(k, x.shape[-2]):
        cols[..., dst, :, j] = x[..., src, :]
        cols[..., :dst.start, :, j] = 0
        cols[..., dst.stop:, :, j] = 0
    return cols


def _fold_columns(z):
    """Adjoint of `_columns`: (..., W, C, K) -> (..., W, C),
    out[..., i, c] = sum_j z[..., i-j+K//2, c, j], taps in the padding dropped.
    """
    k = z.shape[-1]
    out = z[..., k // 2].copy()
    for j, dst, src in _taps(k, z.shape[-3]):
        if j != k // 2:
            out[..., src, :] += z[..., dst, :, j]
    return out


def conv1d_gemm(x, w):
    """`conv1d` on arrays, without bias: (x (..., W, Cin), w (Cout, Cin, K)) -> (y, back).

    y (..., W, Cout) is the column matrix of x times w read as (Cout, Cin*K),
    which is never copied. `back(g)` returns (gx, gw): g times w folded back
    into gx at the taps' shifts, and g times the kept column matrix.
    """
    cout, cin, k = w.shape
    wm = w.reshape(cout, cin * k)
    cols = _columns(x, k).reshape(-1, cin * k)
    count("conv1d", 2 * len(cols) * w.size)     # padding taps included: the GEMM runs them

    def back(g):
        g2 = g.reshape(-1, cout)
        return _fold_columns((g2 @ wm).reshape(x.shape + (k,))), (g2.T @ cols).reshape(w.shape)

    return (cols @ wm.T).reshape(x.shape[:-1] + (cout,)), back


def conv1d(x, weight, bias=None):
    """Same-size 1D convolution across the line (axis -2), zero padded.

    x: (..., W, Cin), weight: (Cout, Cin, K) with K odd -> (..., W, Cout):
    y[..., i, o] = sum_{c, j} weight[o, c, j] * x[..., i + j - K//2, c].

    All lines go through one im2col GEMM (`conv1d_gemm`): the column
    matrix of x times the weight in its stored layout, and for the
    backward the same two matrices against the output gradient.
    """
    _, cin, k = weight.shape
    if k % 2 != 1:
        raise ContractError(f"conv1d kernel size must be odd, got {k}")
    if x.shape[-1] != cin:
        raise ShapeError(f"conv1d: input channels {x.shape[-1]} != weight fan-in {cin}")
    y, back = conv1d_gemm(x.data, weight.data)
    return _with_bias(y, x, weight, bias, back)


def _tap_sum(x, w, taps, axis, length):
    """Per-channel tap sum on arrays: (x (..., C), w (C, K)) -> (y, back).

    Each tap (j, dst, src), slices along `axis`, adds w[:, j] * x[src] into
    y[dst]; y has `length` positions on `axis`, zero where no tap lands.
    back(g) returns (gx, gw): gx[src] += w[:, j] * g[dst], and gw[:, j] is
    g[dst] * x[src] summed over all but the channel axis. Products go through
    one output-sized scratch, by rows of w.T (strided columns ran 2.5x slower).
    """
    lead = (slice(None),) * (axis % x.ndim)
    taps = [(j, lead + (dst,), lead + (src,)) for j, dst, src in taps]
    shape = list(x.shape)
    shape[axis] = length
    y = np.zeros(shape, dtype=np.result_type(x, w))
    tmp = np.empty_like(y)
    wt = np.ascontiguousarray(w.T)
    for j, dst, src in taps:
        y[dst] += np.multiply(x[src], wt[j], out=tmp[dst])
    count("depthwise_conv", 2 * sum(tmp[dst].size for _, dst, _ in taps))   # padding skipped

    def back(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        gw = np.empty(w.shape, dtype=g.dtype)
        sum_axes = tuple(range(g.ndim - 1))
        for j, dst, src in taps:
            gx[src] += np.multiply(g[dst], wt[j], out=tmp[dst])
            gw[:, j] = np.multiply(g[dst], x[src], out=tmp[dst]).sum(axis=sum_axes)
        return gx, gw

    return y, back


def depthwise_conv1d(x, weight, bias=None):
    """Same-size depthwise 1D convolution across the line (axis -2).

    x: (..., W, C), weight: (C, K) with K odd; channel c of the output
    depends only on channel c of the input:
    y[..., i, c] = sum_j weight[c, j] * x[..., i + j - K//2, c].

    `_tap_sum` over `_taps`' slices along axis -2, so taps that would read
    the zero padding skip it and no padded copy of x is built.
    """
    c, k = weight.shape
    if k % 2 != 1:
        raise ContractError(f"depthwise_conv1d kernel size must be odd, got {k}")
    if x.shape[-1] != c:
        raise ShapeError(f"depthwise_conv1d: {x.shape[-1]} channels vs {c} kernels")
    y, back = _tap_sum(x.data, weight.data, _taps(k, x.shape[-2]), -2, x.shape[-2])
    return _with_bias(y, x, weight, bias, back)


def causal_depthwise_conv(x, history, weight, bias=None):
    """Depthwise convolution along axis 0 (the along-track line axis).

    x: (H, ..., C); history: (K-1, ..., C) array of the lines just before
    x[0], oldest first (zeros at the start of a sequence); weight: (C, K).
    Output line y sees lines y-K+1 .. y; weight[:, K-1] multiplies the
    newest line. Returns (y Tensor, next history): the last K-1 lines of
    xp = concat(history, x), as an array of their own, so a stream keeps no
    view into xp alive; histories carry no gradient.
    `_tap_sum` adds weight[:, j] * xp[j:j+H] to all H output lines.
    """
    c, k = weight.shape
    if x.shape[-1] != c:
        raise ShapeError(f"causal conv: {x.shape[-1]} channels vs {c} kernels")
    if history.shape != (k - 1,) + x.shape[1:]:
        raise ShapeError(f"causal conv: history {history.shape} for input {x.shape}"
                         f" and {k} kernel lines")
    h = x.shape[0]
    xp = np.concatenate([history, x.data], axis=0)
    taps = [(j, slice(0, h), slice(j, j + h)) for j in range(k)]
    y, back = _tap_sum(xp, weight.data, taps, 0, h)

    def back_x(g):
        gxp, gw = back(g)
        return gxp[k - 1:], gw

    return _with_bias(y, x, weight, bias, back_x), xp[h:].copy()


# selective_scan works on (columns, N, E) slabs of about this size, which
# keeps the scratch slab and the latent rows it updates in a core's L2
# cache; whole-width updates at W=250, N=16, E=280 ran about 1.5x slower.
_SCAN_SLAB_BYTES = 1 << 18


def selective_scan(dt, u, b, c, a_log, h0):
    """Selective SSM recurrence along axis 0 (the line axis), as one op.

    dt, u: (L, W, E) step sizes and inputs; b, c: (L, W, N) input and
    readout vectors; a_log: (E, N) with A = -exp(a_log); h0: (W, N, E)
    latent array before line 0, which carries no gradient. For each line t:

        h_t = exp(dt_t * A) * h_{t-1} + b_t (outer) (dt_t * u_t)
        y_t[w, e] = sum_n c_t[w, n] * h_t[w, n, e]

    Returns (y, h_L): y a (L, W, E) Tensor, h_L the (W, N, E) latent after
    the last line as an array that carries no gradient. The latent is laid
    out (W, N, E) so that every broadcast runs along E, the long contiguous
    axis. Columns w are independent, so the work runs over slabs of a few
    columns, all L lines per slab, with one reused scratch slab that stays
    in cache. The forward writes the new latent once, never mutates h0, and
    keeps the per-line latents only when a tape will need them; the
    backward runs the adjoint recurrence in reverse, recomputing
    exp(dt_t * A) per line instead of storing it.
    """
    lines, width, e = dt.shape
    n = a_log.shape[1]
    if (lines < 1 or u.shape != dt.shape or b.shape != (lines, width, n)
            or c.shape != b.shape or a_log.shape != (e, n) or h0.shape != (width, n, e)):
        raise ShapeError(
            f"selective_scan: dt {dt.shape}, u {u.shape}, b {b.shape}, c {c.shape}, "
            f"a_log {a_log.shape}, h0 {h0.shape}")
    inputs = (dt, u, b, c, a_log)
    dtype = np.result_type(h0, *(t.data for t in inputs))
    dtd, ud, bd, cd = dt.data, u.data, b.data, c.data
    at = np.ascontiguousarray(-np.exp(a_log.data.T))    # A as (N, E)
    du = dtd * ud
    # 7 per latent element and line (dt*A, exp, decay, b*du, add, the readout's
    # multiply-add), 1 per du element, and A = -exp(a_log) once per call
    count("selective_scan", lines * width * e * (7 * n + 1) + 2 * e * n)
    rows = max(1, _SCAN_SLAB_BYTES // (n * e * np.dtype(dtype).itemsize))
    slabs = [slice(lo, lo + rows) for lo in range(0, width, rows)]
    buf = np.empty((min(rows, width), n, e), dtype=dtype)
    h = np.empty((width, n, e), dtype=dtype)
    y = np.empty((lines, width, e), dtype=dtype)
    taped = _active_tape() is not None and any(t.requires_grad for t in inputs)
    hs = np.empty((lines, width, n, e), dtype=dtype) if taped else None
    for w in slabs:
        hw = h[w]
        bw = buf[:len(hw)]
        for t in range(lines):
            np.exp(np.einsum("we,ne->wne", dtd[t, w], at, out=bw), out=bw)
            np.multiply(hw if t else h0[w], bw, out=hw)
            hw += np.einsum("wn,we->wne", bd[t, w], du[t, w], out=bw)
            np.matmul(cd[t, w, None, :], hw, out=y[t, w, None, :])
            if taped:
                hs[t, w] = hw
    out = Tensor(y)

    def fn(g):
        gdu, gdt = np.empty_like(y), np.empty_like(y)
        gb, gc = np.empty(bd.shape, dtype), np.empty(bd.shape, dtype)
        gh = np.zeros_like(h)                        # adjoint of the latent
        ga = np.zeros(at.shape, dtype)
        q = np.empty_like(buf)
        for w in slabs:
            ghw = gh[w]
            bw, qw = buf[:len(ghw)], q[:len(ghw)]
            for t in reversed(range(lines)):
                np.matmul(hs[t, w], g[t, w, :, None], out=gc[t, w, :, None])
                ghw += np.einsum("wn,we->wne", cd[t, w], g[t, w], out=qw)
                np.matmul(ghw, du[t, w, :, None], out=gb[t, w, :, None])
                np.matmul(bd[t, w, None, :], ghw, out=gdu[t, w, None, :])
                np.exp(np.einsum("we,ne->wne", dtd[t, w], at, out=bw), out=bw)
                np.multiply(ghw, hs[t - 1, w] if t else h0[w], out=qw)
                qw *= bw                             # adjoint of dt_t * A
                ghw *= bw
                np.einsum("wne,ne->we", qw, at, out=gdt[t, w])
                ga += np.einsum("wne,we->ne", qw, dtd[t, w])
        gdt += gdu * ud
        return gdt, gdu * dtd, gb, gc, (ga * at).T

    return record(out, inputs, fn), h


LN_EPS = 1e-6   # keeps `layer_norm` of a constant feature vector finite (0)


def layer_norm(x, gamma, beta):
    """Normalize over the last (feature) axis, then scale and shift, as one op.

    y = x_hat * gamma + beta with x_hat = (x - mean) * inv and
    inv = 1 / sqrt(var + LN_EPS). The backward is the closed form
    gx = inv * (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) with
    g_hat = g * gamma, the means over the feature axis; gamma and beta get
    g * x_hat and g summed over every leading axis.
    """
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError("layer_norm: gamma/beta must match the feature axis")
    gd = gamma.data
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    y = np.square(xhat)
    inv = 1 / np.sqrt(y.mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv
    np.multiply(xhat, gd, out=y)
    y += beta.data
    count("layer_norm", 8 * y.size)
    out = Tensor(y)

    def fn(g):
        gxh = g * xhat
        # row means of g_hat and g_hat * x_hat as matrix-vector products
        gx = g * gd
        gx -= (g @ gd)[..., None] / n
        gx -= xhat * ((gxh @ gd)[..., None] / n)
        gx *= inv
        return gx, gxh.reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0)

    return record(out, (x, gamma, beta), fn)

