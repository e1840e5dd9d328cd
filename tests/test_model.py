"""Model-level contracts: the frozen DPSRW001 container and exact streaming."""

import collections
import dataclasses
import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from dpsr import ssm, tensor as T
from dpsr.errors import ContractError, FormatError, NumericError, first_non_finite
from dpsr.model import (HEADER_FIELDS, MAGIC, MEMORY_KINDS, DpsrConfig, DpsrParams,
                        _record_bytes, dpsr_forward_image, dpsr_step, load_params,
                        save_params)
from dpsr.profiler import profile
from dpsr.tensor import Tensor
from test_blocks import _bilinear_gather, _naf_oracle, _sfe_oracle, pixel_shuffle_line
from test_ssm import oracle_memory_block

# sha256 and size of the seed-0 container of the small config below. Any
# change to the parameter declarations, their order or the seeded draws
# shows up here.
GOLDEN = {
    "mamba": (16212, "42bbe4b1215f692ea221bcb47c6fa26c8ac5d9c3a29c3b4cce472152db119333"),
    "causalconv": (14676, "f7a3ea6110e5cb513c40235e6aed8796600af39d86d0c6a5a0beae83d46a435f"),
}


def small_config(kind, up_features=4, **kw):
    return DpsrConfig(bands=4, features=8, up_features=up_features, state_size=4,
                      memory_kind=kind, **kw)


# up_features 4 always runs the separate upsampler. At 16 a call over 12 px or
# more composes: a 5-px streamed line and 2-line chunks run the separate form,
# 3- and 9-line chunks and the 40-px image forward the composed one
UP_FEATURES = (4, 16)


def astype(params, dtype):
    """Copy with every tensor cast to `dtype` (for gradient-check mode)."""
    clone = DpsrParams.zeros(params.config, dtype=dtype)
    for (_, dst), (_, src) in zip(clone.named_tensors(), params.named_tensors()):
        dst.data[...] = src.data.astype(dtype)
    return clone


@pytest.fixture
def saved(tmp_path):
    def save(kind):
        params = DpsrParams.init(small_config(kind), seed=0)
        path = tmp_path / f"{kind}.dpsrw"
        save_params(params, path)
        return params, path
    return save


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_container_bytes_match_golden(saved, kind):
    _, path = saved(kind)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN[kind]


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_container_round_trip_is_bit_exact(saved, kind):
    params, path = saved(kind)
    loaded = load_params(path)
    assert loaded.config == params.config
    names = [n for n, _ in params.named_tensors()]
    assert [n for n, _ in loaded.named_tensors()] == names
    for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
        assert a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data), name


def header_field(i, value):
    """Overwrite config header field i (0 = bands .. 9 = ca_reduction)."""
    return lambda b: b[:8 + 4 * i] + struct.pack("<I", value) + b[12 + 4 * i:]


def swap_dims(b):
    """Swap the first two stored dims of the first record (sfe.conv_w, (F, C, 3))."""
    return b[:52] + struct.pack("<2I", *struct.unpack("<2I", b[52:60])[::-1]) + b[60:]


@pytest.mark.parametrize("corrupt, match", [
    (lambda b: b"DPSRW002" + b[8:], "bad magic"),
    (lambda b: b[:-1], "implies 16164 more bytes, 16163 follow"),     # truncated payload
    (lambda b: b[:30], "truncated file while reading config header"),
    (lambda b: b + b"\x00", "trailing bytes after the last tensor"),
    (header_field(1, 0xFFFFFFFE), "the config header implies"),    # 192 GiB in sfe.conv_w alone
    (header_field(7, 0xFFFFFFFF), "the config header implies"),    # n_clff
    (header_field(8, 2), "unknown memory kind index 2"),
    (header_field(1, 7), "invalid config header: features must be even"),
    (lambda b: b[:48] + struct.pack("<I", 2) + b[52:], "sfe.conv_w: rank 2 does not match"),
    (swap_dims, r"sfe.conv_w: stored shape \(4, 8, 3\) does not match config shape \(8, 4, 3\)"),
], ids=["magic", "truncated", "truncated-header", "trailing", "huge-features", "huge-n-clff",
        "memory-kind-index", "odd-features", "record-rank", "swapped-dims"])
def test_corrupt_container_raises_format_error(saved, corrupt, match):
    _, path = saved("mamba")
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError, match=match):
        load_params(path)


@pytest.mark.parametrize("kw, match", [
    ({"features": 7}, "features must be even"),
    ({"memory_kind": "lstm"}, r"memory_kind must be one of \('mamba', 'causalconv'\)"),
])
def test_config_rejects_an_odd_feature_count_and_an_unknown_memory_kind(kw, match):
    with pytest.raises(ContractError, match=match):
        DpsrConfig(bands=4, **kw)


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_header_sizes_every_tensor_record(saved, kind):
    # the size load_params checks against the file before it allocates
    params, path = saved(kind)
    assert path.stat().st_size == len(MAGIC) + 40 + _record_bytes(params.config)


def state_arrays(state):
    return [a.copy() for _, a in state.arrays()]


def unchanged(before, state):
    return all(np.array_equal(a, b) for a, b in zip(before, state_arrays(state), strict=True))


def fold_steps(cube, params, chunk=1):
    """Stream `cube` `chunk` lines at a time; checks no step writes into its input state."""
    state, out = None, []
    for lo in range(0, len(cube), chunk):
        lines = cube[lo] if chunk == 1 else cube[lo:lo + chunk]
        before = None if state is None else state_arrays(state)
        sr, next_state = dpsr_step(lines, params, state)
        assert before is None or unchanged(before, state)
        state = next_state
        if sr is not None:
            out.append(sr)
    return np.concatenate(out, axis=0), state


@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("kernel_lines", [1, 4])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_step_fold_equals_image_forward(kind, kernel_lines, dtype, tol):
    for up_features in UP_FEATURES:
        params = DpsrParams.init(small_config(kind, up_features, kernel_lines=kernel_lines),
                                 seed=1)
        params = astype(params, dtype)
        cube = np.random.default_rng(2).random((9, 5, 4)).astype(dtype)
        with T.counting() as steps:
            streamed, state = fold_steps(cube, params)
        with T.counting() as image:
            whole = dpsr_forward_image(cube, params).data
        assert "up.composite_weight" not in steps
        assert ("up.composite_weight" in image) == (up_features == 16)
        assert streamed.shape == whole.shape == (8 * 4, 5 * 4, 4)
        assert streamed.dtype == whole.dtype == dtype
        assert np.max(np.abs(streamed - whole)) <= tol
        assert state.lines_consumed == 9


def test_non_finite_latent_names_block_and_line():
    params = DpsrParams.init(small_config("mamba"), seed=0)
    bad = astype(params, np.float32)
    bad.clff[1][1].a_log.data[0, 0] = np.nan
    cube = np.random.default_rng(3).random((3, 5, 4)).astype(np.float32)
    _, state = dpsr_step(cube[0], params, None)
    _, state = dpsr_step(cube[1], params, state)
    with pytest.raises(NumericError, match=r"CLFF block 1 at line 2"):
        dpsr_step(cube[2], bad, state)


@pytest.mark.parametrize("block", [0, 1])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_latent_names_block_and_line(block, value):
    params = DpsrParams.init(small_config("mamba"), seed=0)
    cube = np.random.default_rng(4).random((3, 5, 4)).astype(np.float32)
    _, state = dpsr_step(cube[0], params, None)
    _, state = dpsr_step(cube[1], params, state)
    state.mem[block].h[2, 1, 3] = value
    with pytest.raises(NumericError, match=rf"CLFF block {block} at line 2"):
        dpsr_step(cube[2], params, state)


@pytest.mark.parametrize("block", [0, 1])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_causal_conv_output_names_block_and_line(block, value):
    params = DpsrParams.init(small_config("causalconv"), seed=0)
    cube = np.random.default_rng(4).random((3, 5, 4)).astype(np.float32)
    _, state = dpsr_step(cube[0], params, None)
    _, state = dpsr_step(cube[1], params, state)
    state.mem[block].conv_tail[-1, 2, 3] = value
    with pytest.raises(NumericError,
                       match=rf"^non-finite causal-conv output in CLFF block {block} at line 2$"):
        dpsr_step(cube[2], params, state)


def test_overflowing_causal_conv_weights_name_the_block_that_goes_non_finite():
    # block 0's output stays finite (about 1e37); block 1's memory block turns it to NaN
    params = DpsrParams.init(small_config("causalconv"), seed=0)
    params.clff[0][1].out_w.data[:] = 3e38
    cube = np.random.default_rng(5).random((3, 5, 4)).astype(np.float32)
    with pytest.raises(NumericError,
                       match=r"^non-finite causal-conv output in CLFF block 1 at line 0$"):
        dpsr_step(cube, params, None)


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_an_upsampler_that_overflows_names_the_line(kind):
    # every block's output is finite; the finite upsampler weights overflow float32
    params = DpsrParams.init(small_config(kind), seed=0)
    cube = np.random.default_rng(5).random((3, 5, 4)).astype(np.float32)
    _, state = dpsr_step(cube[:2], params, None)
    params.upsampler.expand_w.data[:] = 3e38
    params.upsampler.restore_w.data[:] = 3e38
    with pytest.raises(NumericError, match="^non-finite output at line 2$"):
        dpsr_step(cube[2], params, state)


@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("kernel_lines", [1, 4])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("chunk", [2, 3, 9])
def test_chunk_fold_equals_image_forward(kind, kernel_lines, dtype, tol, chunk):
    # stopping and resuming at any chunk boundary leaves the output unchanged
    for up_features in UP_FEATURES:
        params = DpsrParams.init(small_config(kind, up_features, kernel_lines=kernel_lines),
                                 seed=1)
        params = astype(params, dtype)
        cube = np.random.default_rng(2).random((9, 5, 4)).astype(dtype)
        with T.counting() as steps:
            streamed, state = fold_steps(cube, params, chunk)
        whole = dpsr_forward_image(cube, params).data
        assert ("up.composite_weight" in steps) == (up_features == 16 and chunk > 2)
        assert streamed.shape == whole.shape and streamed.dtype == whole.dtype
        assert np.max(np.abs(streamed - whole)) <= tol
        assert state.lines_consumed == 9


def _line_conv_oracle(x, w, b):
    """(W, F_in) -> (W, F_out): a 3-tap conv along the line, zero padded, one tap at a time."""
    xp = np.pad(x, ((1, 1), (0, 0)))
    return b + sum(xp[j:j + len(x)] @ w[:, :, j].T for j in range(3))


def oracle_stream(cube, params):
    """(L, W, C) lines through the whole model from a fresh stream, in float64,
    composed from the block oracles: SFE and NAF line by line, the memory
    block pixel by pixel, then for every line after the first the expand
    conv, the reference shuffle and the restore conv over the bilinear base
    between it and the line before it."""
    z = np.stack([_sfe_oracle(x, params.sfe) for x in cube])
    for naf, mem in params.clff:
        z = oracle_memory_block(np.stack([_naf_oracle(line, naf) for line in z]), mem)
    up, cfg = params.upsampler, params.config
    out = []
    for y in range(1, len(cube)):
        t = _line_conv_oracle(z[y], up.expand_w.data, up.expand_b.data)
        t = pixel_shuffle_line(Tensor(t), cfg.scale, cfg.up_features).data
        res = np.stack([_line_conv_oracle(a, up.restore_w.data, up.restore_b.data) for a in t])
        out.append(res + _bilinear_gather(cube[y - 1], cube[y], cfg.scale))
    return np.concatenate(out)


# a streamed line of 8 px or more composes the upsampler at these dims
@pytest.mark.parametrize("width, composed", [(3, False), (8, True)])
@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_streamed_lines_equal_the_whole_line_oracle(kind, width, composed):
    cfg = DpsrConfig(bands=2, features=4, expand=2, state_size=2, kernel_lines=3,
                     up_features=6, scale=2, memory_kind=kind)
    params = DpsrParams.init(cfg, seed=12, dtype=np.float64)
    rng = np.random.default_rng(12)
    for _, t in params.named_tensors():     # no bias, norm or D skip at its init value
        t.data += rng.uniform(0.05, 0.2, t.shape) * rng.choice([-1, 1], t.shape)
    cube = rng.random((6, width, cfg.bands))
    with T.counting() as tally:
        streamed, _ = fold_steps(cube, params)
    assert ("up.composite_weight" in tally) == composed
    want = oracle_stream(cube, params)
    assert streamed.shape == want.shape == (5 * 2, width * 2, cfg.bands)
    assert np.max(np.abs(streamed - want)) <= 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_input_line_is_rejected_before_any_block(value):
    params = DpsrParams.init(small_config("mamba"), seed=0)
    cube = np.random.default_rng(5).random((6, 5, 4)).astype(np.float32)
    bad = cube.copy()
    bad[3, 2, 1] = value
    with pytest.raises(ContractError, match=r"non-finite input at line 3"):
        dpsr_forward_image(bad, params)
    _, state = dpsr_step(cube[:2], params, None)
    with pytest.raises(ContractError, match=r"non-finite input at line 3"):
        dpsr_step(bad[2:5], params, state)          # the bad line inside a chunk
    _, state = dpsr_step(cube[2], params, state)
    before = state_arrays(state)
    with pytest.raises(ContractError, match=r"non-finite input at line 3"):
        dpsr_step(bad[3], params, state)
    assert unchanged(before, state)

    # skipping the bad line and going on equals a stream that never saw it
    resumed = []
    for line in cube[4:]:
        sr, state = dpsr_step(line, params, state)
        resumed.append(sr)
    clean, _ = fold_steps(np.delete(cube, 3, axis=0), params)
    assert np.array_equal(np.concatenate(resumed, axis=0), clean[2 * 4:])


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_a_malformed_line_mid_stream_is_rejected_and_the_stream_goes_on(kind):
    params = DpsrParams.init(small_config(kind), seed=0)
    cube = np.random.default_rng(7).random((6, 5, 4)).astype(np.float32)
    _, state = dpsr_step(cube[0], params, None)
    out = []
    for line in cube[1:3]:
        sr, state = dpsr_step(line, params, state)
        out.append(sr)
    before = state_arrays(state)
    with pytest.raises(ContractError, match=r"line width 6 vs stream width 5"):
        dpsr_step(np.zeros((6, 4), np.float32), params, state)
    with pytest.raises(ContractError, match=r"expected a \(W, 4\) line .* got \(5, 3\)"):
        dpsr_step(cube[3, :, :3], params, state)
    assert unchanged(before, state)

    # the stream goes on from the state it had, as if it never saw the bad lines
    for line in cube[3:]:
        sr, state = dpsr_step(line, params, state)
        out.append(sr)
    assert np.array_equal(np.concatenate(out, axis=0), fold_steps(cube, params)[0])


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_a_streamed_line_allocates_little_beyond_its_state_and_output(kind):
    # f = 16 <= C = 33 and 96 features take the separate upsampler. Besides the
    # next state and the output, a line holds the expand output and the restore
    # buffer (at most one output each, for f <= C) and a few (W, F) activations
    # and NumPy iteration buffers, 128 KiB here
    cfg = DpsrConfig(bands=33, features=96, up_features=16, memory_kind=kind)
    params = DpsrParams.init(cfg, seed=0)
    cube = np.random.default_rng(0).random((3, 64, cfg.bands)).astype(np.float32)
    _, state = dpsr_step(cube[:2], params, None)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sr, state = dpsr_step(cube[2], params, state)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    slack = 2 * sr.nbytes + 128 * 1024
    assert peak <= state.nbytes() + sr.nbytes + slack


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_non_finite_finds_the_first_bad_line_at_the_largest_values(dtype):
    # the largest finite values are finite, whatever their sum
    a = np.full((4, 3), np.finfo(dtype).max, dtype=dtype)
    assert first_non_finite(a) is None
    a[2, 1] = np.nan
    assert first_non_finite(a) == 2
    a[1, 0] = -np.inf
    assert first_non_finite(a) == 1


@pytest.mark.parametrize("shape, bad", [
    ((7,), (4,)),                      # a bias
    ((1, 250, 66), (0, 249, 65)),      # one streamed line
    ((5, 4, 3), (4, 3, 2)),            # a NaN in the last slice only
    ((2, 3, 4, 5), (1, 0, 3, 2)),      # a 4-D array
])
def test_first_non_finite_at_the_shapes_its_callers_pass(shape, bad):
    a = np.ones(shape, dtype=np.float32)
    assert first_non_finite(a) is None
    a[bad] = np.nan
    assert first_non_finite(a) == bad[0]
    a[bad] = np.inf
    assert first_non_finite(a) == bad[0]


def test_upsampler_runs_only_on_lines_whose_output_is_kept(monkeypatch):
    import dpsr.model
    seen = []
    real = dpsr.model.upsample_line
    monkeypatch.setattr(dpsr.model, "upsample_line",
                        lambda z, p: seen.append(z.shape[0]) or real(z, p))
    params = DpsrParams.init(small_config("mamba"), seed=0)
    cube = np.random.default_rng(6).random((5, 3, 4)).astype(np.float32)
    sr, state = dpsr_step(cube[0], params, None)      # the priming line
    assert sr is None and seen == []
    sr, _ = dpsr_step(cube[1:3], params, state)
    assert sr.shape == (2 * 4, 3 * 4, 4) and seen == [2]
    assert dpsr_forward_image(cube, params).shape == (4 * 4, 3 * 4, 4) and seen == [2, 4]


@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["float64", "int64"])
def test_a_float32_stream_casts_other_lines_to_its_dtype(kind, dtype):
    params = DpsrParams.init(small_config(kind), seed=0)
    cube = (8 * np.random.default_rng(4).random((4, 6, 4))).astype(dtype)
    _, state = dpsr_step(cube[0].astype(np.float32), params, None)
    nbytes = state.nbytes()
    sr, other = dpsr_step(cube[1], params, state)
    want, cast = dpsr_step(cube[1].astype(np.float32), params, state)
    assert sr.dtype == np.float32 and sr.tobytes() == want.tobytes()
    assert all(a.dtype == np.float32 and a.tobytes() == b.tobytes()
               for a, b in zip(state_arrays(other), state_arrays(cast)))
    assert other.nbytes() == nbytes
    sr, other = dpsr_step(cube[2:], params, other)
    assert sr.dtype == np.float32 and other.nbytes() == nbytes


@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.float16],
                         ids=["float64", "float32", "int64", "float16"])
def test_a_stream_runs_in_its_parameters_dtype(kind, dtype):
    # fresh and primed, the state and the outputs are float32 whatever the
    # lines' dtype, bit for bit those of the lines cast to float32 first
    cfg = small_config(kind)
    params = DpsrParams.init(cfg, seed=0)
    cube = (8 * np.random.default_rng(4).random((4, 6, 4))).astype(dtype)
    state = cast = None
    for lines in (cube[0], cube[1:]):
        sr, state = dpsr_step(lines, params, state)
        want, cast = dpsr_step(lines.astype(np.float32), params, cast)
        assert (sr is None) == (want is None)
        assert sr is None or (sr.dtype == np.float32 and sr.tobytes() == want.tobytes())
        assert all(a.dtype == np.float32 and a.tobytes() == b.tobytes()
                   for a, b in zip(state_arrays(state), state_arrays(cast), strict=True))
        assert state.nbytes() == profile(cfg, 6).state_bytes


@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("chunk", [1, 3])
def test_float64_parameters_stream_float32_lines_as_the_image_forward(kind, chunk):
    params = astype(DpsrParams.init(small_config(kind), seed=1), np.float64)
    cube = np.random.default_rng(2).random((40, 5, 4)).astype(np.float32)
    streamed, state = fold_steps(cube, params, chunk)
    whole = dpsr_forward_image(cube, params).data
    assert streamed.dtype == whole.dtype == np.float64
    assert all(a.dtype == np.float64 for a in state_arrays(state))
    assert streamed.tobytes() == whole.tobytes()


def test_a_value_the_parameters_dtype_cannot_hold_is_non_finite_input():
    # 1e300 overflows the float32 cast: under warnings-as-errors it is still
    # the input check's ContractError, and the given state is left as it was
    params = DpsrParams.init(small_config("mamba"), seed=0)
    cube = np.random.default_rng(5).random((6, 5, 4))
    bad = cube.copy()
    bad[3, 2, 1] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=r"non-finite input at line 3"):
            dpsr_forward_image(bad, params)
        with pytest.raises(ContractError, match=r"non-finite input at line 3"):
            dpsr_step(bad[:5], params, None)
        _, state = dpsr_step(cube[:2], params, None)
        before = state_arrays(state)
        with pytest.raises(ContractError, match=r"non-finite input at line 3"):
            dpsr_step(bad[2:5], params, state)
        assert unchanged(before, state)


@pytest.mark.parametrize("line", [
    np.ones((5, 4), np.complex64) * (1 + 2j), np.ones((5, 4), np.complex128) * (1 + 2j),
    np.full((5, 4), "0.5")], ids=["complex64", "complex128", "str"])
def test_a_line_that_is_not_real_numbers_is_rejected_not_truncated(line):
    # rejected before the cast, which would drop the imaginary part with a
    # ComplexWarning or fail in NumPy; the given state is left as it was
    params = DpsrParams.init(small_config("mamba"), seed=0)
    cube = np.random.default_rng(5).random((2, 5, 4)).astype(np.float32)
    match = rf"input lines of dtype {line.dtype}: expected real numbers"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=match):
            dpsr_step(line, params, None)
        with pytest.raises(ContractError, match=match):
            dpsr_forward_image(np.stack([line, line]), params)
        _, state = dpsr_step(cube, params, None)
        before = state_arrays(state)
        with pytest.raises(ContractError, match=match):
            dpsr_step(line, params, state)
        assert unchanged(before, state)


@pytest.mark.parametrize("cube, match", [
    (np.zeros((1, 5, 4), np.float32), r"forward_image needs at least 2 lines"),
    (np.zeros((5, 4), np.float32), r"expected \(H, W, 4\), got \(5, 4\)"),
], ids=["one-line", "2-d"])
def test_the_image_forward_rejects_what_is_not_a_multi_line_image(cube, match):
    params = DpsrParams.init(small_config("mamba"), seed=0)
    with pytest.raises(ContractError, match=match):
        dpsr_forward_image(cube, params)


def test_a_float32_line_passes_into_the_stream_uncopied(monkeypatch):
    import dpsr.model
    seen = []
    real = dpsr.model._forward
    monkeypatch.setattr(dpsr.model, "_forward", lambda x, p, s: seen.append(x.data) or real(x, p, s))
    params = DpsrParams.init(small_config("mamba"), seed=0)
    cube = np.random.default_rng(4).random((3, 6, 4)).astype(np.float32)
    _, state = dpsr_step(cube[0], params, None)
    dpsr_step(cube[1:], params, state)
    assert np.shares_memory(seen[0], cube[0]) and np.shares_memory(seen[1], cube[1:])


@pytest.mark.parametrize("field, value", [
    ("bands", 0), ("bands", 2.5), ("bands", float("nan")), ("bands", "4"), ("n_clff", 0),
    ("ca_reduction", 1.5), ("bands", True),
])
def test_config_sizes_must_be_positive_integers(field, value):
    with pytest.raises(ContractError, match=field):
        DpsrConfig(**{"bands": 4, field: value})


def test_an_integral_float_config_size_passes_as_int():
    cfg = DpsrConfig(bands=2.0, features=8.0)
    assert (cfg.bands, cfg.features) == (2, 8)
    assert type(cfg.bands) is int and type(cfg.features) is int
    assert cfg == DpsrConfig(bands=2, features=8)


def test_the_container_header_holds_every_config_field():
    # a field left out would load back at its default
    assert sorted(HEADER_FIELDS) == sorted(f.name for f in dataclasses.fields(DpsrConfig))


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_each_caller_enters_the_memory_by_its_kind_and_role(monkeypatch, kind):
    calls = collections.Counter()
    for name in ("mamba_step", "causalconv_step", "mamba_scan", "causalconv_scan"):
        def count(*args, name=name, real=getattr(ssm, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ssm, name, count)
    cfg = small_config(kind)
    params = DpsrParams.init(cfg, seed=0)
    cube = np.random.default_rng(5).random((3, 5, 4)).astype(np.float32)
    dpsr_forward_image(cube, params)
    assert calls == {f"{kind}_scan": cfg.n_clff}
    calls.clear()
    dpsr_step(cube, params, None)
    assert calls == {f"{kind}_step": cfg.n_clff}
    calls.clear()
    profile(cfg, 5)
    assert calls == {f"{kind}_step": cfg.n_clff}
