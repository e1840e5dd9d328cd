"""The frozen HSC1 cube container and the bicubic decimation."""

import struct

import numpy as np
import pytest

from dpsr.dataio import HsiCube, bicubic_downsample, read_cube, write_cube
from dpsr.errors import ContractError, FormatError, positive_int


def cube(shape=(5, 7, 3), seed=0, band_valid=None):
    data = np.random.default_rng(seed).random(shape).astype(np.float32)
    return HsiCube(data=data, band_valid=band_valid)


@pytest.mark.parametrize("band_valid", [None, [True, False, True]],
                         ids=["no-mask", "mask"])
def test_cube_round_trip_is_bit_exact(tmp_path, band_valid):
    src = cube(band_valid=band_valid)
    path = tmp_path / "c.hsc"
    write_cube(src, path)
    got = read_cube(path)
    assert got.data.dtype == np.float32 and np.array_equal(got.data, src.data)
    assert np.array_equal(got.band_valid, src.band_valid)
    # header (22 B), the mask only when some band is invalid, then BIL float32
    mask_bytes = 0 if band_valid is None else 3
    raw = path.read_bytes()
    assert len(raw) == 4 + 2 + 12 + 1 + mask_bytes + 4 * src.data.size
    assert raw[19 + mask_bytes:] == src.data.transpose(0, 2, 1).astype("<f4").tobytes()
    write_cube(got, tmp_path / "again.hsc")
    assert (tmp_path / "again.hsc").read_bytes() == raw


@pytest.mark.parametrize("corrupt", [
    lambda b: b"HSC2" + b[4:],                       # bad magic
    lambda b: b[:4] + struct.pack("<H", 2) + b[6:],  # bad version
    lambda b: b[:-1],                                # truncated payload
    lambda b: b[:10],                                # truncated extents
    lambda b: b + b"\x00",                           # one trailing byte
    lambda b: b[:6] + struct.pack("<3I", 0xFFFFFFFF, 0xFFFFFFFF, 3) + b[18:],  # huge extents
    lambda b: b[:6] + struct.pack("<3I", 5, 7, 0xFFFFFFFF) + b[18:],  # huge band mask
    lambda b: b[:6] + struct.pack("<3IB", 0, 7, 0xFFFFFFFF, 0),         # no lines, huge bands
], ids=["magic", "version", "truncated", "truncated-header", "trailing", "huge-extents",
        "huge-bands", "empty-huge-bands"])
def test_corrupt_cube_raises_format_error(tmp_path, corrupt):
    path = tmp_path / "c.hsc"
    write_cube(cube(band_valid=[True, False, True]), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError):
        read_cube(path)


def _catmull_rom(t):
    t = abs(t)
    if t <= 1:
        return 1.5 * t ** 3 - 2.5 * t ** 2 + 1
    if t < 2:
        return -0.5 * t ** 3 + 2.5 * t ** 2 - 4 * t + 2
    return 0.0


def _reflect(i, n):
    """Half-sample symmetric: ... 1 0 | 0 1 .. n-1 | n-1 n-2 ..."""
    while not 0 <= i < n:
        i = -1 - i if i < 0 else 2 * n - 1 - i
    return i


def _taps(o, r, n):
    """(source index, normalized weight) pairs of output sample o on one axis:
    the kernel stretched by r, centred on input coordinate (o + 0.5) r - 0.5."""
    x = (o + 0.5) * r - 0.5
    taps = range(int(np.ceil(x - 2 * r)), int(np.floor(x + 2 * r)) + 1)
    wts = [_catmull_rom((x - t) / r) for t in taps]
    total = sum(wts)
    return [(_reflect(t, n), w / total) for t, w in zip(taps, wts)]


def _oracle(data, r):
    h, w, c = data.shape
    src = data.astype(np.float64)
    out = np.zeros((h // r, w // r, c))
    for oy in range(h // r):
        for ox in range(w // r):
            for iy, wy in _taps(oy, r, h):
                for ix, wx in _taps(ox, r, w):
                    out[oy, ox] += wy * wx * src[iy, ix]
    return np.clip(out, 0.0, 1.0).astype(np.float32)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("out_extent", [(6, 9), (1, 2)])
def test_bicubic_downsample_matches_direct_catmull_rom_sum(r, out_extent):
    h, w = out_extent[0] * r, out_extent[1] * r
    src = cube((h, w, 3), seed=r, band_valid=[True, True, False])
    got = bicubic_downsample(src, r)
    assert got.data.shape == (h // r, w // r, 3)
    assert np.array_equal(got.band_valid, src.band_valid)
    assert np.max(np.abs(got.data.astype(np.float64) - _oracle(src.data, r))) <= 1e-12


@pytest.mark.parametrize("factor", [0.5, 2.5, float("inf")])
def test_fractional_factor_is_rejected(factor):
    # 0.5 used to truncate to 0 (ZeroDivisionError), 2.5 to 2 (a silent run)
    with pytest.raises(ContractError, match="factor must be an integer"):
        bicubic_downsample(HsiCube(np.zeros((4, 4, 1))), factor)


def test_integral_factor_passes_as_int():
    assert positive_int("factor", 2.0) == 2 and type(positive_int("factor", np.int64(3))) is int
    assert bicubic_downsample(cube((4, 6, 2)), 2.0).data.shape == (2, 3, 2)
