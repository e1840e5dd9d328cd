"""The frozen HSC1 cube container, the bicubic decimation, patches and augmentation."""

import struct

import numpy as np
import pytest

from dpsr.dataio import (CubeReader, CubeWriter, HsiCube, augment8, bicubic_downsample,
                         catmull_rom, dihedral_views, extract_patches, make_synthetic,
                         read_cube, resample_matrix, write_cube)
from dpsr.errors import ContractError, FormatError, ShapeError, positive_int


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


@pytest.mark.parametrize("band_valid", [None, [True, False, True]],
                         ids=["no-mask", "mask"])
def test_cube_matches_a_struct_packed_bil_reference(tmp_path, band_valid):
    src = cube(shape=(4, 5, 3), band_valid=band_valid)
    h, w, c = src.data.shape
    ref = b"HSC1" + struct.pack("<H3IB", 1, h, w, c, band_valid is not None)
    if band_valid is not None:
        ref += bytes(band_valid)
    for y in range(h):
        for b in range(c):
            ref += struct.pack(f"<{w}f", *(src.data[y, x, b] for x in range(w)))
    write_cube(src, tmp_path / "c.hsc")
    assert (tmp_path / "c.hsc").read_bytes() == ref
    (tmp_path / "ref.hsc").write_bytes(ref)
    got = read_cube(tmp_path / "ref.hsc")
    assert np.array_equal(got.data, src.data)
    assert np.array_equal(got.band_valid, src.band_valid)


CORRUPTIONS = pytest.mark.parametrize("corrupt", [
    lambda b: b"HSC2" + b[4:],                       # bad magic
    lambda b: b[:4] + struct.pack("<H", 2) + b[6:],  # bad version
    lambda b: b[:-1],                                # truncated payload
    lambda b: b[:10],                                # truncated extents
    lambda b: b + b"\x00",                           # one trailing byte
    lambda b: b[:6] + struct.pack("<3I", 0xFFFFFFFF, 0xFFFFFFFF, 3) + b[18:],  # huge extents
    lambda b: b[:6] + struct.pack("<3I", 5, 7, 0xFFFFFFFF) + b[18:],  # huge band mask
    lambda b: b[:6] + struct.pack("<3IB", 0, 7, 0xFFFFFFFF, 0),         # no lines, huge bands
    lambda b: b[:18] + b"\x07" + b[19:],            # flag bits besides the mask's
    lambda b: b[:19] + b"\x02" + b[20:],            # band-mask byte neither 0 nor 1
], ids=["magic", "version", "truncated", "truncated-header", "trailing", "huge-extents",
        "huge-bands", "empty-huge-bands", "unknown-flags", "mask-byte"])


@CORRUPTIONS
def test_corrupt_cube_raises_format_error(tmp_path, corrupt):
    path = tmp_path / "c.hsc"
    write_cube(cube(band_valid=[True, False, True]), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError):
        read_cube(path)


@CORRUPTIONS
def test_the_line_reader_rejects_a_corrupt_cube_before_any_line(tmp_path, corrupt):
    # a stream must not run lines of a file that turns out truncated or too long
    path = tmp_path / "c.hsc"
    write_cube(cube(band_valid=[True, False, True]), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError):
        CubeReader(path)


def test_the_line_reader_and_writer_match_read_cube_and_write_cube(tmp_path):
    src = cube(shape=(6, 7, 3), band_valid=[True, False, True])
    write_cube(src, tmp_path / "whole.hsc")
    with CubeWriter(tmp_path / "lines.hsc", src.data.shape, src.band_valid) as out:
        out.write(src.data[0])                       # a line, then blocks of lines
        out.write(src.data[1:3])
        out.write(src.data[3:])
    assert (tmp_path / "lines.hsc").read_bytes() == (tmp_path / "whole.hsc").read_bytes()
    with CubeReader(tmp_path / "whole.hsc") as reader:
        assert (reader.height, reader.width, reader.bands) == src.data.shape
        assert np.array_equal(reader.band_valid, src.band_valid)
        lines = list(reader)
    assert all(line.dtype == np.float32 and line.flags.c_contiguous for line in lines)
    assert not np.shares_memory(lines[0], lines[1])  # each line is its own array
    assert np.array_equal(np.stack(lines), read_cube(tmp_path / "whole.hsc").data)


@pytest.mark.parametrize("band_valid", [None, [True, False]], ids=["no-mask", "mask"])
def test_a_second_pass_over_a_reader_yields_the_same_lines(tmp_path, band_valid):
    write_cube(cube(shape=(4, 3, 2), band_valid=band_valid), tmp_path / "c.hsc")
    with CubeReader(tmp_path / "c.hsc") as reader:
        first, second = list(reader), list(reader)
    assert len(first) == 4 and np.array_equal(np.stack(first), np.stack(second))


def test_a_failed_or_short_write_leaves_no_cube(tmp_path):
    path = tmp_path / "c.hsc"
    with pytest.raises(ZeroDivisionError):
        with CubeWriter(path, (4, 3, 2)) as out:
            out.write(np.zeros((2, 3, 2)))
            1 / 0
    assert not path.exists()
    with pytest.raises(ContractError, match="3 of the 4 lines"):
        with CubeWriter(path, (4, 3, 2)) as out:
            out.write(np.zeros((3, 3, 2)))
    assert not path.exists()
    with pytest.raises(ContractError, match="more than the 4 lines"):
        with CubeWriter(path, (4, 3, 2)) as out:
            out.write(np.zeros((5, 3, 2)))
    with pytest.raises(ShapeError):
        with CubeWriter(path, (4, 3, 2)) as out:
            out.write(np.zeros((3, 3)))
    assert not path.exists()
    with pytest.raises(ContractError, match="height"):
        CubeWriter(path, (0, 3, 2))
    assert not path.exists()


def test_a_reader_names_a_file_cut_short_after_it_opened(tmp_path):
    # 16 KB of records, twice the reader's 8 KB buffer, so the cut lines are read from disk
    path = tmp_path / "c.hsc"
    write_cube(cube(shape=(8, 64, 8)), path)
    with CubeReader(path) as reader:
        with open(path, "r+b") as fh:
            fh.truncate(19 + 5 * 64 * 8 * 4 + 100)     # header, 5 whole records and a part
        lines = []
        with pytest.raises(FormatError, match="^truncated file while reading the payload$"):
            for line in reader:
                lines.append(line)
    assert len(lines) == 5


@pytest.mark.parametrize("make", [
    lambda path: HsiCube(np.zeros((2, 2, 3)), band_valid=[True, False]),
    lambda path: CubeWriter(path, (2, 2, 3), band_valid=[True]),
], ids=["cube", "writer"])
def test_a_band_mask_of_another_length_is_rejected(tmp_path, make):
    with pytest.raises(ContractError, match="^band_valid length must equal the band count$"):
        make(tmp_path / "c.hsc")
    assert not (tmp_path / "c.hsc").exists()


def test_bicubic_downsample_rejects_extents_the_factor_does_not_divide():
    with pytest.raises(ContractError, match="^extents 6x8 not divisible by factor 4$"):
        bicubic_downsample(HsiCube(np.zeros((6, 8, 1))), 4)


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
@pytest.mark.parametrize("out_extent", [(6, 9), (1, 2), (16, 12)])
def test_bicubic_downsample_matches_direct_catmull_rom_sum(r, out_extent):
    h, w = out_extent[0] * r, out_extent[1] * r
    src = cube((h, w, 3), seed=r, band_valid=[True, True, False])
    got = bicubic_downsample(src, r)
    assert got.data.shape == (h // r, w // r, 3)
    assert np.array_equal(got.band_valid, src.band_valid)
    assert np.max(np.abs(got.data.astype(np.float64) - _oracle(src.data, r))) <= 1e-12


def _loop_matrix(n, r):
    """The decimation operator built one output row at a time, each row's
    taps from its own support and summed in tap order."""
    mat = np.zeros((n // r, n))
    for o in range(n // r):
        x = (o + 0.5) * r - 0.5
        taps = np.arange(int(np.ceil(x - 2 * r)), int(np.floor(x + 2 * r)) + 1)
        wts = catmull_rom((x - taps) / r)
        wts = wts / wts.sum()
        for t, w in zip(taps, wts):
            mat[o, _reflect(t, n)] += w
    return mat


@pytest.mark.parametrize("n, r", [(128, 4), (111, 3), (20, 2), (7, 7), (8, 1)])
def test_resample_matrix_rows_sum_to_one_and_mirror(n, r):
    mat = resample_matrix(n, r)
    assert mat.shape == (n // r, n)
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-15
    # the centres (o + 0.5) r - 0.5 mirror about (n - 1) / 2, and so does the reflection
    assert np.max(np.abs(mat[::-1, ::-1] - mat)) <= 1e-15


@pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (8, 1), (4, 2), (6, 2), (3, 3), (9, 3),
                                  (4, 4), (12, 4), (5, 5), (7, 7)])
def test_resample_matrix_equals_a_per_row_loop(n, r):
    # n < 4r: a row's taps reflect more than once off both borders
    mat = resample_matrix(n, r)
    assert np.array_equal(mat, _loop_matrix(n, r))
    if r == 1:
        assert np.array_equal(mat, np.eye(n))


@pytest.mark.parametrize("factor", [0.5, 2.5, float("inf")])
def test_fractional_factor_is_rejected(factor):
    # 0.5 used to truncate to 0 (ZeroDivisionError), 2.5 to 2 (a silent run)
    with pytest.raises(ContractError, match="factor must be an integer"):
        bicubic_downsample(HsiCube(np.zeros((4, 4, 1))), factor)


def test_integral_factor_passes_as_int():
    assert positive_int("factor", 2.0) == 2 and type(positive_int("factor", np.int64(3))) is int
    assert bicubic_downsample(cube((4, 6, 2)), 2.0).data.shape == (2, 3, 2)


# the frozen augmentation order: flip outer (none, then axis 1), rot90 k = 0..3 inner
DIHEDRAL = [(flip, k) for flip in (False, True) for k in range(4)]


def dihedral_oracle(a, flip, k):
    return np.rot90(np.flip(a, axis=1) if flip else a, k, axes=(0, 1))


def test_dihedral_views_are_the_eight_images_in_the_frozen_order():
    a = cube((5, 5, 3), seed=4).data
    views = dihedral_views(a)
    assert len(views) == 8
    for view, (flip, k) in zip(views, DIHEDRAL):
        assert np.array_equal(view, dihedral_oracle(a, flip, k))
    # a generic patch has no symmetry, so its 8 images are distinct
    flat = {v.tobytes() for v in views}
    assert len(flat) == 8


def test_dihedral_views_are_read_only_views_and_leave_the_input_writable():
    a = cube((4, 4, 2), seed=5).data
    for view in dihedral_views(a):
        assert view.base is not None and np.shares_memory(view, a)
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 1.0
    assert a.flags.writeable


def test_augment8_is_contiguous_writable_copies_in_the_frozen_order():
    src = cube((6, 6, 3), seed=6, band_valid=[True, False, True])
    out = augment8(src)
    assert len(out) == 8
    for aug, (flip, k) in zip(out, DIHEDRAL):
        assert np.array_equal(aug.data, dihedral_oracle(src.data, flip, k))
        assert aug.data.flags.c_contiguous and aug.data.flags.writeable
        assert not np.shares_memory(aug.data, src.data)
        assert np.array_equal(aug.band_valid, src.band_valid)
        assert not np.shares_memory(aug.band_valid, src.band_valid)


def test_augment8_rejects_a_non_square_patch():
    with pytest.raises(ContractError, match="square patch, got 4x6"):
        augment8(cube((4, 6, 2)))


def test_extract_patches_tiles_row_major_and_drops_the_remainder():
    src = cube((7, 10, 2), seed=7, band_valid=[False, True])
    patches = extract_patches(src, 3)
    # 2 rows x 3 columns of 3x3 tiles; the last line and column are dropped
    corners = [(y, x) for y in (0, 3) for x in (0, 3, 6)]
    assert len(patches) == len(corners)
    for p, (y, x) in zip(patches, corners):
        assert np.array_equal(p.data, src.data[y:y + 3, x:x + 3])
        assert not np.shares_memory(p.data, src.data)
        assert np.array_equal(p.band_valid, src.band_valid)


@pytest.mark.parametrize("args, name", [
    ((-1, 8, 8, 3), "seed"), ((2.5, 8, 8, 3), "seed"),
    ((0, 0, 8, 3), "height"), ((0, 2.5, 8, 3), "height"),
    ((0, 8, 0, 3), "width"), ((0, 8, 8, 0), "bands"),
    ((0, 8, 8, 3, float("nan")), "smoothness"), ((0, 8, 8, 3, -1.0), "smoothness"),
    ((0, 8, 8, 3, "3"), "smoothness"),
], ids=lambda v: repr(v) if isinstance(v, tuple) else v)
def test_make_synthetic_names_each_bad_argument(args, name):
    # at sizes of 0 or 2.5 NumPy raised ZeroDivisionError or TypeError
    with pytest.raises(ContractError, match=name):
        make_synthetic(*args)


def test_make_synthetic_takes_integral_floats_as_ints():
    got = make_synthetic(3.0, 8.0, 6.0, 3.0).data
    assert got.tobytes() == make_synthetic(3, 8, 6, 3).data.tobytes()


@pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (4, 4, 0)])
def test_an_empty_cube_is_rejected_before_it_can_be_written(shape):
    # write_cube wrote these, and read_cube refused the file with FormatError
    with pytest.raises(ContractError, match="non-empty"):
        HsiCube(np.zeros(shape))
