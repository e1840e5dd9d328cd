"""Hyperspectral cube container, bicubic decimation, synthetic scenes.

Cubes are (H, W, C) float32 in [0, 1] with a per-band validity mask. On
disk they are stored band-interleaved-by-line (BIL): for each line, for
each band, W samples — one acquisition line is one contiguous record, the
natural unit for a pushbroom stream.
"""

import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (ContractError, FormatError, ShapeError, check_non_negative, check_size,
                     positive_int, read_exact, read_into, seed_int)

CUBE_MAGIC = b"HSC1"
CUBE_VERSION = 1
_FLAG_MASK = 0x01


@dataclass
class HsiCube:
    data: np.ndarray                    # (H, W, C) float32
    band_valid: np.ndarray = field(default=None)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 3 or 0 in self.data.shape:
            raise ContractError(f"cube must be a non-empty (H, W, C), got {self.data.shape}")
        if self.band_valid is None:
            self.band_valid = np.ones(self.data.shape[2], dtype=bool)
        else:
            self.band_valid = np.asarray(self.band_valid, dtype=bool)
            if self.band_valid.shape != (self.data.shape[2],):
                raise ContractError("band_valid length must equal the band count")

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def bands(self):
        return self.data.shape[2]

    def line(self, y):
        """One acquisition line as a contiguous (W, C) view."""
        return self.data[y]


class CubeReader:
    """An open `HSC1` file, read one acquisition line at a time.

    Opening checks the header, and that the file holds exactly the records
    the header declares, so a truncated file fails before any line is read.
    Iterating yields each line as a new (W, C) float32 array, first line
    first, from one reused (C, W) record buffer; each pass starts again at
    the first line. Use it as a context manager, which closes the file.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def _read_header(self):
        fh = self._fh
        magic = read_exact(fh, 4, "magic")
        if magic != CUBE_MAGIC:
            raise FormatError(f"bad magic {magic!r}; not a cube file")
        version, = struct.unpack("<H", read_exact(fh, 2, "version"))
        if version != CUBE_VERSION:
            raise FormatError(f"unsupported cube version {version}")
        h, w, c = struct.unpack("<3I", read_exact(fh, 12, "extents"))
        if 0 in (h, w, c):
            raise FormatError(f"empty cube extents {h}x{w}x{c}")
        flags, = struct.unpack("<B", read_exact(fh, 1, "flags"))
        if flags & ~_FLAG_MASK:
            raise FormatError(f"unknown cube flags 0x{flags:02x}")
        need = (c if flags else 0) + 4 * h * w * c
        check_size(fh, need, "cube header")
        if os.fstat(fh.fileno()).st_size - fh.tell() > need:
            raise FormatError("trailing bytes after the payload")
        band_valid = np.ones(c, dtype=bool)
        if flags:
            mask = np.frombuffer(read_exact(fh, c, "band mask"), dtype=np.uint8)
            if (mask > 1).any():
                raise FormatError("band mask bytes must be 0 or 1")
            band_valid = mask.astype(bool)
        self.height, self.width, self.bands = h, w, c
        self.band_valid = band_valid
        self._first_record = fh.tell()

    def __iter__(self):
        self._fh.seek(self._first_record)
        record = np.empty((self.bands, self.width), dtype="<f4")
        for _ in range(self.height):
            read_into(self._fh, record, "the payload")
            yield record.T.astype(np.float32, order="C")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class CubeWriter:
    """Writes an `HSC1` file of a known (H, W, C) shape, lines as they come.

    Opening writes the header, so the height is fixed before the first
    line; `write` appends a (W, C) line or a (k, W, C) block of lines as
    (C, W) `<f4` records. Use it as a context manager: leaving the `with`
    block by an exception, or with fewer lines written than the header
    declares, removes the file (a regular file; a device is left as it
    is), so a failed run leaves no complete-looking cube behind.
    """

    def __init__(self, path, shape, band_valid=None):
        h, w, c = (positive_int(name, n) for name, n in zip(("height", "width", "bands"), shape))
        valid = np.ones(c, dtype=bool) if band_valid is None else np.asarray(band_valid, bool)
        if valid.shape != (c,):
            raise ContractError("band_valid length must equal the band count")
        self.path, self.shape, self.lines_written = path, (h, w, c), 0
        self._record = np.empty((c, w), dtype="<f4")
        flags = _FLAG_MASK if not valid.all() else 0
        self._fh = open(path, "wb")
        try:
            self._fh.write(CUBE_MAGIC + struct.pack("<H3IB", CUBE_VERSION, h, w, c, flags))
            if flags:
                self._fh.write(valid.astype(np.uint8).tobytes())
        except BaseException as e:
            self.__exit__(type(e), e, None)
            raise

    def write(self, lines):
        lines = np.asarray(lines)
        h, w, c = self.shape
        if lines.ndim not in (2, 3) or lines.shape[-2:] != (w, c):
            raise ShapeError(f"cube writer: expected ({w}, {c}) lines, got {lines.shape}")
        block = lines.reshape(-1, w, c)
        if self.lines_written + len(block) > h:
            raise ContractError(f"cube writer: more than the {h} lines the header declares")
        for line in block:
            self._record[...] = line.T
            self._fh.write(self._record)
        self.lines_written += len(block)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        regular = stat.S_ISREG(os.fstat(self._fh.fileno()).st_mode)
        self._fh.close()
        complete = self.lines_written == self.shape[0]
        if exc_type is None and complete:
            return
        if regular:
            os.remove(self.path)
        if exc_type is None:
            raise ContractError(f"cube writer: {self.lines_written} of the "
                                f"{self.shape[0]} lines the header declares were written")


def write_cube(cube, path):
    """Write the header, then one (C, W) `<f4` record per line."""
    with CubeWriter(path, cube.data.shape, cube.band_valid) as out:
        out.write(cube.data)


def read_cube(path):
    """Check the header and the file size, then read the cube line by line."""
    with CubeReader(path) as lines:
        data = np.empty((lines.height, lines.width, lines.bands), dtype=np.float32)
        for row, line in zip(data, lines):
            row[...] = line
    return HsiCube(data=data, band_valid=lines.band_valid)


# ---------------------------------------------------------------------------
# bicubic decimation (Catmull-Rom, a = -0.5, half-pixel phase)


def catmull_rom(t):
    """Catmull-Rom cubic kernel (a = -0.5), support (-2, 2)."""
    t = np.abs(t)
    return np.where(t <= 1.0, (1.5 * t - 2.5) * t * t + 1.0,
                    np.where(t < 2.0, ((-0.5 * t + 2.5) * t - 4.0) * t + 2.0, 0.0))


def _reflect_index(i, n):
    """Half-sample symmetric reflection into [0, n)."""
    if n == 1:
        return np.zeros_like(i)
    period = 2 * n
    i = np.mod(i, period)
    return np.where(i >= n, period - 1 - i, i)


def resample_matrix(n_in, factor):
    """Dense antialiased decimation operator (n_in // factor, n_in) for one axis.

    Output sample o is taken at input coordinate (o+0.5)*factor-0.5 with the
    kernel stretched by the factor and the weights renormalized (the standard
    antialiased convention). Boundaries reflect symmetrically.

    Built in one pass over an (n_out, 4*factor + 1) tap grid starting at each
    row's first tap inside the support: taps outside it get weight 0 from the
    kernel, so the fixed width is exact. Reflected taps that land on the same
    input sample are summed by one scatter, in tap order within each row.
    """
    r = int(factor)
    n_out = n_in // r
    centers = (np.arange(n_out) + 0.5) * r - 0.5
    taps = np.ceil(centers - 2 * r).astype(np.int64)[:, None] + np.arange(4 * r + 1)
    wts = catmull_rom((centers[:, None] - taps) / r)
    wts /= wts.sum(axis=1, keepdims=True)
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    np.add.at(mat, (np.arange(n_out)[:, None], _reflect_index(taps, n_in)), wts)
    return mat


def bicubic_downsample(cube, r):
    """Antialiased bicubic decimation by an integer factor, per band.

    The separable operator runs as two float64 GEMMs: the along-track one
    over (H, W*C), then the across-track one batched over output lines.
    """
    r = positive_int("factor", r)
    h, w, c = cube.data.shape
    if h % r or w % r:
        raise ContractError(f"extents {h}x{w} not divisible by factor {r}")
    my = resample_matrix(h, r)
    mx = my if w == h else resample_matrix(w, r)
    t = my @ cube.data.reshape(h, w * c).astype(np.float64)
    out = np.matmul(mx, t.reshape(h // r, w, c))
    return HsiCube(data=np.clip(out, 0.0, 1.0).astype(np.float32),
                   band_valid=cube.band_valid.copy())


# ---------------------------------------------------------------------------
# synthetic scenes

SYNTH_RANK = 3          # endmembers mixed per scene
SYNTH_CONTRAST = 2.0    # softmax sharpness of the abundance fields
SYNTH_SMOOTHNESS = 3.0  # default Gaussian blur sigma of the abundance fields, in px


def _band_limited_field(rng, h, w, smoothness):
    """Zero-mean Gaussian random field, low-passed in the Fourier domain."""
    noise = rng.standard_normal((h, w))
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    lowpass = np.exp(-2.0 * (np.pi * smoothness) ** 2 * (fy ** 2 + fx ** 2))
    fld = np.fft.ifft2(np.fft.fft2(noise) * lowpass).real
    sd = fld.std()
    return fld / sd if sd > 0 else fld


def _endmember_spectra(rng, rank, bands):
    """Smooth positive spectra in [0.1, 0.9], one per endmember."""
    c = np.linspace(0.0, 1.0, bands)
    spectra = np.empty((rank, bands))
    for e in range(rank):
        amp = rng.uniform(0.3, 1.0, size=3)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        freq = rng.uniform(0.5, 2.5, size=3)
        curve = sum(a * np.sin(2 * np.pi * f * c + p)
                    for a, f, p in zip(amp, freq, phase))
        lo, hi = curve.min(), curve.max()
        span = hi - lo if hi > lo else 1.0
        spectra[e] = 0.1 + 0.8 * (curve - lo) / span
    return spectra


def make_synthetic(seed, height, width, bands, smoothness=SYNTH_SMOOTHNESS):
    """Deterministic synthetic scene: low-rank endmember mixing over
    band-limited abundance fields, clipped to [0, 1].

    ContractError, naming the argument, unless `seed` is an integer >= 0,
    `height`, `width` and `bands` are integers > 0 and `smoothness` is
    finite and >= 0.
    """
    seed = seed_int(seed)
    height = positive_int("height", height)
    width = positive_int("width", width)
    bands = positive_int("bands", bands)
    check_non_negative("smoothness", smoothness)
    rng = np.random.default_rng(seed)
    spectra = _endmember_spectra(rng, SYNTH_RANK, bands)
    fields = np.stack([_band_limited_field(rng, height, width, smoothness)
                       for _ in range(SYNTH_RANK)])
    logits = SYNTH_CONTRAST * fields
    logits -= logits.max(axis=0, keepdims=True)
    ab = np.exp(logits)
    ab /= ab.sum(axis=0, keepdims=True)
    cube = np.einsum("ehw,ec->hwc", ab, spectra, optimize=True)
    return HsiCube(data=np.clip(cube, 0.0, 1.0).astype(np.float32))


# ---------------------------------------------------------------------------
# patches and augmentation


def dihedral_views(arr):
    """The 8 dihedral images of an (H, W, C) array as read-only views.

    Order: flip outer (none, then axis 1), rot90 k = 0..3 in the (0, 1)
    plane inner. No data is copied; the input's last axis is untouched.
    """
    out = []
    for base in (arr, np.flip(arr, axis=1)):
        for k in range(4):
            view = np.rot90(base, k, axes=(0, 1))
            view.flags.writeable = False
            out.append(view)
    return out


def augment8(cube):
    """4 spatial rotations x 2 horizontal flips as contiguous copies, in
    `dihedral_views` order; spectra untouched."""
    if cube.height != cube.width:
        raise ContractError(
            f"augment8 needs a square patch, got {cube.height}x{cube.width}")
    return [HsiCube(data=view.copy(), band_valid=cube.band_valid.copy())
            for view in dihedral_views(cube.data)]


def extract_patches(cube, size):
    """Non-overlapping square spatial patches."""
    out = []
    for y in range(0, cube.height - size + 1, size):
        for x in range(0, cube.width - size + 1, size):
            out.append(HsiCube(data=cube.data[y:y + size, x:x + size].copy(),
                               band_valid=cube.band_valid.copy()))
    return out
