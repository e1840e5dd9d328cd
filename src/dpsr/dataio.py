"""Hyperspectral cube container, bicubic decimation, synthetic scenes.

Cubes are (H, W, C) float32 in [0, 1] with a per-band validity mask. On
disk they are stored band-interleaved-by-line (BIL): for each line, for
each band, W samples — one acquisition line is one contiguous record, the
natural unit for a pushbroom stream.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, FormatError, check_size, positive_int, read_exact

CUBE_MAGIC = b"HSC1"
CUBE_VERSION = 1
_FLAG_MASK = 0x01


@dataclass
class HsiCube:
    data: np.ndarray                    # (H, W, C) float32
    band_valid: np.ndarray = field(default=None)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ContractError(f"cube must be (H, W, C), got {self.data.shape}")
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


def write_cube(cube, path):
    h, w, c = cube.data.shape
    flags = _FLAG_MASK if not cube.band_valid.all() else 0
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(struct.pack("<H", CUBE_VERSION))
        fh.write(struct.pack("<3I", h, w, c))
        fh.write(struct.pack("<B", flags))
        if flags & _FLAG_MASK:
            fh.write(cube.band_valid.astype(np.uint8).tobytes())
        # BIL: per line, per band, W samples
        fh.write(cube.data.transpose(0, 2, 1).astype("<f4").tobytes())


def read_cube(path):
    with open(path, "rb") as fh:
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
        check_size(fh, (c if flags & _FLAG_MASK else 0) + 4 * h * w * c, "cube header")
        band_valid = np.ones(c, dtype=bool)
        if flags & _FLAG_MASK:
            band_valid = np.frombuffer(read_exact(fh, c, "band mask"),
                                       dtype=np.uint8).astype(bool)
        payload = read_exact(fh, 4 * h * w * c, "payload")
        if fh.read(1):
            raise FormatError("trailing bytes after the payload")
    data = np.frombuffer(payload, dtype="<f4").reshape(h, c, w).transpose(0, 2, 1)
    return HsiCube(data=data, band_valid=band_valid)


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


def make_synthetic(seed, height, width, bands, smoothness=3.0):
    """Deterministic synthetic scene: low-rank endmember mixing over
    band-limited abundance fields, clipped to [0, 1]."""
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


def augment8(cube):
    """4 spatial rotations x 2 horizontal flips; spectra untouched."""
    if cube.height != cube.width:
        raise ContractError(
            f"augment8 needs a square patch, got {cube.height}x{cube.width}")
    out = []
    for flip in (False, True):
        base = np.flip(cube.data, axis=1) if flip else cube.data
        for k in range(4):
            arr = np.rot90(base, k, axes=(0, 1))
            out.append(HsiCube(data=np.ascontiguousarray(arr),
                               band_valid=cube.band_valid.copy()))
    return out


def extract_patches(cube, size):
    """Non-overlapping square spatial patches."""
    out = []
    for y in range(0, cube.height - size + 1, size):
        for x in range(0, cube.width - size + 1, size):
            out.append(HsiCube(data=cube.data[y:y + size, x:x + size].copy(),
                               band_valid=cube.band_valid.copy()))
    return out
