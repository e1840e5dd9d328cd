"""Channel-wise quality metrics and the line-discard evaluation protocol.

The streamed prediction never contains the last r high-res lines of the
scene (they would need a line acquired after the end of the image), so the
reference is cropped to match before any metric is computed. Bands flagged
invalid on either cube are excluded everywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, positive_int

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
DATA_RANGE = 1.0


@dataclass
class EvalReport:
    mpsnr_db: float
    mssim: float
    sam_deg: float
    rmse: float
    psnr_per_band: np.ndarray   # NaN for invalid bands
    ssim_per_band: np.ndarray
    bands_used: int
    lines_discarded: int
    sam_pixels_skipped: int

    def row(self, dataset="", config="", scale=0):
        cells = [dataset, config, str(scale),
                 f"{self.mpsnr_db:.4f}", f"{self.mssim:.6f}",
                 f"{self.sam_deg:.4f}", f"{self.rmse:.6f}",
                 str(self.bands_used), str(self.lines_discarded),
                 str(self.sam_pixels_skipped)]
        return ",".join(cells)

    @staticmethod
    def header():
        return ("dataset,config,scale,mpsnr_db,mssim,sam_deg,rmse,"
                "bands_used,lines_discarded,sam_skipped")

    def __str__(self):
        return (f"MPSNR {self.mpsnr_db:.2f} dB | MSSIM {self.mssim:.4f} | "
                f"SAM {self.sam_deg:.4f} deg | RMSE {self.rmse:.6f} "
                f"({self.bands_used} bands, {self.lines_discarded} lines discarded)")


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    w = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return w / w.sum()


def _windowed(img, k1d):
    """Separable 'valid' correlation with a 1D window along both axes."""
    v = np.lib.stride_tricks.sliding_window_view(img, len(k1d), axis=0)
    v = v @ k1d
    v = np.lib.stride_tricks.sliding_window_view(v, len(k1d), axis=1)
    return v @ k1d


def ssim_band(a, b):
    """Mean SSIM of one band (Gaussian 11x11 window, data range 1)."""
    if min(a.shape) < SSIM_WINDOW:
        raise ContractError(
            f"band extent {a.shape} smaller than the {SSIM_WINDOW}-px SSIM window")
    k = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    mu_a = _windowed(a, k)
    mu_b = _windowed(b, k)
    var_a = _windowed(a * a, k) - mu_a * mu_a
    var_b = _windowed(b * b, k) - mu_b * mu_b
    cov = _windowed(a * b, k) - mu_a * mu_b
    c1 = (SSIM_K1 * DATA_RANGE) ** 2
    c2 = (SSIM_K2 * DATA_RANGE) ** 2
    s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2) /
         ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)))
    return float(s.mean())


def psnr_band(a, b):
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse <= 10.0 ** (-PSNR_CAP_DB / 10.0) * DATA_RANGE ** 2:
        return PSNR_CAP_DB
    return 10.0 * np.log10(DATA_RANGE ** 2 / mse)


def sam_degrees(pred, ref):
    """Mean spectral angle over pixels; zero-norm pixels are skipped.

    pred/ref: (.., C) arrays restricted to valid bands. Returns
    (mean angle in degrees, number of skipped pixels). The angle between
    unit spectra u, v is 2*atan2(|u - v|, |u + v|), which is exactly 0 for
    identical spectra and keeps full precision at small angles, where
    arccos of a rounded cosine does neither.
    """
    p = pred.reshape(-1, pred.shape[-1]).astype(np.float64)
    t = ref.reshape(-1, ref.shape[-1]).astype(np.float64)
    pn = np.linalg.norm(p, axis=1)
    tn = np.linalg.norm(t, axis=1)
    ok = (pn > 0) & (tn > 0)
    skipped = int((~ok).sum())
    if not ok.any():
        return 0.0, skipped
    if not ok.all():
        p, t, pn, tn = p[ok], t[ok], pn[ok], tn[ok]
    # in place on the float64 copies: no more pixel-by-band arrays live at once
    # than the two inputs, their sum and its square
    p /= pn[:, None]
    t /= tn[:, None]
    across = np.linalg.norm(p + t, axis=1)
    p -= t
    ang = 2.0 * np.arctan2(np.linalg.norm(p, axis=1), across)
    return float(np.degrees(ang).mean()), skipped


def evaluate(pred, ref, r):
    """Score a raw streamed prediction against the full ground truth.

    pred must have exactly r fewer lines than ref: the streamed output
    starts at high-res line 0 and simply never covers the last r lines, so
    alignment just crops the reference tail.
    """
    r = positive_int("r", r)
    if pred.height + r != ref.height:
        raise ContractError(
            f"prediction has {pred.height} lines; expected {ref.height - r} "
            f"(reference {ref.height} minus {r} discarded)")
    if pred.width != ref.width or pred.bands != ref.bands:
        raise ContractError(
            f"prediction {pred.data.shape} vs reference {ref.data.shape}")
    valid = pred.band_valid & ref.band_valid
    if not valid.any():
        raise ContractError("no valid bands in common")
    p = pred.data
    t = ref.data[:pred.height]

    bands = p.shape[2]
    psnr = np.full(bands, np.nan)
    ssim = np.full(bands, np.nan)
    for c in np.flatnonzero(valid):
        psnr[c] = psnr_band(p[:, :, c], t[:, :, c])
        ssim[c] = ssim_band(p[:, :, c], t[:, :, c])
    sam, skipped = sam_degrees(p[:, :, valid], t[:, :, valid])
    diff = p[:, :, valid].astype(np.float64) - t[:, :, valid].astype(np.float64)
    rmse = float(np.sqrt(np.mean(diff ** 2)))
    return EvalReport(
        mpsnr_db=float(np.nanmean(psnr)),
        mssim=float(np.nanmean(ssim)),
        sam_deg=sam,
        rmse=rmse,
        psnr_per_band=psnr,
        ssim_per_band=ssim,
        bands_used=int(valid.sum()),
        lines_discarded=r,
        sam_pixels_skipped=skipped,
    )
