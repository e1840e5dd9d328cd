"""Quality metrics against direct oracles, and the evaluation protocol."""

import numpy as np
import pytest

from dpsr.dataio import HsiCube
from dpsr.errors import ContractError
from dpsr import metrics
from dpsr.metrics import evaluate


@pytest.mark.parametrize("r", [2.5, 0.5])
def test_fractional_factor_is_rejected(r):
    # 2.5 used to score with lines_discarded=2, 0.5 to crop nothing
    ref = HsiCube(np.full((14, 12, 2), 0.5))
    pred = HsiCube(ref.data[:12])
    with pytest.raises(ContractError, match="r must be an integer"):
        evaluate(pred, ref, r)
    assert evaluate(pred, ref, 2.0).lines_discarded == 2


def ssim_oracle(a, b):
    """Mean SSIM written out window by window: the 2D Gaussian weights of
    every valid 11x11 window, its weighted means, variances and covariance."""
    x = np.arange(metrics.SSIM_WINDOW) - (metrics.SSIM_WINDOW - 1) / 2
    g = np.exp(-x * x / (2 * metrics.SSIM_SIGMA ** 2))
    k = np.outer(g, g) / np.outer(g, g).sum()
    c1 = (metrics.SSIM_K1 * metrics.DATA_RANGE) ** 2
    c2 = (metrics.SSIM_K2 * metrics.DATA_RANGE) ** 2
    n = metrics.SSIM_WINDOW
    scores = []
    for i in range(a.shape[0] - n + 1):
        for j in range(a.shape[1] - n + 1):
            wa, wb = a[i:i + n, j:j + n], b[i:i + n, j:j + n]
            ma, mb = (k * wa).sum(), (k * wb).sum()
            va, vb = (k * (wa - ma) ** 2).sum(), (k * (wb - mb) ** 2).sum()
            cov = (k * (wa - ma) * (wb - mb)).sum()
            scores.append((2 * ma * mb + c1) * (2 * cov + c2)
                          / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
    return np.mean(scores)


@pytest.mark.parametrize("shape", [(11, 11), (14, 17)])
def test_ssim_band_matches_a_per_window_oracle(shape):
    rng = np.random.default_rng(3)
    a = rng.random(shape)
    b = np.clip(a + 0.1 * rng.standard_normal(shape), 0, 1)
    got = metrics.ssim_band(a, b)
    assert got == pytest.approx(ssim_oracle(a, b), rel=1e-10, abs=0)
    assert 0 < got < 1
    assert metrics.ssim_band(a, a) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ContractError, match="SSIM window"):
        metrics.ssim_band(a[:10], b[:10])


def test_psnr_caps_identical_bands():
    a = np.random.default_rng(4).random((6, 5))
    assert metrics.psnr_band(a, a) == metrics.PSNR_CAP_DB == 100.0
    b = a + 0.01
    assert metrics.psnr_band(a, b) == pytest.approx(40.0, rel=1e-9)


def test_sam_skips_and_counts_zero_norm_pixels():
    pred = np.array([[[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]])
    ref = np.array([[[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]])
    # pixel 1 has a zero prediction, pixel 2 a zero reference
    angle, skipped = metrics.sam_degrees(pred, ref)
    assert skipped == 2
    assert angle == pytest.approx((90.0 + 0.0) / 2, abs=1e-12)
    assert metrics.sam_degrees(np.zeros((2, 3)), np.ones((2, 3))) == (0.0, 2)


@pytest.mark.parametrize("scale", [1.0, 3.5e-3])
def test_sam_keeps_full_precision_at_small_angles(scale):
    # arccos of cos(1e-6) loses about four digits: it read 9.9993e-7 rad
    theta = 1e-6
    # each pair is rotated by theta within a coordinate plane, so building
    # the spectra rounds nothing that moves the angle by more than 1e-16 of it
    c, s = np.cos(theta), np.sin(theta)
    ref = scale * np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    pred = scale * np.array([[c, s, 0.0], [0.0, 2.0 * s, 2.0 * c]])
    angle, skipped = metrics.sam_degrees(pred, ref)
    assert skipped == 0
    assert np.radians(angle) == pytest.approx(theta, rel=1e-12, abs=0)
    assert metrics.sam_degrees(pred, pred.copy()) == (0.0, 0)


def test_evaluate_crops_the_last_r_lines_and_drops_invalid_bands():
    rng = np.random.default_rng(5)
    r = 2
    ref = rng.uniform(0.1, 0.9, (14, 12, 3))
    pred = ref[:-r].copy()
    pred[..., 1] = 0.0                  # band 1 is wrong but flagged invalid
    ref[-r:] = 1.0                      # the lines the stream never produces
    report = evaluate(HsiCube(pred, band_valid=[True, False, True]), HsiCube(ref), r)
    assert report.lines_discarded == r
    assert report.bands_used == 2
    assert np.isnan(report.psnr_per_band[1]) and np.isnan(report.ssim_per_band[1])
    assert list(report.psnr_per_band[[0, 2]]) == [metrics.PSNR_CAP_DB] * 2
    assert report.mpsnr_db == metrics.PSNR_CAP_DB
    assert report.mssim == pytest.approx(1.0, rel=1e-12)
    assert (report.rmse, report.sam_pixels_skipped) == (0.0, 0)
    assert report.sam_deg == 0.0
    # the same band flagged on the reference only is dropped too
    report = evaluate(HsiCube(pred), HsiCube(ref, band_valid=[True, False, True]), r)
    assert report.bands_used == 2 and report.rmse == 0.0
    # all bands valid: band 1's error counts
    assert evaluate(HsiCube(pred), HsiCube(ref), r).rmse > 0


@pytest.mark.parametrize("pred_shape, pred_valid, match", [
    ((11, 12, 3), None,
     r"^prediction has 11 lines; expected 12 \(reference 14 minus 2 discarded\)$"),
    ((12, 10, 3), None, r"^prediction \(12, 10, 3\) vs reference \(14, 12, 3\)$"),
    ((12, 12, 2), None, r"^prediction \(12, 12, 2\) vs reference \(14, 12, 3\)$"),
    ((12, 12, 3), [False, True, False], "^no valid bands in common$"),
], ids=["height", "width", "bands", "no-common-band"])
def test_evaluate_rejects_a_prediction_that_does_not_align(pred_shape, pred_valid, match):
    ref = HsiCube(np.full((14, 12, 3), 0.5), band_valid=[True, False, True])
    with pytest.raises(ContractError, match=match):
        evaluate(HsiCube(np.full(pred_shape, 0.5), band_valid=pred_valid), ref, 2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["prediction", "reference"])
def test_evaluate_rejects_a_non_finite_value_in_either_cube(name, value):
    # a NaN prediction band scored MPSNR 100 dB, MSSIM 1 and SAM 0: nanmean
    # skipped the band and SAM the pixel
    r = 2
    ref = np.random.default_rng(6).uniform(0.1, 0.9, (14, 12, 3))
    pred = ref[:-r].copy()
    (pred if name == "prediction" else ref)[3, 5, 1] = value
    with pytest.raises(ContractError, match=f"non-finite value in the {name} at line 3$"):
        evaluate(HsiCube(pred), HsiCube(ref), r)


def test_a_non_finite_value_in_the_discarded_reference_lines_still_scores():
    r = 2
    ref = np.random.default_rng(7).uniform(0.1, 0.9, (14, 12, 3))
    pred = ref[:-r].copy()
    ref[-1, 4, 0] = np.nan
    report = evaluate(HsiCube(pred), HsiCube(ref), r)
    assert report.mpsnr_db == metrics.PSNR_CAP_DB and report.rmse == 0.0
