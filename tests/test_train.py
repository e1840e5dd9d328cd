"""The training loss: value, gradient and its masks; the whole model's gradient;
the training pairs and fit's contract errors."""

import re

import numpy as np
import pytest

from dpsr import tensor as T, train
from dpsr.dataio import HsiCube, augment8, bicubic_downsample, extract_patches, make_synthetic
from dpsr.errors import ContractError, NumericError
from dpsr.model import DpsrConfig, DpsrParams, dpsr_forward_image
from dpsr.tensor import Tape, Tensor
from gradcheck import grad_check, tensor_grad_check

ALPHA_S, ALPHA_G = 0.3, 0.1


def loss_inputs(seed=0):
    """(6, 8, 5) positive float64 pred and target with one zero-norm target
    pixel and one pixel whose spectra are collinear."""
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.1, 1.0, (6, 8, 5))
    target = rng.uniform(0.1, 1.0, (6, 8, 5))
    target[1, 2] = 0.0
    pred[4, 5] = 2.0 * target[4, 5]
    return pred, target


def numpy_loss(p, t, alpha_s, alpha_g):
    """(total, l1, sam, grad) written out directly."""
    l1 = np.mean(np.abs(p - t))
    angles, count = [], 0
    for y, x in np.ndindex(p.shape[:2]):
        a, b = p[y, x], t[y, x]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            continue
        count += 1
        cos = a @ b / (na * nb)
        angles.append(0.0 if cos >= 1 - train.SAM_COS_CLIP else np.arccos(cos))
    sam = sum(angles) / max(count, 1)
    along = np.mean(np.abs((p[1:] - p[:-1]) - (t[1:] - t[:-1])))
    across = np.mean(np.abs((p[:, 1:] - p[:, :-1]) - (t[:, 1:] - t[:, :-1])))
    grad = 0.5 * (along + across)
    return l1 + alpha_s * sam + alpha_g * grad, l1, sam, grad


def test_loss_terms_match_numpy_formula():
    pred, target = loss_inputs()
    total, *parts = train.loss_terms(Tensor(pred), target, ALPHA_S, ALPHA_G)
    assert all(type(v) is float for v in parts)
    got = [total.item(), *parts]
    want = numpy_loss(pred, target, ALPHA_S, ALPHA_G)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    total, l1, sam, grad = got
    assert total == pytest.approx(l1 + ALPHA_S * sam + ALPHA_G * grad, rel=1e-15, abs=0)


def test_loss_terms_gradient():
    pred, target = loss_inputs(1)
    p = Tensor(pred, requires_grad=True)
    err = grad_check(lambda: train.loss_terms(p, target, ALPHA_S, ALPHA_G)[0], [p])
    assert err < 1e-6


def test_zero_norm_predicted_pixel_gets_a_finite_gradient():
    # the SAM masks drop the pixel, so its SAM gradient is exactly zero
    pred, target = loss_inputs(2)
    pred[2, 3] = 0.0
    p = Tensor(pred, requires_grad=True)

    def gradient(alpha_s):
        with np.errstate(all="raise"):
            with Tape() as tape:
                total = train.loss_terms(p, target, alpha_s, ALPHA_G)[0]
            return tape.gradients(total, [p])[0]

    with_sam = gradient(ALPHA_S)
    assert np.all(np.isfinite(with_sam))
    assert np.array_equal(with_sam[2, 3], gradient(0.0)[2, 3])


@pytest.mark.parametrize("kind,up_features,count,composed", [
    ("mamba", 2, 802, False), ("causalconv", 4, 828, True),
])
def test_whole_model_gradient(kind, up_features, count, composed):
    # every parameter, through the image forward and the training loss, in
    # float64; the two cases run the separate and the composed upsampler (over
    # 3 lines of 8 px the composed form counts fewer FLOPs at up_features 4, not 2)
    cfg = DpsrConfig(bands=3, features=4, state_size=2, scale=2, kernel_lines=2,
                     up_features=up_features, memory_kind=kind)
    params = DpsrParams.init(cfg, seed=3, dtype=np.float64)
    named = params.named_tensors()
    assert sum(t.size for _, t in named) == count
    rng = np.random.default_rng(4)
    lr = rng.uniform(0.1, 1.0, (4, 8, 3))
    hr = rng.uniform(0.1, 1.0, (6, 16, 3))
    with T.counting() as tally:
        dpsr_forward_image(lr, params)
    assert ("up.composite_weight" in tally) == composed
    ratios = tensor_grad_check(
        lambda: train.loss_terms(dpsr_forward_image(lr, params), hr, ALPHA_S, ALPHA_G)[0],
        named)
    assert max(ratios.values()) <= 1, sorted(ratios.items(), key=lambda kv: -kv[1])[:5]


def test_a_non_finite_gradient_leaves_parameters_and_optimizer_untouched():
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    named = DpsrParams.init(cfg, seed=0).named_tensors()
    opt = train.AdamState.init(named)
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(p.shape).astype(p.dtype) for _, p in named]
    train.adam_step(named, grads, opt, 1e-3)          # m, v and t are no longer zero
    before = [[p.data.copy() for _, p in named], [m.copy() for m in opt.m],
              [v.copy() for v in opt.v]]
    grads[-1].flat[-1] = np.nan
    with pytest.raises(NumericError, match=f"gradient for parameter {re.escape(named[-1][0])}$"):
        train.adam_step(named, grads, opt, 1e-3)
    assert opt.t == 1
    after = [[p.data for _, p in named], opt.m, opt.v]
    for old, new in zip(before, after):
        assert all(np.array_equal(a, b) for a, b in zip(old, new))


@pytest.mark.parametrize("pred, target, match", [
    (np.zeros((0, 4, 2)), np.zeros((0, 4, 2)), "^loss on empty tensors$"),
    (np.zeros((2, 4, 3)), np.zeros((2, 4, 2)),
     r"^loss: pred \(2, 4, 3\) vs target \(2, 4, 2\)$"),
], ids=["empty", "shape"])
def test_loss_terms_rejects_an_empty_or_mismatched_pair(pred, target, match):
    with pytest.raises(ContractError, match=match):
        train.loss_terms(Tensor(pred), target, ALPHA_S, ALPHA_G)


def test_fit_names_the_step_whose_loss_overflows(monkeypatch):
    # a finite 3e38 prediction: the float32 L1 mean overflows to inf under fit's errstate
    def huge(lr, params):
        rows, width, bands = lr.shape
        return Tensor(np.full(((rows - 1) * 4, 4 * width, bands), 3e38, np.float32))

    monkeypatch.setattr(train, "dpsr_forward_image", huge)
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    tc = train.TrainConfig(batch_size=1, max_steps=2, patch=16, seed=0)
    with pytest.raises(NumericError, match="^training diverged at step 1$"):
        train.fit([make_synthetic(1, 16, 16, 4)], [], cfg, tc)


def test_fit_is_deterministic_per_seed(tmp_path):
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    tc = train.TrainConfig(batch_size=2, max_steps=3, patch=16, eval_every=1, seed=11)
    cubes = [make_synthetic(s, 32, 32, 4) for s in (1, 2)]
    logs = []
    for run in range(2):
        _, log = train.fit(cubes[:1], cubes[1:], cfg, tc)
        train.write_log(log, tmp_path / f"{run}.csv")
        logs.append((tmp_path / f"{run}.csv").read_bytes())
    assert logs[0] == logs[1]
    assert len(logs[0].splitlines()) == 1 + 3


def test_fit_validates_at_the_last_step_before_eval_every():
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    tc = train.TrainConfig(batch_size=1, max_steps=2, patch=16, eval_every=25, seed=3)
    _, log = train.fit([make_synthetic(1, 32, 32, 4)], [make_synthetic(2, 32, 32, 4)], cfg, tc)
    assert len(log) == 2 and log[0].val_mpsnr is None
    assert np.isfinite(log[-1].val_mpsnr)


def test_fit_returns_the_weights_of_its_best_validation():
    # at this lr the val score falls after the first evaluation, so the
    # weights returned are those of step 2, not the last step's
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    tc = train.TrainConfig(lr=3e-2, batch_size=2, max_steps=6, patch=16, eval_every=2, seed=3)
    train_cube, val_cube = make_synthetic(1, 32, 32, 4), make_synthetic(2, 32, 32, 4)
    best, log = train.fit([train_cube], [val_cube], cfg, tc)
    scores = [row.val_mpsnr for row in log if row.val_mpsnr is not None]
    assert len(scores) == 3 and scores[0] > max(scores[1:])
    val_lr = [bicubic_downsample(val_cube, cfg.scale).data]
    assert train._val_mpsnr(best, [val_cube], val_lr, cfg.scale) == scores[0]


def test_fit_stops_after_patience_evaluations_without_a_better_score():
    # at lr 0 no evaluation beats the first, so the third one after it stops
    # the fit at step 4 with the seeded initial weights
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    tc = train.TrainConfig(lr=0.0, batch_size=1, max_steps=20, patch=16, eval_every=1,
                           patience=3, seed=5)
    best, log = train.fit([make_synthetic(1, 32, 32, 4)], [make_synthetic(2, 32, 32, 4)], cfg, tc)
    assert [row.step for row in log] == [1, 2, 3, 4]
    assert all(row.val_mpsnr == log[0].val_mpsnr for row in log)
    initial = DpsrParams.init(cfg, seed=tc.seed)
    for (_, got), (_, want) in zip(best.named_tensors(), initial.named_tensors(), strict=True):
        assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("name", ["batch_size", "max_steps", "patch", "eval_every", "patience"])
def test_train_config_sizes_must_be_integers(name):
    with pytest.raises(ContractError, match=f"{name} must be an integer, got 1.5"):
        train.TrainConfig(**{name: 1.5})
    value = getattr(train.TrainConfig(**{name: 16.0}), name)
    assert value == 16 and type(value) is int


@pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), "3", False])
def test_train_config_seed_must_be_a_non_negative_integer(seed):
    # 2.5 passed here and stopped fit in NumPy's TypeError
    with pytest.raises(ContractError, match="seed"):
        train.TrainConfig(seed=seed)


@pytest.mark.parametrize("name", ["lr", "alpha_s", "alpha_g"])
@pytest.mark.parametrize("value", ["0.1", None, float("nan"), float("inf"), -1e-3, True],
                         ids=repr)
def test_train_config_rates_must_be_finite_non_negative_numbers(name, value):
    # "0.1" and None raised TypeError from the comparison
    with pytest.raises(ContractError, match=f"{name} must be finite and >= 0"):
        train.TrainConfig(**{name: value})
    assert getattr(train.TrainConfig(**{name: 0}), name) == 0


def test_an_integral_float_seed_passes_as_int():
    seed = train.TrainConfig(seed=3.0).seed
    assert seed == 3 and type(seed) is int


def test_prepare_pairs_equals_augmented_copies_and_shares_each_patch():
    cube = make_synthetic(5, 24, 16, 3)
    cube.band_valid[1] = False
    pairs = train._prepare_pairs([cube], 2, 8)
    # the 8-fold augmented copies, each decimated, as training made them before
    want = [(bicubic_downsample(aug, 2).data, aug.data)
            for base in extract_patches(cube, 8) for aug in augment8(base)]
    assert len(pairs) == len(want) == 6 * 8
    for (lr, hr), (want_lr, want_hr) in zip(pairs, want):
        assert lr.dtype == hr.dtype == np.float32
        assert lr.tobytes() == want_lr.tobytes() and lr.shape == want_lr.shape
        assert hr.tobytes() == want_hr.tobytes() and hr.shape == want_hr.shape
        assert not lr.flags.writeable and not hr.flags.writeable
    # one copy per patch: its 8 targets are views of the first, which holds
    # the patch itself, and no two patches share memory; likewise one
    # decimation per patch, which its 8 inputs are views of
    for i, patch in enumerate(extract_patches(cube, 8)):
        for side, own in ((1, patch.data), (0, bicubic_downsample(patch, 2).data)):
            group = [pair[side] for pair in pairs[8 * i:8 * i + 8]]
            assert np.array_equal(group[0], own)
            assert all(np.shares_memory(a, group[0]) for a in group)
            assert not np.shares_memory(group[0], pairs[(8 * i + 8) % len(pairs)][side])


@pytest.mark.parametrize("train_cubes,patch,match", [
    ([make_synthetic(1, 32, 16, 4)], 24, "patch 24 larger than cube 32x16"),
    ([make_synthetic(1, 32, 32, 4)], 18, "patch 18 not divisible by scale 4"),
    ([make_synthetic(1, 32, 32, 4)], 4, "patch 4 gives 1-line LR sequences at scale 4"),
    ([], 16, "no training patches"),
], ids=["patch-larger-than-cube", "patch-not-divisible", "patch-of-one-lr-line", "no-patches"])
def test_fit_rejects_unusable_training_data(train_cubes, patch, match):
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    tc = train.TrainConfig(batch_size=1, max_steps=1, patch=patch, seed=0)
    with pytest.raises(ContractError, match=match):
        train.fit(train_cubes, [], cfg, tc)


@pytest.mark.parametrize("train_bands,val_shape,match", [
    (5, (16, 16, 4), "cube has 5 bands, the model 4"),
    (4, (16, 16, 3), "cube has 3 bands, the model 4"),
    (4, (12, 16, 4), "val cube 12x16 less its last 4 lines"),
    (4, (16, 8, 4), "val cube 16x8 less its last 4 lines"),
], ids=["train-bands", "val-bands", "val-too-short", "val-too-narrow"])
def test_fit_rejects_mismatched_cubes_before_the_first_step(monkeypatch, train_bands,
                                                             val_shape, match):
    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(train, "adam_step", no_step)
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    tc = train.TrainConfig(batch_size=1, max_steps=2, patch=16, eval_every=1, seed=0)
    with pytest.raises(ContractError, match=match):
        train.fit([make_synthetic(1, 16, 16, train_bands)], [make_synthetic(2, *val_shape)],
                  cfg, tc)


def test_fit_rejects_a_training_cube_with_invalid_bands_before_the_first_step(monkeypatch):
    # the loss fits every band; val cubes keep their masks
    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(train, "adam_step", no_step)
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    tc = train.TrainConfig(batch_size=1, max_steps=2, patch=16, eval_every=1, seed=0)
    flagged = HsiCube(data=make_synthetic(2, 16, 16, 4).data,
                      band_valid=[True, False, True, False])
    with pytest.raises(ContractError, match=r"train cube 1 flags bands \[1, 3\] invalid"):
        train.fit([make_synthetic(1, 16, 16, 4), flagged], [make_synthetic(3, 16, 16, 4)],
                  cfg, tc)
