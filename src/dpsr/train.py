"""Desk-scale training: composite loss, Adam, patch loop, early stopping.

Everything downstream of the seed is deterministic: parameter init, data
order and augmentation choice all come from one Generator, so two runs
with the same seed produce identical logs.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .dataio import HsiCube, bicubic_downsample, dihedral_views, extract_patches
from .errors import (ContractError, NumericError, check_non_negative, first_non_finite,
                     positive_int, seed_int)
from .metrics import SSIM_WINDOW, evaluate
from .model import DpsrParams, dpsr_forward_image
from .tensor import Tape, Tensor

SAM_COS_CLIP = 1e-7   # keeps arccos' gradient finite at collinear spectra
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# first differences along both spatial axes, as (later, earlier) index pairs
_DIFFS = ((np.s_[1:], np.s_[:-1]), (np.s_[:, 1:], np.s_[:, :-1]))


@dataclass
class TrainConfig:
    lr: float = 1e-4
    alpha_s: float = 0.3
    alpha_g: float = 0.1
    batch_size: int = 4
    max_steps: int = 200
    patch: int = 16           # HR patch edge; must be divisible by the SR factor
    seed: int = 0
    eval_every: int = 25
    patience: int = 10        # evaluations without val improvement before stopping

    def __post_init__(self):
        for name in ("lr", "alpha_s", "alpha_g"):   # lr 0 is a no-op sanity run
            check_non_negative(name, getattr(self, name))
        for name in ("batch_size", "max_steps", "patch", "eval_every", "patience"):
            setattr(self, name, positive_int(name, getattr(self, name)))
        self.seed = seed_int(self.seed)


def loss_terms(pred, target, alpha_s, alpha_g):
    """(total, l1, sam, grad) losses between aligned HR stacks.

    pred: Tensor (L, rW, C); target: array-like of the same shape with the
    discard rule already applied. l1 is the mean absolute error; sam the
    spectral angle in radians summed over pixels and divided by the number
    of pixels whose two spectra are both nonzero; grad the mean of the
    along- and across-track mean absolute errors of first differences (no
    padding). total = l1 + alpha_s * sam + alpha_g * grad.

    total is one tape op on `pred`, whose backward writes one gradient
    array for all three terms; l1, sam and grad are floats rounded to
    `pred`'s dtype. The SAM masks are constant: a pixel with a zero spectrum
    on either side, or with spectra collinear to within SAM_COS_CLIP, counts
    as angle 0 (so loss(pred, pred) is 0 rather than arccos rounding) and
    gets exactly zero SAM gradient, as does a cosine clipped at -1 + SAM_COS_CLIP.
    """
    if pred.size == 0:
        raise ContractError("loss on empty tensors")
    p = pred.data
    t = np.asarray(target, dtype=p.dtype)
    if p.shape != t.shape:
        raise ContractError(f"loss: pred {p.shape} vs target {t.shape}")

    e = p - t
    scratch = np.abs(e)
    l1 = scratch.mean()

    pn = np.sqrt(np.einsum("...c,...c->...", p, p))
    tn = np.sqrt(np.einsum("...c,...c->...", t, t))
    ok = (pn > 0) & (tn > 0)
    pn, tn = np.where(ok, pn, 1), np.where(ok, tn, 1)
    cos = np.einsum("...c,...c->...", p, t) / (pn * tn)
    keep = ok & (cos < 1 - SAM_COS_CLIP)
    safe = np.clip(cos, -1 + SAM_COS_CLIP, 1 - SAM_COS_CLIP)
    count = max(int(ok.sum()), 1)
    sam = np.where(keep, np.arccos(safe), 0).sum() / count

    grad = 0
    for later, earlier in _DIFFS:
        d = np.subtract(e[later], e[earlier], out=scratch[earlier])
        grad += np.abs(d, out=d).mean()
    grad *= 0.5

    total = Tensor(np.asarray(l1 + (sam * alpha_s + grad * alpha_g), dtype=p.dtype))

    def fn(g):
        gp = np.sign(e)
        gp *= 1 / e.size
        # d angle / d cos on the pixels the masks and the clip pass
        dang = np.where(keep & (cos > -1 + SAM_COS_CLIP),
                        -1 / np.sqrt(1 - safe * safe), 0) * (alpha_s / count)
        tmp = np.multiply((dang / (pn * tn))[..., None], t)
        gp += tmp
        gp -= np.multiply((dang * cos / (pn * pn))[..., None], p, out=tmp)
        signs = np.empty_like(tmp)     # float32 `sign` runs several times slower in place
        for later, earlier in _DIFFS:
            d = np.subtract(e[later], e[earlier], out=tmp[earlier])
            s = np.sign(d, out=signs[earlier])
            s *= alpha_g * 0.5 / s.size
            gp[later] += s
            gp[earlier] -= s
        gp *= g
        return (gp,)

    return (T.record(total, (pred,), fn), *(float(p.dtype.type(v)) for v in (l1, sam, grad)))


def loss(pred, target, alpha_s, alpha_g):
    return loss_terms(pred, target, alpha_s, alpha_g)[0]


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @classmethod
    def init(cls, params):
        return cls(m=[np.zeros_like(p.data) for _, p in params],
                   v=[np.zeros_like(p.data) for _, p in params])


def adam_step(named_params, grads, state, lr):
    """In-place bias-corrected Adam update. A non-finite gradient raises before
    any parameter or `state` changes."""
    for (name, _), g in zip(named_params, grads):
        if first_non_finite(g) is not None:
            raise NumericError(f"non-finite gradient for parameter {name}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for (name, p), g, m, v in zip(named_params, grads, state.m, state.v):
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        if first_non_finite(p.data) is not None:     # a finite lr can still overflow float32
            raise NumericError(f"non-finite update for parameter {name}")


@dataclass
class LogRow:
    step: int
    loss: float
    l1: float
    sam: float
    grad: float
    val_mpsnr: float | None = None

    def line(self):
        val = f"{self.val_mpsnr:.4f}" if self.val_mpsnr is not None else ""
        return (f"{self.step},{self.loss:.6f},{self.l1:.6f},"
                f"{self.sam:.6f},{self.grad:.6f},{val}")

    @staticmethod
    def header():
        return "step,loss,l1,sam,grad,val_mpsnr"


def _prepare_pairs(cubes, scale, patch):
    """HR cubes -> list of (lr, hr) arrays over the 8 dihedral images of
    every patch.

    Each (lr, hr) is one read-only dihedral view of the patch's one
    decimation and of the one copy `extract_patches` made: decimating a
    square patch commutes with its views, so 8 pairs share two buffers.
    """
    if patch < 2 * scale:
        raise ContractError(f"patch {patch} gives {patch // scale}-line LR sequences at "
                            f"scale {scale}; the forward needs at least 2 lines")
    pairs = []
    for cube in cubes:
        if patch > cube.height or patch > cube.width:
            raise ContractError(
                f"patch {patch} larger than cube {cube.height}x{cube.width}")
        if patch % scale:
            raise ContractError(f"patch {patch} not divisible by scale {scale}")
        for base in extract_patches(cube, patch):
            lr = bicubic_downsample(base, scale).data
            pairs += zip(dihedral_views(lr), dihedral_views(base.data))
    return pairs


def _val_mpsnr(params, val_cubes, val_lr, scale):
    """Mean MPSNR over `val_cubes`, predicted from their decimations `val_lr`."""
    scores = []
    for cube, lr in zip(val_cubes, val_lr):
        pred = dpsr_forward_image(lr, params)
        pred_cube = HsiCube(data=np.clip(pred.data, 0.0, 1.0),
                            band_valid=cube.band_valid)
        scores.append(evaluate(pred_cube, cube, scale).mpsnr_db)
    return float(np.mean(scores))


def fit(train_cubes, val_cubes, model_config, train_config):
    """Train from scratch; returns (best params, log rows).

    Training uses the whole-image forward, which is the same `model._forward`
    that streaming runs, from a fresh state; the loss compares its
    ((Hp-1)*r)-line output against the matching slice of the HR patch,
    which is exactly the discard rule. With `val_cubes`, validation runs
    every `eval_every` steps and at the last step, on LR cubes decimated
    once per fit. Cubes of another band count than the model's, training
    cubes that flag a band invalid, and val cubes too small for SSIM once
    `evaluate` discards lines, fail before step 1.

    The pairs are read-only views (`_prepare_pairs`); a step copies the
    lines its loss uses to a contiguous array.
    """
    tc = train_config
    scale = model_config.scale
    for cube in [*train_cubes, *val_cubes]:
        if cube.bands != model_config.bands:
            raise ContractError(f"cube has {cube.bands} bands, the model {model_config.bands}")
    for i, cube in enumerate(train_cubes):      # val cubes keep their masks
        if not cube.band_valid.all():
            raise ContractError(f"train cube {i} flags bands "
                                f"{np.flatnonzero(~cube.band_valid).tolist()} invalid; "
                                "the loss fits every band")
    for cube in val_cubes:
        if min(cube.height - scale, cube.width) < SSIM_WINDOW:
            raise ContractError(f"val cube {cube.height}x{cube.width} less its last {scale} "
                                f"lines is smaller than the {SSIM_WINDOW}-px SSIM window")
    pairs = _prepare_pairs(train_cubes, scale, tc.patch)
    if not pairs:
        raise ContractError("no training patches")
    val_lr = [bicubic_downsample(cube, scale).data for cube in val_cubes]

    params = DpsrParams.init(model_config, seed=tc.seed)
    named = params.named_tensors()
    opt = AdamState.init(named)
    rng = np.random.default_rng(tc.seed + 1)

    log = []
    best, best_score, evals_since_best = None, -np.inf, 0
    for step in range(1, tc.max_steps + 1):
        picks = rng.integers(0, len(pairs), size=tc.batch_size)
        # NumPy's overflow warnings are silenced: the loss, the gradients and
        # the updated parameters are checked for finite values instead
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), Tape() as tape:
            total = None
            parts = np.zeros(3)
            for idx in picks:
                lr_arr, hr_arr = pairs[idx]
                pred = dpsr_forward_image(lr_arr, params)
                # a rotated view as the target costs the loss more than this copy
                tgt = np.ascontiguousarray(hr_arr[:pred.shape[0]])
                item, *terms = loss_terms(pred, tgt, tc.alpha_s, tc.alpha_g)
                total = item if total is None else T.add(total, item)
                parts += terms
            total = T.mul(total, 1.0 / tc.batch_size)
            loss_val = total.item()
            if not np.isfinite(loss_val):
                raise NumericError(f"training diverged at step {step}")
            grads = tape.gradients(total, [p for _, p in named])
            adam_step(named, grads, opt, tc.lr)     # in-place NumPy updates; nothing is taped
        parts /= tc.batch_size

        row = LogRow(step=step, loss=loss_val, l1=parts[0], sam=parts[1],
                     grad=parts[2])
        if val_cubes and (step % tc.eval_every == 0 or step == tc.max_steps):
            score = _val_mpsnr(params, val_cubes, val_lr, scale)
            row.val_mpsnr = score
            if score > best_score:
                best, best_score = [t.data.copy() for _, t in named], score
                evals_since_best = 0
            else:
                evals_since_best += 1
        log.append(row)
        if evals_since_best >= tc.patience:
            break

    if best is not None:
        for (_, t), data in zip(named, best):
            t.data = data
    return params, log


def write_log(log, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LogRow.header() + "\n")
        for row in log:
            fh.write(row.line() + "\n")
