"""Central-difference gradient checks for the tape (test helpers)."""

import numpy as np

from dpsr.errors import ContractError, NumericError
from dpsr.tensor import Tape


def _tape_and_numeric(f, params, step):
    """Tape gradients of `f()` and central differences, per tensor in `params`."""
    for p in params:
        if p.data.dtype != np.float64:
            raise ContractError("grad_check requires float64 parameters")
    with Tape() as tape:
        loss = f()
    analytic = tape.gradients(loss, params)
    numeric = []
    for p in params:
        flat = p.data.reshape(-1)
        num = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = float(f().data)
            flat[i] = orig - step
            lm = float(f().data)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError("non-finite loss during grad_check")
            num[i] = (lp - lm) / (2.0 * step)
        numeric.append(num.reshape(p.shape))
    return analytic, numeric


def grad_check(f, params, step=1e-5):
    """Max relative error between tape gradients and central differences.

    `f()` must rebuild the forward pass from `params` (a list of Tensors)
    and return a scalar Tensor. Everything must be in float64.
    """
    worst = 0.0
    for g, num in zip(*_tape_and_numeric(f, params, step)):
        rel = np.abs(g - num) / np.maximum(np.maximum(np.abs(g), np.abs(num)), 1e-8)
        worst = max(worst, float(rel.max(initial=0.0)))
    return worst


def tensor_grad_check(f, named_params, rtol=1e-4, atol=1e-10, step=1e-5):
    """{name: max|g - num| / (rtol * max|num| + atol)} per tensor; <= 1 passes.

    Unlike `grad_check`'s per-element relative error, the bound scales with
    each tensor's largest gradient, so entries near zero, where the central
    difference is all roundoff, cannot fail a tensor whose gradient is
    right. `f` and float64 as for `grad_check`.
    """
    names, params = zip(*named_params)
    analytic, numeric = _tape_and_numeric(f, params, step)
    return {name: float(np.abs(g - num).max() / (rtol * np.abs(num).max() + atol))
            for name, g, num in zip(names, analytic, numeric)}
