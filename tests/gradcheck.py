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
    """Worst relative error of any tensor's tape gradient against central differences.

    A tensor's error is its largest |g - num| over its largest |num| (floor
    1e-8): the bound scales with the tensor's largest gradient, so entries
    near zero, where the central difference is all roundoff, cannot fail a
    tensor whose gradient is right. `f()` must rebuild the forward pass
    from `params` (a list of Tensors) and return a scalar Tensor.
    Everything must be in float64.
    """
    return max(float(np.abs(g - num).max(initial=0.0) / max(np.abs(num).max(initial=0.0), 1e-8))
               for g, num in zip(*_tape_and_numeric(f, params, step)))


def tensor_grad_check(f, named_params, rtol=1e-4, atol=1e-10, step=1e-5):
    """{name: max|g - num| / (rtol * max|num| + atol)} per tensor; <= 1 passes.

    `grad_check`'s rule with a tolerance, per named tensor. `f` and float64
    as for `grad_check`.
    """
    names, params = zip(*named_params)
    analytic, numeric = _tape_and_numeric(f, params, step)
    return {name: float(np.abs(g - num).max() / (rtol * np.abs(num).max() + atol))
            for name, g, num in zip(names, analytic, numeric)}
