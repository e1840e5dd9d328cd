"""Central-difference gradient check for the tape (test helper)."""

import numpy as np

from dpsr.errors import ContractError, NumericError
from dpsr.tensor import Tape


def grad_check(f, params, step=1e-5):
    """Max relative error between tape gradients and central differences.

    `f()` must rebuild the forward pass from `params` (a list of Tensors)
    and return a scalar Tensor. Everything must be in float64.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise ContractError("grad_check requires float64 parameters")
    with Tape() as tape:
        loss = f()
    analytic = tape.gradients(loss, params)
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = float(f().data)
            flat[i] = orig - step
            lm = float(f().data)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError("non-finite loss during grad_check")
            num = (lp - lm) / (2.0 * step)
            rel = abs(gflat[i] - num) / max(abs(gflat[i]), abs(num), 1e-8)
            worst = max(worst, rel)
    return worst
