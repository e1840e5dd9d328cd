"""Streaming line-by-line super-resolution for pushbroom hyperspectral sensors."""

import os

# DPSR_THREADS caps the numeric libraries' threads. They read their variables
# when NumPy loads, so this runs before anything in the package imports it;
# a variable that is already set wins.
_threads = os.environ.get("DPSR_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from .model import DpsrConfig, DpsrParams, dpsr_forward_image, dpsr_step, init_stream

__all__ = ["DpsrConfig", "DpsrParams", "dpsr_forward_image", "dpsr_step",
           "init_stream"]
__version__ = "0.1.0"
