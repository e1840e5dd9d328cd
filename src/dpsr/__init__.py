"""Streaming line-by-line super-resolution for pushbroom hyperspectral sensors."""

import os
import sys
import warnings

# DPSR_THREADS caps the numeric libraries' threads. They read their variables
# when NumPy loads, so this runs before anything in the package imports it;
# a variable that is already set wins. If NumPy is already loaded, the cap
# comes too late, and a warning says so.
_threads = os.environ.get("DPSR_THREADS")
if _threads:
    if "numpy" in sys.modules:
        warnings.warn("DPSR_THREADS has no effect: NumPy was imported before dpsr. Set "
                      "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS before "
                      "Python starts instead.", RuntimeWarning, stacklevel=2)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from .model import DpsrConfig, DpsrParams, dpsr_forward_image, dpsr_step, init_stream

__all__ = ["DpsrConfig", "DpsrParams", "dpsr_forward_image", "dpsr_step",
           "init_stream"]
__version__ = "0.1.0"
