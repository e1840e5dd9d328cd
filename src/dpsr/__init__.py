"""Streaming line-by-line super-resolution for pushbroom hyperspectral sensors.

Importing the package changes nothing in the process environment: the BLAS
thread count is set by the library's own variables (`OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS`, `MKL_NUM_THREADS`) before Python starts.
"""

from .model import DpsrConfig, DpsrParams, dpsr_forward_image, dpsr_step, init_stream

__all__ = ["DpsrConfig", "DpsrParams", "dpsr_forward_image", "dpsr_step",
           "init_stream"]
__version__ = "0.1.0"
