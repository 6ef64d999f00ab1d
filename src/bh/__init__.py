"""Numerical homogenization of two-phase conduction with dynamic
Laplace-Beltrami interface conditions: cell correctors, effective tensors
with memory kernels, macroscopic and microscale solvers, and the study
harnesses comparing them.  Importing bh pins numpy's OpenBLAS to one
thread, process-wide (README, "Solvers")."""
import ctypes

import numpy as np

__version__ = "0.1.0"

try:    # numpy's bundled OpenBLAS, reached through the core module loading it
    _BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
    _BLAS.scipy_openblas_set_num_threads64_(1)
except (AttributeError, OSError):
    _BLAS = None


def blas_threads():
    """The size of numpy's OpenBLAS thread pool, or None when unpinned."""
    return None if _BLAS is None else _BLAS.scipy_openblas_get_num_threads64_()
