"""Numerical homogenization of two-phase conduction with dynamic
Laplace-Beltrami interface conditions: cell correctors, effective tensors
with memory kernels, macroscopic and microscale solvers, and the study
harnesses comparing them.  Importing bh pins the OpenBLAS of numpy and the
one of scipy to one thread each, process-wide (README, "Solvers")."""
import ctypes
import importlib
import os

__version__ = "0.1.0"


def _pin(module, suffix):
    """Pin the pool of the OpenBLAS that the named module loads to one
    thread; its thread-count getter, or one returning None without it."""
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        getattr(lib, f"scipy_openblas_set_num_threads{suffix}")(1)
        return getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    except (AttributeError, ImportError, OSError):
        return lambda: None


# the pool sizes of numpy's OpenBLAS and of scipy's, which SuperLU calls
blas_threads = _pin("numpy._core._multiarray_umath", "64_")
scipy_blas_threads = _pin("scipy.sparse.linalg._dsolve._superlu", "")


def cpus():
    """The CPUs this process may run on, which size micro's thread pools."""
    return len(os.sched_getaffinity(0))
