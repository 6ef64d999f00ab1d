"""Numerical homogenization of two-phase conduction with dynamic
Laplace-Beltrami interface conditions: cell correctors, effective tensors
with memory kernels, macroscopic and microscale solvers, and the study
harnesses comparing them.  Importing bh pins the OpenBLAS of numpy and the
one of scipy to one thread each, process-wide (README, "Solvers").

It also defers numpy.f2py and numpy.testing, which no bh code uses: scipy's
import reads every public attribute of numpy, and numpy imports either
module when it is first read, about 0.1 s of each start (README, "Command
line").  Each is entered in sys.modules as a module that runs in full at
its first attribute access, so an import of either still works."""
import ctypes
import importlib.util
import os
import sys

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


def _defer(name):
    """Enter the submodule name of an imported package in sys.modules, and
    as an attribute of its package, as a module that runs at its first
    attribute access; a name already imported is left as it is.

    The attribute is needed: without it numpy's module __getattr__ runs
    "import numpy.testing as testing", which reads numpy's attribute again
    and recurses.  Python 3.11's deferred first run is not thread-safe;
    bh's worker threads never touch these modules.
    """
    if name in sys.modules:
        return
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)


# the pool sizes of numpy's OpenBLAS and of scipy's, which SuperLU calls;
# the two deferrals come after numpy's import and before scipy's
blas_threads = _pin("numpy._core._multiarray_umath", "64_")
_defer("numpy.f2py")
_defer("numpy.testing")
scipy_blas_threads = _pin("scipy.sparse.linalg._dsolve._superlu", "")


def cpus():
    """The CPUs this process may run on, which size micro's thread pools."""
    return len(os.sched_getaffinity(0))
