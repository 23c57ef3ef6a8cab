"""One BLAS thread per process unless the user chose a thread count.

The dense matrices here are 50-520 wide; at that size a second OpenBLAS
thread adds only wake-up cost and stalls of several milliseconds.  numpy
bundles its own OpenBLAS, which reads the thread variables when it loads, so
the count is set at runtime through the library's exported setter.  Where the
library or the symbol is absent nothing is pinned and the count reads None.

Every kernel of the program, the eigensolve's LAPACK included, runs on
numpy's library, so that is the one library pinned and recorded.  A process
that loads ``scipy.linalg`` itself (the test suite does, in
``tests/test_dtn.py``, for an independent reference) gets scipy's own
bundled OpenBLAS, which is left unpinned.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy

USER_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# numpy's bundled OpenBLAS; its symbols carry the 64-bit-integer suffix
_LIB = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                    "numpy.libs", "libscipy_openblas64_*.so")


def _openblas(symbol: str):
    for path in sorted(glob.glob(_LIB)):
        try:
            return getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
    return None


def blas_threads() -> dict:
    """Effective thread count of numpy's bundled OpenBLAS, None where absent."""
    get = _openblas("scipy_openblas_get_num_threads64_")
    return {"numpy": None if get is None else int(get())}


def pin_blas_threads() -> dict:
    """Set one thread in numpy's bundled OpenBLAS unless a thread variable is set.

    Returns the effective count, as ``blas_threads``.
    """
    if not any(var in os.environ for var in USER_VARS):
        setter = _openblas("scipy_openblas_set_num_threads64_")
        if setter is not None:
            setter(1)
    return blas_threads()
