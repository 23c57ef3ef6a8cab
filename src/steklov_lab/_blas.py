"""One BLAS thread per process unless the user chose a thread count.

The dense matrices here are 50-520 wide; at that size a second OpenBLAS
thread adds only wake-up cost and stalls of several milliseconds.  numpy and
scipy each bundle their own OpenBLAS, which read the thread variables when
they load, so the count is set at runtime through each library's exported
setter.  A library that is absent or lacks the symbol is skipped.

Every kernel of the program, the eigensolve's LAPACK included, runs on
numpy's library, and no run loads ``scipy.linalg``.  Importing ``scipy``
only locates its bundled library, which is pinned too: its count is part of
every run manifest, and a caller that loads ``scipy.linalg`` links to the
library opened here.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy
import scipy

USER_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# (name, directory that holds the package, library glob, symbol suffix)
_LIBS = (
    ("numpy", os.path.dirname(os.path.dirname(numpy.__file__)),
     "numpy.libs/libscipy_openblas64_*.so", "64_"),
    ("scipy", os.path.dirname(os.path.dirname(scipy.__file__)),
     "scipy.libs/libscipy_openblas-*.so", ""),
)


def _openblas(root: str, pattern: str, symbol: str):
    for path in sorted(glob.glob(os.path.join(root, pattern))):
        try:
            return getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
    return None


def blas_threads() -> dict:
    """Effective thread count of each bundled OpenBLAS, None where absent."""
    out = {}
    for name, root, pattern, suffix in _LIBS:
        get = _openblas(root, pattern, f"scipy_openblas_get_num_threads{suffix}")
        out[name] = None if get is None else int(get())
    return out


def pin_blas_threads() -> dict:
    """Set one thread in each bundled OpenBLAS unless a thread variable is set.

    Returns the effective counts, as ``blas_threads``.
    """
    if not any(var in os.environ for var in USER_VARS):
        for _name, root, pattern, suffix in _LIBS:
            setter = _openblas(root, pattern, f"scipy_openblas_set_num_threads{suffix}")
            if setter is not None:
                setter(1)
    return blas_threads()
