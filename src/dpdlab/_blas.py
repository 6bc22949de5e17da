"""NumPy's bundled OpenBLAS, held to one thread for the whole process.

A BLAS or LAPACK call's bits can depend on how many threads split it, so the
lab runs its BLAS on one thread: every number it prints is then the same on a
machine with any core count.  This reaches the OpenBLAS that NumPy's wheels
bundle (numpy.libs, or numpy/.dylibs on macOS); a NumPy linked against another
BLAS is left as it is.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

# The setter's name in the scipy-openblas builds NumPy bundles (64-bit
# integers, suffixed or not) and in a plain OpenBLAS.
_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")


def bundled_openblas() -> list[ctypes.CDLL]:
    """The OpenBLAS libraries bundled with NumPy; the one NumPy has loaded is
    opened again, not loaded a second time."""
    root = Path(np.__file__).parent
    paths = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    return [ctypes.CDLL(str(path)) for path in paths]


def pin_one_thread() -> None:
    """Set every bundled OpenBLAS to one thread; without one, do nothing."""
    for lib in bundled_openblas():
        for name in _SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break
