"""NumPy's bundled OpenBLAS: one thread for the whole process, and its QR.

A BLAS or LAPACK call's bits can depend on how many threads split it, so the
lab runs its BLAS on one thread: every number it prints is then the same on a
machine with any core count.  This reaches the OpenBLAS that NumPy's wheels
bundle (numpy.libs, or numpy/.dylibs on macOS); a NumPy linked against another
BLAS is left as it is.

The same library's LAPACK zgeqrf and zungqr factor a matrix in place
(qr_in_place), the routines np.linalg.qr runs on a copy.  Without a bundled
OpenBLAS, qr_in_place is np.linalg.qr and a copy back.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

# The setter's name in the scipy-openblas builds NumPy bundles (64-bit
# integers, suffixed or not) and in a plain OpenBLAS.
_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")

# zgeqrf and zungqr in the scipy-openblas builds NumPy bundles, which are
# ILP64: every integer argument points to a 64-bit integer.
_QR_ROUTINES = ("scipy_zgeqrf_64_", "scipy_zungqr_64_")
_LAPACK_INT = ctypes.c_int64


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


@functools.cache
def lapack_qr() -> tuple | None:
    """(zgeqrf, zungqr) of the first bundled OpenBLAS that exports both;
    None without one."""
    for lib in bundled_openblas():
        geqrf, ungqr = (getattr(lib, name, None) for name in _QR_ROUTINES)
        if geqrf is not None and ungqr is not None:
            ptr, n_int = ctypes.c_void_p, ctypes.POINTER(_LAPACK_INT)
            # (M, N, A, LDA, TAU, WORK, LWORK, INFO) and (M, N, K, A, LDA, ...).
            geqrf.argtypes = [n_int, n_int, ptr, n_int, ptr, ptr, n_int, n_int]
            ungqr.argtypes = [n_int, n_int, n_int, ptr, n_int, ptr, ptr, n_int, n_int]
            geqrf.restype = ungqr.restype = None
            return geqrf, ungqr
    return None


def _run_lapack(routine, n: int, *args) -> None:
    """Call a LAPACK routine whose last arguments are WORK, LWORK and INFO.

    As np.linalg.qr does, the workspace size is asked for first (LWORK = -1)
    and the call then gets max(1, n, that size) elements.
    """
    info = _LAPACK_INT(0)
    query = np.zeros(1, dtype=np.complex128)
    routine(*args, query.ctypes.data, ctypes.byref(_LAPACK_INT(-1)), ctypes.byref(info))
    if info.value == 0:
        work = np.empty(max(1, n, int(query[0].real)), dtype=np.complex128)
        routine(*args, work.ctypes.data, ctypes.byref(_LAPACK_INT(work.size)),
                ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned INFO = {info.value}")


def qr_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite the (m, n) matrix `a`, m ≥ n, with the Q of its reduced QR
    factorization and return its (n, n) R, bit for bit np.linalg.qr(a).

    `a` must be writeable, complex128 and F-contiguous.  With a bundled
    OpenBLAS, its zgeqrf runs on `a`'s own memory, R is read off the upper
    triangle, and zungqr then forms Q there; otherwise np.linalg.qr(a) is
    copied back into `a`.
    """
    m, n = a.shape
    if (a.dtype != np.complex128 or not a.flags.f_contiguous or not a.flags.writeable
            or m < n):
        raise ValueError("qr_in_place needs a writeable, F-contiguous complex128 "
                         f"matrix with at least as many rows as columns, got {a.shape}")
    routines = lapack_qr()
    if routines is None:
        a[...], r = np.linalg.qr(a)
        return r
    geqrf, ungqr = routines
    m_, n_, lda = (ctypes.byref(_LAPACK_INT(v)) for v in (m, n, max(1, m)))
    tau = np.empty(n, dtype=np.complex128)
    _run_lapack(geqrf, n, m_, n_, a.ctypes.data, lda, tau.ctypes.data)
    r = np.triu(a[:n])
    _run_lapack(ungqr, n, m_, n_, n_, a.ctypes.data, lda, tau.ctypes.data)
    return r
