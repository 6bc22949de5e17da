"""Importing dpdlab holds NumPy's bundled OpenBLAS to one thread, and the
order search reaches that library's QR routines."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpdlab
from dpdlab._blas import bundled_openblas, lapack_qr, qr_in_place

_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def test_import_leaves_numpys_openblas_at_one_thread():
    if not bundled_openblas():
        pytest.skip("this NumPy bundles no OpenBLAS")
    # A fresh interpreter that asks OpenBLAS for two threads, then imports
    # the dpdlab under test and reads every bundled library's thread count.
    src = str(Path(dpdlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import ctypes, dpdlab\n"
            "from dpdlab._blas import bundled_openblas\n"
            "for lib in bundled_openblas():\n"
            f"    get = next(getattr(lib, n) for n in {_GETTERS!r} if hasattr(lib, n))\n"
            "    get.argtypes, get.restype = [], ctypes.c_int\n"
            "    print(get())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": path})
    assert out.stdout.split() == ["1"] * len(bundled_openblas())


def test_the_bundled_openblas_qr_routines_are_found():
    # A NumPy whose OpenBLAS renames zgeqrf or zungqr, or changes their
    # integer width, fails here rather than quietly taking the copying
    # np.linalg.qr path.
    if not bundled_openblas():
        pytest.skip("this NumPy bundles no OpenBLAS")
    routines = lapack_qr()
    assert routines is not None
    assert [routine.__name__ for routine in routines] == ["scipy_zgeqrf_64_", "scipy_zungqr_64_"]
    for routine in routines:
        assert ctypes.sizeof(routine.argtypes[0]._type_) == 8


def test_qr_in_place_refuses_a_matrix_it_cannot_factor_where_it_lies():
    frozen = np.zeros((4, 2), dtype=np.complex128, order="F")
    frozen.flags.writeable = False
    for a in (np.zeros((4, 2), dtype=np.complex128),  # C order
              np.zeros((2, 4), dtype=np.complex128, order="F"),  # wide
              np.zeros((4, 2), dtype=np.float64, order="F"),
              frozen):
        with pytest.raises(ValueError, match=r"^qr_in_place needs a writeable, F-contiguous"):
            qr_in_place(a)


@pytest.mark.parametrize("rows, cols", [(50, 1), (300, 40), (400, 150)])
def test_qr_in_place_is_np_linalg_qr_bit_for_bit(rows, cols):
    # 150 columns pass LAPACK's 128-column crossover, so zgeqrf and zungqr
    # run their blocked code there.
    rng = np.random.default_rng(rows + cols)
    a = np.asfortranarray(rng.standard_normal((rows, cols))
                          + 1j * rng.standard_normal((rows, cols)))
    q, r = np.linalg.qr(a)
    assert np.array_equal(qr_in_place(a), r)
    assert np.array_equal(a, q)
