"""Importing dpdlab holds NumPy's bundled OpenBLAS to one thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpdlab
from dpdlab._blas import bundled_openblas

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
