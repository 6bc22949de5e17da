"""Importing dpdlab holds NumPy's bundled OpenBLAS to one thread, and the
order search's in-place QR is np.linalg.qr's, with that OpenBLAS or without."""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpdlab
from dpdlab._blas import bundled_openblas
from dpdlab.mpm import qr_in_place

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


_CORENAMES = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
              "openblas_get_corename64_", "openblas_get_corename")

# A fresh interpreter that, in the "hidden" variant, hides NumPy's bundled
# OpenBLAS from dpdlab (every glob for it finds nothing) before importing
# dpdlab, prints the core names OpenBLAS picked, then runs the tests it is
# given.
_CHILD = """
import ctypes, json, pathlib, sys
if sys.argv[1] == "hidden":
    glob = pathlib.Path.glob
    pathlib.Path.glob = lambda self, pattern, *args, **kwargs: (
        iter(()) if "openblas" in pattern else glob(self, pattern, *args, **kwargs))
import pytest
from dpdlab import _blas
names = sys.argv[2].split(",")
cores = [getattr(lib, next(n for n in names if hasattr(lib, n)))
         for lib in _blas.bundled_openblas()]
for get in cores:
    get.argtypes, get.restype = [], ctypes.c_char_p
print(json.dumps({"cores": [get().decode() for get in cores]}), flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[3:]]))
"""

# The tests each variant runs, by test file and name, with their case
# counts.  A trained model's parameter bytes (GOLDEN_TRAIN's digests) change
# with the CPU kernels of OpenBLAS and of NumPy alike, so only the variant
# that keeps the native kernels runs them; the sweep CSVs and the model text
# hold on both.  The variant without the bundled OpenBLAS also runs the QR's
# bit-for-bit tests: the in-place factor needs no bundled library.
_GOLDEN_SWEEP_AND_TEXT = (("test_ila.py::test_sweep_csv_matches_golden_bytes", 3),
                          ("test_ila.py::test_saved_model_text_matches_golden", 3))
_GOLDEN_TESTS = {
    "prescott": _GOLDEN_SWEEP_AND_TEXT,
    "hidden": (*_GOLDEN_SWEEP_AND_TEXT,
               ("test_training.py::test_short_train_matches_golden_bytes", 3),
               ("test_blas.py::test_qr_in_place_is_np_linalg_qr_bit_for_bit", 3),
               ("test_mpm.py::test_order_blocked_qr_equals_the_copying_factor_bit_for_bit", 7)),
}


def _corename() -> str:
    """The core name of the OpenBLAS NumPy bundles, as this process loaded it."""
    lib = bundled_openblas()[0]
    get = getattr(lib, next(name for name in _CORENAMES if hasattr(lib, name)))
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


@pytest.mark.parametrize("variant", sorted(_GOLDEN_TESTS))
def test_the_goldens_hold_on_other_cpu_kernels_and_without_the_bundled_openblas(variant):
    # "prescott" runs OpenBLAS's SSE3 kernels and NumPy's loops without AVX2
    # or AVX-512; "hidden" leaves dpdlab without the bundled OpenBLAS, so at
    # NumPy's own thread count.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the CPU kernels named here are x86-64 ones")
    if not any(hasattr(lib, name) for lib in bundled_openblas() for name in _CORENAMES):
        pytest.skip("this NumPy bundles no OpenBLAS")
    tests = Path(__file__).resolve().parent
    src = str(Path(dpdlab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if variant == "prescott":
        env |= {"OPENBLAS_CORETYPE": "Prescott",
                "NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3 AVX512_ICL AVX512_SPR"}
    else:
        env |= {"OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _CHILD, variant, ",".join(_CORENAMES),
                          *(str(tests / name) for name, _ in _GOLDEN_TESTS[variant])],
                         capture_output=True, text=True, env=env, cwd=tests.parent)
    assert out.returncode == 0, out.stdout + out.stderr
    probe, *report = out.stdout.splitlines()
    probe = json.loads(probe)
    if variant == "prescott":
        assert probe["cores"] and _corename() not in probe["cores"]
    else:
        assert probe == {"cores": []}
    n_cases = sum(count for _, count in _GOLDEN_TESTS[variant])
    assert report[-1].startswith(f"{n_cases} passed"), out.stdout
