"""The package's BLAS thread pin, checked in fresh interpreters."""

import ctypes
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LIBS = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*.so*"))
if not any(hasattr(ctypes.CDLL(p), "scipy_openblas_get_num_threads64_") for p in LIBS):
    pytest.skip("numpy does not bundle scipy-openblas", allow_module_level=True)

# import numpy first, so that OpenBLAS loads before the package sets anything
PROBE = """
import ctypes, glob, os, sys
import numpy
if len(sys.argv) > 1:
    os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
import sparseadapter
for path in sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                          "numpy.libs", "libscipy_openblas*.so*"))):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_int
        print(get())
"""


def _threads(*argv):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    return int(out.split()[0])


def test_blas_pin_holds_after_an_earlier_numpy_import():
    assert _threads() == 1


def test_blas_pin_honours_a_count_set_before_import():
    assert _threads("3") == 3
