"""The package's BLAS thread pin and allocator settings, checked in fresh
interpreters."""

import ctypes
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from sparseadapter import _MALLOC_VARS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LIBS = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*.so*"))
needs_openblas = pytest.mark.skipif(
    not any(hasattr(ctypes.CDLL(p), "scipy_openblas_get_num_threads64_") for p in LIBS),
    reason="numpy does not bundle scipy-openblas")
needs_glibc = pytest.mark.skipif(
    os.name != "posix" or not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"),
    reason="the allocator settings are glibc's")

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


@needs_openblas
def test_blas_pin_holds_after_an_earlier_numpy_import():
    assert _threads() == 1


@needs_openblas
def test_blas_pin_honours_a_count_set_before_import():
    assert _threads("3") == 3


# 20 times, 40 arrays of 800 KB made and freed, after one such round to warm
# up: page faults, and the largest RSS of any child process
CHURN = """
import resource, sys
import numpy as np
if sys.argv[1] == "import":
    import sparseadapter

def churn():
    for _ in range(20):
        arrays = [np.ones(100_000) for _ in range(40)]
        del arrays

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _churn(package: bool, **env_vars) -> tuple[int, int]:
    env = {k: v for k, v in os.environ.items() if k not in _MALLOC_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CHURN, "import" if package else "plain"],
                         env=env, check=True, capture_output=True, text=True).stdout
    faults, children_rss = out.split()
    return int(faults), int(children_rss)


@needs_glibc
def test_the_package_keeps_freed_memory_for_reuse():
    plain, _ = _churn(False)
    kept, _ = _churn(True)
    assert plain > 10_000       # glibc trims the freed arrays and faults them back in
    assert kept < plain / 100


@needs_glibc
def test_allocator_settings_of_the_caller_are_left_alone():
    plain, _ = _churn(False, MALLOC_TRIM_THRESHOLD_="131072")
    imported, _ = _churn(True, MALLOC_TRIM_THRESHOLD_="131072")
    assert plain > 10_000
    assert imported > 0.9 * plain


def test_import_starts_no_child_process():
    # perfbench counts a child's RSS in `peak_rss_mb`
    _, children_rss = _churn(True)
    assert children_rss == 0
