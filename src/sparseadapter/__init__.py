"""Desk-scale lab for pruning adapter modules at initialization.

Each name lives in its own module (`sparseadapter.model`, `.adapters`, ...);
importing the package itself only pins BLAS.
"""

import os as _os

# Desk-scale matrices are too small for threaded BLAS to pay off; keep runs
# single-threaded (and timing-stable) unless the user said otherwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")


def _pin_blas(threads: str) -> None:
    """OpenBLAS reads the variables only when it loads, which numpy may have
    done before this package: set the count on the bundled library itself."""
    import ctypes
    import glob
    import numpy
    libs = _os.path.join(_os.path.dirname(numpy.__file__), _os.pardir, "numpy.libs")
    for path in sorted(glob.glob(_os.path.join(libs, "libscipy_openblas*.so*"))):
        set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None and threads.isdigit() and int(threads) > 0:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(int(threads))


_pin_blas(_os.environ["OPENBLAS_NUM_THREADS"])
