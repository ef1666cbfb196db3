"""Desk-scale lab for pruning adapter modules at initialization.

Each name lives in its own module (`sparseadapter.model`, `.adapters`, ...);
importing the package itself only pins BLAS and sets glibc's allocator to keep
freed memory for reuse.
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


# glibc's malloc.h parameters, and the variables by which a user sets them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MALLOC_VARS = ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                "GLIBC_TUNABLES")


def _keep_freed_memory() -> None:
    """A training step frees its whole graph (tens of MB) before the next
    forward builds one alike. glibc's dynamic thresholds would hand that
    memory back to the kernel and fault it in again page by page, and each
    scoring thread would keep a high-water mark in its own arena. So use one
    arena, heap (not mmap) blocks up to glibc's 32 MiB maximum, and trim the
    heap only above 1 GiB free. A user who set any of `_MALLOC_VARS` keeps
    glibc as they set it; outside glibc nothing changes. The C library is the
    process's own (`CDLL(None)`): looking it up by name would start a child
    process."""
    if _os.name != "posix" or any(v in _os.environ for v in _MALLOC_VARS):
        return
    import ctypes
    libc = ctypes.CDLL(None)
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 32 << 20),
                         (_M_TRIM_THRESHOLD, 1 << 30)):
        mallopt(param, value)


_pin_blas(_os.environ["OPENBLAS_NUM_THREADS"])
_keep_freed_memory()
