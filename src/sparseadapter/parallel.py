"""The one rule for a job's second CPU: with at least 2 CPUs to itself, a job
runs independent pieces of work on threads and takes their results in a
fixed order, so no bit depends on the CPU count. Below 2 CPUs, or with fewer
than 2 pieces, the work runs in line and no thread starts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def uses_threads(cpus: int) -> bool:
    """Whether a job with `cpus` CPUs to itself puts work on a second thread."""
    return cpus >= 2


def map_in_order(fn: Callable, items: Sequence, cpus: int) -> Iterator:
    """`fn` of each item, yielded in item order as each becomes ready. Under
    `uses_threads(cpus)` and with at least 2 items, two threads compute them,
    each under the caller's numpy error state (numpy keeps that per thread);
    an exception from `fn` reaches the caller either way."""
    if len(items) < 2 or not uses_threads(cpus):
        yield from map(fn, items)
        return
    err = np.geterr()

    def run(item):
        with np.errstate(**err):
            return fn(item)

    with ThreadPoolExecutor(max_workers=2) as pool:    # joined on every exit
        yield from pool.map(run, items)
