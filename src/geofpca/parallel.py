"""One BLAS thread per process, and the process pool of the replicated experiments.

The method's linear algebra is small (a ~120 x 120 eigendecomposition, one
Cholesky factor per kriged component), so a multi-threaded BLAS only
oversubscribes the CPUs, and the thread count changes the last bits of its
sums. :func:`pin_blas` fixes BLAS at one thread; the CLI calls it first and
every pool worker runs it, so outputs do not depend on
``OPENBLAS_NUM_THREADS``. Library callers may call it themselves.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor

# Extension modules linking an OpenBLAS, with the symbol suffix of that copy:
# numpy's 64-bit-integer build and scipy's own.
_OPENBLAS = (("numpy._core._multiarray_umath", "64_"), ("scipy.linalg._fblas", ""))


def _loaded_openblas() -> list[tuple[ctypes.CDLL, str]]:
    """(library, symbol suffix) of each OpenBLAS already loaded that can be pinned."""
    found = []
    for module_name, suffix in _OPENBLAS:
        module = sys.modules.get(module_name)
        path = getattr(module, "__file__", None)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path)  # the loaded copy; symbols resolve through its dependencies
            getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        found.append((lib, suffix))
    return found


def pin_blas() -> None:
    """Run BLAS on one thread in this process, whatever the environment says.

    Sets ``OPENBLAS_NUM_THREADS=1`` for an OpenBLAS loaded later (scipy's,
    if a library caller imports scipy after this) and sets every loaded copy
    to one thread. Does nothing where the OpenBLAS symbols do not exist.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for lib, suffix in _loaded_openblas():
        setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


_worker_task = None  # set in each pool worker by _start_worker


def _start_worker(fn, shared) -> None:
    global _worker_task
    pin_blas()
    _worker_task = functools.partial(fn, shared)


def _run_task(task):
    return _worker_task(task)


def map_tasks(fn, shared, tasks: list, threads: int = 1, chunksize: int = 1) -> list:
    """``[fn(shared, t) for t in tasks]``, over ``threads`` worker processes if > 1.

    ``shared`` reaches each worker once, at its start, instead of with every
    task; each worker runs one BLAS thread. Results keep the order of ``tasks``.
    """
    if threads <= 1:
        return [fn(shared, t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads, initializer=_start_worker,
                             initargs=(fn, shared)) as pool:
        return list(pool.map(_run_task, tasks, chunksize=chunksize))
