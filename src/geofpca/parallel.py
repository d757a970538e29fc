"""The process pool of the replicated experiments.

Workers run the BLAS setting of the process that starts them: a forked worker
copies its loaded OpenBLAS, and a spawned one inherits its environment. The
CLI sets one BLAS thread before numpy loads; a library caller who wants
outputs independent of ``OPENBLAS_NUM_THREADS`` sets it before importing numpy.
"""

from __future__ import annotations

import functools
import warnings

_worker_task = None  # set in each pool worker by _start_worker


def _start_worker(fn, shared, filters) -> None:
    global _worker_task
    warnings.filters[:] = filters
    _worker_task = functools.partial(fn, shared)


def _run_task(task):
    """The task's result and the warnings it raised, which the parent shows."""
    with warnings.catch_warnings(record=True) as caught:
        result = _worker_task(task)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def map_tasks(fn, shared, tasks: list, threads: int = 1, chunksize: int = 1) -> list:
    """``[fn(shared, t) for t in tasks]``, over at most ``threads`` worker processes.

    The pool has one worker per task up to ``threads``; with one, the tasks run
    in this process. ``shared`` reaches each worker once, at its start, instead
    of with every task. Results keep the order of ``tasks``. A worker filters
    its task's warnings with the caller's filters and records them; the caller
    shows them in task order, through ``warnings.showwarning``.
    """
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [fn(shared, t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
    results = []
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                             initargs=(fn, shared, warnings.filters)) as pool:
        for result, caught in pool.map(_run_task, tasks, chunksize=chunksize):
            for message, category, filename, lineno in caught:
                warnings.showwarning(message, category, filename, lineno)
            results.append(result)
    return results
