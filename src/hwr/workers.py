"""Independent jobs on the CPUs this process may run on.

`map_jobs` forks one worker process per allowed CPU and maps a sized
sequence of jobs (a list or a range) over them; `map_rows` fills the rows of
one float64 matrix, BLOCK rows per job, for the per-image stages (synthesis,
features) and the reducers.  Work that fits in one job runs inline, in this
process, without a pool.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
from pathlib import Path

import numpy as np

BLOCK = 64  # rows per job of `map_rows`: images, or samples to reduce

_fn = None  # set in worker processes only: the job function they inherited


@functools.cache
def openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, with its thread-count calls declared, or None if not found."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    return lib


def _install(fn) -> None:
    global _fn
    _fn = fn


def _run(job):
    return _fn(job)


def map_jobs(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, computed by forked worker processes.

    ``jobs`` is a sized sequence, such as a list or a range.  There is one
    worker per CPU in ``os.sched_getaffinity(0)``, but no more than there are
    jobs; one worker means the plain loop in this process.
    Workers are forked, whatever the platform's default start method: they
    inherit ``fn`` and everything it reads, such as the training matrix or a
    module attribute patched before the call, where a spawned worker would
    import the program again and be sent all of it pickled.  Each job and its
    result travel pickled.  Jobs are drawn lazily, in chunks of about
    a quarter of a worker's share, results come back in job order, and the
    first job that raises raises its exception here, with its own type (from
    workers, once the other jobs have run).  The pool is torn down on every
    exit path.
    """
    count = len(jobs)
    workers = min(len(os.sched_getaffinity(0)), count)
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, so that `hwr predict` does not pay for its import

    with multiprocessing.get_context("fork").Pool(workers, _install, (fn,)) as pool:
        try:
            return list(pool.imap(_run, jobs, max(1, count // (4 * workers))))
        except Exception:
            # let the workers finish the queued jobs and exit: the terminate that ends
            # the with block would kill busy ones, and a worker killed while it holds
            # the result queue's lock leaves the pool waiting on that lock for ever
            pool.close()
            pool.join()
            raise


def blocks(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of BLOCK items in ``range(n)``; the last may be shorter."""
    return [(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]


def map_rows(fn, n: int, width: int) -> tuple[np.ndarray, list]:
    """An (n, width) float64 matrix whose rows ``fn(start, stop, rows)`` fills, and fn's results.

    ``fn`` runs through `map_jobs` once per block of `blocks(n)` and writes
    ``rows``, the matrix rows ``start:stop``; only what it returns travels
    pickled.  Past one block the matrix lives in anonymous shared memory,
    mapped before any fork, so rows that workers write need no copy; one
    block runs inline, into plain memory.  ``n`` and ``width`` must be at
    least 1.
    """
    out = matrix(n, width, shared=n > BLOCK)
    return out, map_jobs(lambda job: fn(*job, out[job[0]:job[1]]), blocks(n))


def matrix(n: int, width: int, shared: bool) -> np.ndarray:
    """An (n, width) float64 matrix; if ``shared``, in anonymous shared memory mapped now,
    so that what workers forked later write to it is the caller's.  A size too large to
    allocate or map raises MemoryError."""
    if not shared:
        return np.empty((n, width))
    try:
        buffer = mmap.mmap(-1, n * width * 8)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map a {n} x {width} float64 matrix: {exc}") from None
    return np.frombuffer(buffer, dtype=np.float64).reshape(n, width)
