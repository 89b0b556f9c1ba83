"""Independent jobs on the CPUs this process may run on."""

from __future__ import annotations

import os
from operator import length_hint

_fn = None  # set in worker processes only: the job function they inherited


def _install(fn) -> None:
    global _fn
    _fn = fn


def _run(job):
    return _fn(job)


def map_jobs(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, computed by forked worker processes.

    There is one worker per CPU in ``os.sched_getaffinity(0)``, but no more
    than there are jobs (jobs without a length, such as a generator, count as
    many as the CPUs); one worker means the plain loop in this process.
    Workers are forked, whatever the platform's default start method: they
    inherit ``fn`` and everything it reads, such as the training matrix or a
    module attribute patched before the call, where a spawned worker would
    import the program again and be sent all of it pickled.  Each job and its
    result travel pickled.  Jobs are drawn lazily, in chunks of about
    a quarter of a worker's share, results come back in job order, and the
    first job that raises raises its exception here, with its own type.  The
    pool is torn down on every exit path.
    """
    cpus = len(os.sched_getaffinity(0))
    count = length_hint(jobs, cpus)
    workers = min(cpus, count)
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, so that `hwr predict` does not pay for its import

    with multiprocessing.get_context("fork").Pool(workers, _install, (fn,)) as pool:
        return list(pool.imap(_run, jobs, max(1, count // (4 * workers))))
