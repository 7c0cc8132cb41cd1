"""Pools of forked worker processes, shared by a pipeline run (``pipeline``)
and by the dataset CSV reader and writer (``dataset``).

A worker inherits the parent's memory at the fork, so only jobs and results
are pickled. One pool at a time: while a pool of this module is open its
workers hold the usable cores, and ``usable_workers`` keeps any other work
in the process that asks. A worker forked from an open pool inherits that
flag too, so a worker never forks a pool of its own.
"""
from __future__ import annotations

import collections
import contextlib
import os

# what a forked worker inherits: (normalized normal leg, normalized attacked
# leg, config) in a run's pool, (dataset,) in a CSV writer's, (path, number
# of features) in a CSV reader's
WORKER_INPUTS = None

# True while a pool of this module is open
POOL_OPEN = False


def _init_worker(*inputs):
    global WORKER_INPUTS
    WORKER_INPUTS = inputs


@contextlib.contextmanager
def forked_pool(n_workers: int, *inputs):
    """A ``ProcessPoolExecutor`` of ``n_workers`` forked processes that
    inherit ``inputs`` as ``WORKER_INPUTS``; ``POOL_OPEN`` is True until
    the block exits, which shuts the pool down and joins every worker.

    A job's exception is re-raised in the parent with its class and
    message; a worker that dies raises ``BrokenProcessPool``.
    """
    global POOL_OPEN
    # imported here, not at the top: they add about 40 ms to every import
    # of the package, and only forked work needs them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    outer = POOL_OPEN
    with ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=inputs,
    ) as pool:
        POOL_OPEN = True
        try:
            yield pool
        finally:
            POOL_OPEN = outer


def in_order(pool, fn, jobs, window: int):
    """Yield ``fn(job)`` for each of ``jobs``, run in ``pool``, in job
    order, with at most ``window`` jobs submitted and not yet yielded."""
    pending = collections.deque()
    for job in jobs:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, job))
    while pending:
        yield pending.popleft().result()


def worker_count(n_jobs: int) -> int:
    """One worker per usable core, at most one per job."""
    return min(len(os.sched_getaffinity(0)), n_jobs)


def usable_workers(n_jobs: int) -> int:
    """``worker_count(n_jobs)``; 1 for a single job, and while a pool of
    this module is open."""
    return 1 if POOL_OPEN or n_jobs < 2 else worker_count(n_jobs)
