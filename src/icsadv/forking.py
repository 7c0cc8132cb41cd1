"""Pools of forked worker processes, shared by a pipeline run (``pipeline``)
and by the dataset CSV reader and writer (``dataset``).

A worker inherits the parent's memory at the fork, so only jobs and results
are pickled. A run opens its own pool (``forked_pool``); the CSV reader and
writer map their jobs through ``ordered``, which forks a pool only when it
has two jobs or more and two usable cores or more. One pool at a time:
while a pool of this module is open its workers hold the usable cores, and
``ordered`` runs its jobs in the process. A worker forked from an open pool
inherits that flag too, so a worker never forks a pool of its own.
"""
from __future__ import annotations

import collections
import contextlib
import os

# the ``inputs`` of the open pool, inherited by each of its workers
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


def ordered(fn, jobs, *inputs):
    """Yield ``fn(*inputs, job)`` for each of the sized ``jobs``, in job
    order.

    The jobs run in the process while a pool of this module is open, and
    when there are fewer than two jobs or usable workers. Otherwise they
    run in a ``forked_pool`` whose workers inherit ``fn`` and ``inputs``,
    with at most two jobs per worker submitted and not yet yielded, so the
    parent holds a bounded share of the results. A caller that may stop
    early, or raise between results, closes the generator (a ``with`` of
    ``contextlib.closing``): that shuts the pool down before it goes on.
    """
    n_workers = 1 if POOL_OPEN or len(jobs) < 2 else worker_count(len(jobs))
    if n_workers < 2:
        for job in jobs:
            yield fn(*inputs, job)
        return
    with forked_pool(n_workers, fn, *inputs) as pool:
        pending = collections.deque()
        for job in jobs:
            if len(pending) == 2 * n_workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_call, job))
        while pending:
            yield pending.popleft().result()


def _call(job):
    """The inherited ``fn(*inputs, job)`` of ``ordered``."""
    fn, *inputs = WORKER_INPUTS
    return fn(*inputs, job)


def worker_count(n_jobs: int) -> int:
    """One worker per usable core, at most one per job."""
    return min(len(os.sched_getaffinity(0)), n_jobs)
