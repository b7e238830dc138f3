"""Replica-range parallelism with results concatenated in replica order.

A kernel maps a replica index range [start, stop) to per-replica arrays: one
array, or a tuple of arrays, with the replicas of the range along axis 0.
Ranges partition [start, stop), and the parent concatenates the chunk results
in replica order, so any worker count or chunking yields identical arrays.
Every reduction over them runs once, in the parent.

A call of one chunk (one worker, or at most 256 replicas) runs in the caller.
Larger calls share one fork pool that lives as long as the process:

- *Owner.* The pool is held as (owner pid, workers, pool). A process whose
  pid is not the owner's, such as a forked child, never calls the pool it
  inherited; it forks its own.
- *Replacement.* A call with another worker count terminates and joins the
  old pool before the new one forks, so no pool thread is alive at the fork.
- *Failure.* If the result loop does not finish (a kernel raised in a worker,
  or KeyboardInterrupt), the pool is terminated and dropped before the
  exception propagates; the next call forks a fresh one.
- *Exit.* An ``atexit`` hook terminates and joins the pool, so no worker
  outlives the process.
- *Worker state.* Workers see module state as of their fork. Kernels are
  pickled with every chunk, and the per-process reader cache
  (``estimators._reader``, with the masks of each observable) fills once per
  worker, not once per call.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
from typing import Callable

import numpy as np

_pool = None  # (owner pid, workers, multiprocessing.pool.Pool) or None


def _invoke(args):
    fn, start, stop = args
    return fn(start, stop)


def _concat(parts: list):
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(cols) for cols in zip(*parts))
    return np.concatenate(parts)


@atexit.register
def _close_pool() -> None:
    """Terminate and join this process's pool; an inherited one is only dropped."""
    global _pool
    held, _pool = _pool, None
    if held is not None and held[0] == os.getpid():
        held[2].terminate()
        held[2].join()


def _worker_pool(workers: int):
    """This process's pool of ``workers`` workers, forked on first use."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _close_pool()
        _pool = (os.getpid(), workers, mp.get_context("fork").Pool(processes=workers))
    return _pool[2]


def run_counters(fn: Callable[[int, int], object], start: int, stop: int, workers: int = 1):
    """Run ``fn`` over [start, stop) in chunks, concatenating the chunks in replica order."""
    total = stop - start
    if total < 1:
        raise ValueError(f"need at least one replica, got {total}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    chunk = max(256, -(-total // (workers * 4)))
    if workers == 1 or chunk >= total:
        return fn(start, stop)
    ranges = [(fn, s, min(s + chunk, stop)) for s in range(start, stop, chunk)]
    pool = _worker_pool(workers)
    try:
        parts = list(pool.imap(_invoke, ranges))
    except BaseException:
        _close_pool()
        raise
    return _concat(parts)
