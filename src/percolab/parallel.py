"""Replica-range parallelism with results concatenated in replica order.

A kernel maps a replica index range [start, stop) to per-replica arrays: one
array, or a tuple of arrays, with the replicas of the range along axis 0.
Ranges partition [0, total), and the parent concatenates the chunk results
in replica order, so any worker count or chunking yields identical arrays.
Every reduction over them runs once, in the parent.
"""

from __future__ import annotations

import multiprocessing as mp
from functools import partial
from typing import Callable

import numpy as np


def _shifted(fn, offset: int, start: int, stop: int):
    return fn(offset + start, offset + stop)


def shifted(fn: Callable, offset: int) -> Callable:
    """``fn`` moved to the replica range [offset + start, offset + stop)."""
    return partial(_shifted, fn, offset)


def _invoke(args):
    fn, start, stop = args
    return fn(start, stop)


def _concat(parts: list):
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(cols) for cols in zip(*parts))
    return np.concatenate(parts)


def run_counters(fn: Callable[[int, int], object], total: int, workers: int = 1):
    """Run ``fn`` over [0, total) in chunks, concatenating the chunks in replica order."""
    if total < 1:
        raise ValueError(f"need at least one replica, got {total}")
    workers = max(1, workers)
    if workers == 1:
        return fn(0, total)
    chunk = max(256, -(-total // (workers * 4)))
    ranges = [(fn, s, min(s + chunk, total)) for s in range(0, total, chunk)]
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        return _concat(list(pool.imap(_invoke, ranges)))
