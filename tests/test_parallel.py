from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from percolab import parallel
from percolab.parallel import run_counters


def _pair(start, stop):
    return np.arange(start, stop), -np.arange(start, stop)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunks_concatenate_in_replica_order(workers):
    # 1000 replicas make four chunks at 2 and 3 workers, the last one partial
    got = run_counters(np.arange, 0, 1000, workers)
    np.testing.assert_array_equal(got, np.arange(1000), strict=True)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tuples_concatenate_per_array_at_an_offset(workers):
    got, want = run_counters(_pair, 700, 1300, workers), _pair(700, 1300)
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


def _chunk(start, stop):
    """Spy kernel: each replica records the range of the chunk it ran in."""
    return np.tile((start, stop), (stop - start, 1))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunks_of_a_range_are_the_chunks_from_zero_moved_by_start(workers):
    def chunks(start, stop):
        return sorted(set(map(tuple, run_counters(_chunk, start, stop, workers).tolist())))

    # max(256, ceil(3000 / (4 workers))) replicas per chunk: 375 at 2 workers,
    # 256 at 3, and one chunk at 1 worker
    from_zero = chunks(0, 3000)
    size = 3000 if workers == 1 else max(256, -(-3000 // (4 * workers)))
    assert from_zero == [(a, min(a + size, 3000)) for a in range(0, 3000, size)]
    assert chunks(700, 3700) == [(a + 700, b + 700) for a, b in from_zero]


def _pids(start, stop):
    time.sleep(0.02)  # long enough that every idle worker takes a chunk
    return np.full(stop - start, os.getpid())


def _fail(start, stop):
    raise ValueError(f"kernel failed on [{start}, {stop})")


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_one_chunk_runs_in_the_caller():
    assert set(run_counters(_pids, 0, 200, 2).tolist()) == {os.getpid()}
    assert set(run_counters(_pids, 700, 900, 2).tolist()) == {os.getpid()}
    assert os.getpid() not in set(run_counters(_pids, 0, 1000, 2).tolist())


def test_workers_below_one_raise():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_counters(np.arange, 0, 10, 0)


def test_pool_is_reused_until_the_worker_count_changes():
    first = set(run_counters(_pids, 0, 1000, 2).tolist())
    assert len(first) == 2
    assert set(run_counters(_pids, 0, 1000, 2).tolist()) == first
    third = set(run_counters(_pids, 0, 1000, 3).tolist())
    assert len(third) == 3 and not third & first
    assert all(_gone(pid) for pid in first)


def test_kernel_error_surfaces_and_the_next_call_forks_a_fresh_pool():
    before = set(run_counters(_pids, 0, 1000, 2).tolist())
    with pytest.raises(ValueError, match="kernel failed"):
        run_counters(_fail, 0, 1000, 2)
    assert all(_gone(pid) for pid in before)
    np.testing.assert_array_equal(run_counters(np.arange, 0, 1000, 2), np.arange(1000), strict=True)


def test_no_worker_outlives_the_process():
    code = (
        "import os, numpy as np\n"
        "from percolab.parallel import run_counters\n"
        "def pids(start, stop):\n"
        "    return np.full(stop - start, os.getpid())\n"
        "print(*sorted(set(run_counters(pids, 0, 1000, 2).tolist())))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(parallel.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    pids = [int(w) for w in proc.stdout.split()]
    assert pids and os.getpid() not in pids
    deadline = time.monotonic() + 5
    while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(_gone(pid) for pid in pids)
