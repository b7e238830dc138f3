from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from percolab import parallel
from percolab.parallel import run_counters, shifted


def _pair(start, stop):
    return np.arange(start, stop), -np.arange(start, stop)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunks_concatenate_in_replica_order(workers):
    # 1000 replicas make four chunks at 2 and 3 workers, the last one partial
    got = run_counters(np.arange, 1000, workers)
    np.testing.assert_array_equal(got, np.arange(1000), strict=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_tuples_concatenate_per_array_at_an_offset(workers):
    a, b = run_counters(shifted(_pair, 700), 600, workers)
    np.testing.assert_array_equal(a, np.arange(700, 1300), strict=True)
    np.testing.assert_array_equal(b, -np.arange(700, 1300), strict=True)


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
    assert set(run_counters(_pids, 200, 2).tolist()) == {os.getpid()}
    assert os.getpid() not in set(run_counters(_pids, 1000, 2).tolist())


def test_workers_below_one_raise():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_counters(np.arange, 10, 0)


def test_pool_is_reused_until_the_worker_count_changes():
    first = set(run_counters(_pids, 1000, 2).tolist())
    assert len(first) == 2
    assert set(run_counters(_pids, 1000, 2).tolist()) == first
    third = set(run_counters(_pids, 1000, 3).tolist())
    assert len(third) == 3 and not third & first
    assert all(_gone(pid) for pid in first)


def test_kernel_error_surfaces_and_the_next_call_forks_a_fresh_pool():
    before = set(run_counters(_pids, 1000, 2).tolist())
    with pytest.raises(ValueError, match="kernel failed"):
        run_counters(_fail, 1000, 2)
    assert all(_gone(pid) for pid in before)
    np.testing.assert_array_equal(run_counters(np.arange, 1000, 2), np.arange(1000), strict=True)


def test_no_worker_outlives_the_process():
    code = (
        "import os, numpy as np\n"
        "from percolab.parallel import run_counters\n"
        "def pids(start, stop):\n"
        "    return np.full(stop - start, os.getpid())\n"
        "print(*sorted(set(run_counters(pids, 1000, 2).tolist())))\n"
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
