from __future__ import annotations

import numpy as np
import pytest

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
