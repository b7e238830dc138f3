from __future__ import annotations

import inspect

import pytest

from percolab import verify
from percolab.verify import QUICK, VerifyContext, run_criterion

SEED = 7
ORDER = (8, 10, 12)


@pytest.fixture(scope="module")
def table():
    return VerifyContext(SEED, 1, QUICK).pi_table()


def _data(indices, table, workers=1):
    ctx = VerifyContext(SEED, workers, QUICK, _pi=table)
    return {i: run_criterion(i, ctx).data for i in indices}, ctx


def test_family_cache_is_order_free(table):
    # criteria 8, 10 and 12 share V_n families: forward, each family is first
    # sampled at its largest size and read as a prefix; reversed, it is extended
    forward, ctx = _data(ORDER, table)
    backward, _ = _data(ORDER[::-1], table, workers=2)
    alone = {i: _data((i,), table)[0][i] for i in ORDER}
    assert forward == backward == alone
    assert {n: s.samples for n, s in ctx._vn.items()} == {
        4: QUICK.constant_samples,
        8: QUICK.constant_samples,
        12: QUICK.tail_samples,
    }


def test_bfs_oracle_is_independent():
    # criterion 13 compares the labeling kernel with this flood fill
    source = inspect.getsource(verify._bfs_labels)
    assert "ndimage" not in source and "grid." not in source
