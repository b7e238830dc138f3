"""Growth shells against the brute-force oracle.

Every blob of random 1-D, 2-D and 3-D point sets in small boxes is
rasterized by ``growth`` and compared site by site with
``oracles.shell_sites``, which scans per-site minimum Chebyshev distances in
plain Python.  1-D and 3-D rasters take the
painter's per-axis loop, 2-D ones its integer-bound loop.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from percolab import growth


def _bbox(blob, n):
    """Raster (origin, shape): the doubled box for the root, the members'
    bounding box padded by d2 // 2 (the death balls' reach) otherwise."""
    d = len(next(iter(blob.members)))
    if blob.is_root:
        return (-2 * n,) * d, (4 * n + 1,) * d
    pad = blob.d2 // 2
    lo = tuple(min(x[a] for x in blob.members) - pad for a in range(d))
    hi = tuple(max(x[a] for x in blob.members) + pad for a in range(d))
    return lo, tuple(h - l + 1 for l, h in zip(lo, hi))


def _mask_sites(mask, origin):
    return {tuple(int(c) + o for c, o in zip(idx, origin)) for idx in np.argwhere(mask)}


def _random_sets(rng, d, count, max_n, max_k):
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        k = min(rng.randint(1, max_k), (2 * n + 1) ** d)
        pts = set()
        while len(pts) < k:
            pts.add(tuple(rng.randint(-n, n) for _ in range(d)))
        out.append((sorted(pts), n))
    return out


def _check_blob(blob, n, stats):
    mask, origin = growth.blob_region_mask(blob, n)
    assert mask.dtype == bool
    assert (origin, mask.shape) == _bbox(blob, n)
    want = oracles.shell_sites(blob.members, blob.b2, blob.d2, blob.others, n)
    assert _mask_sites(mask, origin) == want

    if blob.is_root or not blob.others:
        return
    if blob.d2 % 2 == 0:
        plain = oracles.shell_sites(blob.members, blob.b2, blob.d2, None, n)
        stats["interface"] += plain != want
    r = blob.d2 // 2
    lo, shape = _bbox(blob, n)
    for x in blob.others:
        if any(x[a] - r < lo[a] for a in range(len(lo))):
            stats["clipped_low"] += 1
        if any(x[a] + r >= lo[a] + shape[a] for a in range(len(lo))):
            stats["clipped_high"] += 1


@pytest.mark.parametrize("d, count, max_n, max_k", [(1, 150, 6, 7), (2, 150, 4, 7), (3, 40, 3, 6)])
def test_shells_match_oracle(d, count, max_n, max_k):
    rng = random.Random(20261018 + d)
    stats = {"interface": 0, "clipped_low": 0, "clipped_high": 0}
    for pts, n in _random_sets(rng, d, count, max_n, max_k):
        for blob in growth.blobs(growth.grow_tree(pts), n):
            _check_blob(blob, n, stats)
    # the sets must exercise even-distance interfaces and bbox-clipped others
    assert all(v > 0 for v in stats.values()), stats


@pytest.mark.parametrize(
    "pts, n",
    [
        ([(0, 0), (4, 0)], 5),  # even distance: equidistant slab
        ([(-4, 0), (0, 0), (4, 0)], 4),  # tie on both sides, others clipped left and right
        ([(0, 0, 0), (2, 2, 0), (-3, 1, 3)], 3),  # 3-D even interface
        ([(6, 6), (-6, -6)], 6),  # corner pair: root birth balls reach past the raster
        ([(1, 1)], 2),  # single point: the root alone
    ],
)
def test_handpicked_shells_match_oracle(pts, n):
    stats = {"interface": 0, "clipped_low": 0, "clipped_high": 0}
    for blob in growth.blobs(growth.grow_tree(pts), n):
        _check_blob(blob, n, stats)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fill_clamps_to_the_raster_and_clears(d):
    # axis 0 holds 3 sites from -1, every other axis 9 sites from -4
    origin, shape = (-1,) + (-4,) * (d - 1), (3,) + (9,) * (d - 1)
    center = (0,) * d
    out = np.zeros(shape, dtype=bool)
    growth._fill(out, [center], -1, origin, True)
    assert not out.any()
    # wholly before the raster (start -4, stop -1: unclamped, the stop would
    # wrap to the end), wholly past it, and before it on axis 0 alone
    before = tuple(o - 3 for o in origin)
    past = tuple(o + s + 1 for o, s in zip(origin, shape))
    growth._fill(out, [before, past, before[:1] + center[1:]], 1, origin, True)
    assert not out.any()
    # clipped at both ends of axis 0, inside on the others
    growth._fill(out, [center], 2, origin, True)
    want = np.zeros(shape, dtype=bool)
    want[(slice(0, 3),) + (slice(2, 7),) * (d - 1)] = True
    assert np.array_equal(out, want)
    growth._fill(out, [center], 1, origin, False)
    want[(slice(0, 3),) + (slice(3, 6),) * (d - 1)] = False
    assert np.array_equal(out, want)
    growth._fill(out, [center], 2, origin, False)
    assert not out.any()
