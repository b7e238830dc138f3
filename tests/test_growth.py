from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chebyshev, kruskal_edges, prim_mst_lengths
from percolab import growth
from percolab.lattice import Region

point = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
point_sets = st.lists(point, min_size=1, max_size=8, unique=True)


def shell_sites(blob, n):
    """The sites of the blob's shell, read off its raster."""
    mask, origin = growth.blob_region_mask(blob, n)
    return frozenset(Region(origin, mask))


def test_two_point_record():
    rec = growth.grow_tree([(0, 0), (4, 0)])
    assert rec.r2_sequence() == (4,)
    assert rec.edges[0].u == (0, 0) and rec.edges[0].v == (4, 0)


def test_three_point_record():
    rec = growth.grow_tree([(0, 0), (4, 0), (4, 3)])
    assert sorted(rec.r2_sequence()) == [3, 4]
    # first merge joins the closest pair
    assert {rec.edges[0].u, rec.edges[0].v} == {(4, 0), (4, 3)}


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        growth.grow_tree([(0, 0), (0, 0)])


def test_tie_break_deterministic():
    pts = [(0, 0), (4, 0), (0, 4)]  # mutually at distance 4
    rec = growth.grow_tree(pts)
    for perm in ([(4, 0), (0, 4), (0, 0)], [(0, 4), (0, 0), (4, 0)]):
        assert growth.grow_tree(perm) == rec


@given(
    st.integers(2, 3).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=12, unique=True)
    )
)
@settings(max_examples=200)
def test_merge_order_matches_reference_kruskal(pts):
    # tie-heavy sets: many pairs share a distance, so the order of equal
    # distances decides which edges are kept
    rec = growth.grow_tree(pts)
    assert [(e.u, e.v, e.r2) for e in rec.edges] == kruskal_edges(pts)


@given(point_sets)
@settings(max_examples=60)
def test_merge_radii_equal_mst(pts):
    mine = sorted(growth.merge_radii(pts).elements())
    assert mine == prim_mst_lengths(pts)


@given(point_sets)
@settings(max_examples=40)
def test_record_invariants(pts):
    rec = growth.grow_tree(pts)
    seq = rec.r2_sequence()
    assert len(seq) == len(pts) - 1
    assert all(a <= b for a, b in zip(seq, seq[1:]))
    if len(pts) > 1:
        min_dist = min(
            chebyshev(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]
        )
        assert seq[0] == min_dist


@given(st.permutations([(0, 0), (3, 1), (7, 2), (-4, 5), (2, 2)]))
@settings(max_examples=20)
def test_input_order_invariance(perm):
    base = growth.grow_tree(sorted(perm))
    assert growth.grow_tree(list(perm)) == base


def test_merge_radii_examples():
    assert growth.merge_radii([(0, 0), (6, 0)]) == Counter({6: 1})
    assert growth.merge_radii([(1, 1)]) == Counter()


def test_blobs_structure():
    rec1 = growth.grow_tree([(0, 0)])
    b1 = growth.blobs(rec1, 3)
    assert len(b1) == 1 and b1[0].is_root and b1[0].b2 == 0

    rec2 = growth.grow_tree([(0, 0), (4, 0)])
    b2 = growth.blobs(rec2, 5)
    assert len(b2) == 3
    singles = [b for b in b2 if not b.is_root]
    assert all(b.b2 == 0 and b.d2 == 4 for b in singles)
    root = [b for b in b2 if b.is_root][0]
    assert root.b2 == 4 and root.members == frozenset({(0, 0), (4, 0)})


@given(point_sets)
@settings(max_examples=40)
def test_blob_count_and_intervals(pts):
    rec = growth.grow_tree(pts)
    bl = growth.blobs(rec, 25)
    assert len(bl) == 2 * len(pts) - 1
    for b in bl:
        if not b.is_root:
            assert b.b2 <= b.d2


def test_blobs_point_outside_box_rejected():
    rec = growth.grow_tree([(0, 0), (9, 0)])
    with pytest.raises(ValueError):
        growth.blobs(rec, 5)


def test_blob_region_even_distance_interface():
    # two points at even distance: the equidistant slab belongs to no shell
    rec = growth.grow_tree([(0, 0), (4, 0)])
    bl = growth.blobs(rec, 5)
    singles = [b for b in bl if not b.is_root]
    regions = [shell_sites(b, 5) for b in singles]
    root_region = shell_sites([b for b in bl if b.is_root][0], 5)
    # independent set computation of the shells
    for b, reg in zip(singles, regions):
        (x0, y0), = b.members
        expected = set()
        for x in range(-8, 13):
            for y in range(-10, 11):
                d_own = max(abs(x - x0), abs(y - y0))
                d_other = max(abs(x - (4 - x0)), abs(y - y0))
                if 0 < 2 * d_own <= 4 and not (2 * d_own == 4 and 2 * d_other <= 4):
                    expected.add((x, y))
        assert reg == expected
        assert len(reg) == 19
    assert len(root_region) == 441 - 45  # box(10) minus the two touching balls
    assert not regions[0] & regions[1]
    assert not (regions[0] | regions[1]) & root_region


def test_blob_region_odd_distance_full_annulus():
    rec = growth.grow_tree([(0, 0), (5, 0)])
    for b in growth.blobs(rec, 6):
        if not b.is_root:
            reg = shell_sites(b, 6)
            (c,) = b.members
            assert reg == {
                (x, y)
                for x in range(-3, 9)
                for y in range(-3, 4)
                if 1 <= max(abs(x - c[0]), abs(y - c[1])) <= 2
            }


@given(st.lists(point, min_size=2, max_size=7, unique=True))
@settings(max_examples=40, deadline=None)
def test_shells_pairwise_disjoint(pts):
    rec = growth.grow_tree(pts)
    bl = growth.blobs(rec, 25)
    regions = [shell_sites(b, 25) for b in bl]
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            assert not regions[i] & regions[j]


def test_radius_bound_two_point():
    rec = growth.grow_tree([(0, 0), (4, 0)])
    rep = growth.check_radius_bound(rec, 5)
    assert rep.ok and not rep.equalities


def test_radius_bound_corner_equality():
    n = 6
    rec = growth.grow_tree([(-n, -n), (n, n)])
    rep = growth.check_radius_bound(rec, n)
    assert rep.ok
    assert rep.equalities == ((1, 2 * n, 2 * n),)


@given(st.lists(point, min_size=1, max_size=8, unique=True))
@settings(max_examples=40)
def test_radius_bound_never_violated(pts):
    rec = growth.grow_tree(pts)
    assert growth.check_radius_bound(rec, 25).ok


def test_ordering_count_examples():
    assert growth.ordering_count(Counter({1: 2, 2: 1})) == 3
    assert growth.ordering_count(Counter({5: 1})) == 1
    assert growth.ordering_count(Counter({1: 1, 2: 1, 3: 1})) == 6
    big = growth.ordering_count(Counter({i: 2 for i in range(15)}))
    assert big > 10**20  # exact big integer, no overflow


def test_prob_upper_bound():
    c3 = 1.5
    assert growth.prob_upper_bound(Counter(), 10, lambda s: 0.25, c3) == c3 * 0.25
    assert growth.prob_upper_bound(Counter({4: 1}), 10, lambda s: 1.0, c3) == pytest.approx(c3 * c3)
    alpha = 0.3
    pi = lambda s: float(s) ** -alpha
    radii = Counter({3: 2, 8: 1})
    mine = growth.prob_upper_bound(radii, 12, pi, c3)
    # independent product: ceil(3/2)=2, ceil(8/2)=4
    expected = (c3 * 12**-alpha) * (c3 * 2**-alpha) ** 2 * (c3 * 4**-alpha)
    assert mine == pytest.approx(expected, rel=1e-12)


def test_count_upper_bound():
    assert growth.count_upper_bound(Counter(), 7, 2.0, 2) == 2.0 * 49
    # radii multiset {r=2} (doubled 4), d=2, C4=1: 4 n^2
    assert growth.count_upper_bound(Counter({4: 1}), 5, 1.0, 2) == pytest.approx(4 * 25)
    radii = Counter({3: 1, 10: 2})
    c4, d, n = 0.7, 3, 9
    expected = c4 * growth.ordering_count(radii) * n**d
    for r2, mult in radii.items():
        expected *= (d * c4 * (r2 / 2) ** (d - 1)) ** mult
    assert growth.count_upper_bound(radii, n, c4, d) == pytest.approx(expected, rel=1e-12)
