from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handbuilt import region_from_sites
from percolab.lattice import (
    LatticeKind,
    LatticeSpec,
    Region,
    TRIANGULAR,
    Z2_BOND,
    box_sites,
    box_with_boundary,
    linf_distance,
    rect_region,
    ring,
    site_structure,
)

Z3_BOND = LatticeSpec(LatticeKind.Z_BOND, 3)


def outer_boundary(region, lattice):
    """Sites outside ``region`` adjacent to one of its sites: ``ring`` of its mask padded by one."""
    return Region(tuple(o - 1 for o in region.origin), ring(np.pad(region.mask, 1), lattice))


def neighbors(v, lattice):
    return outer_boundary(box_sites(v, 0), lattice)

coord = st.integers(-50, 50)
site2 = st.tuples(coord, coord)


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND, Z3_BOND])
def test_structures_built_once_and_read_only(lattice):
    s = site_structure(lattice)
    assert s is site_structure(lattice) and not s.flags.writeable
    assert int(site_structure(lattice).sum()) == len(lattice.neighbor_offsets()) + 1


def test_box_degenerate():
    assert frozenset(box_sites((0, 0), 0)) == {(0, 0)}


def test_box_radius_one():
    assert len(box_sites((0, 0), 1)) == 9


def test_box_translated():
    region = box_sites((3, 3), 2)
    assert len(region) == 25
    assert all(1 <= x <= 5 and 1 <= y <= 5 for x, y in region)


def test_box_negative_radius_rejected():
    with pytest.raises(ValueError):
        box_sites((0, 0), -1)


@given(st.tuples(coord, coord, coord), st.integers(0, 4))
@settings(max_examples=30)
def test_box_cardinality_3d(center, n):
    assert len(box_sites(center, n)) == (2 * n + 1) ** 3


def test_boundary_z2_box1():
    ob = outer_boundary(box_sites((0, 0), 1), Z2_BOND)
    expected = {(2, y) for y in (-1, 0, 1)} | {(-2, y) for y in (-1, 0, 1)}
    expected |= {(x, 2) for x in (-1, 0, 1)} | {(x, -2) for x in (-1, 0, 1)}
    assert frozenset(ob) == expected
    assert len(ob) == 12


def test_boundary_triangular_point():
    ob = outer_boundary(region_from_sites({(0, 0)}), TRIANGULAR)
    assert frozenset(ob) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}


def test_boundary_z2_box2_brute_force():
    # independent adjacency scan
    box = box_sites((0, 0), 2)
    brute = set()
    for x in range(-4, 5):
        for y in range(-4, 5):
            if (x, y) in box:
                continue
            if any((x + dx, y + dy) in box for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))):
                brute.add((x, y))
    ob = outer_boundary(box, Z2_BOND)
    assert frozenset(ob) == brute
    assert len(ob) == 20


def test_neighbors_z2():
    assert frozenset(neighbors((0, 0), Z2_BOND)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_neighbors_triangular():
    ns = frozenset(neighbors((0, 0), TRIANGULAR))
    assert len(ns) == 6
    assert (1, 1) in ns and (-1, -1) in ns
    assert (1, -1) not in ns


def test_linf_examples():
    assert linf_distance((0, 0), (4, 3)) == 4
    assert linf_distance((1, 1), (1, 1)) == 0
    assert linf_distance((-2, 5), (3, 5)) == 5


def test_linf_dimension_mismatch():
    with pytest.raises(ValueError):
        linf_distance((0, 0), (1, 2, 3))


@given(site2, site2, site2)
@settings(max_examples=100)
def test_linf_metric(u, v, w):
    assert linf_distance(u, v) == linf_distance(v, u)
    assert linf_distance(u, w) <= linf_distance(u, v) + linf_distance(v, w)
    assert (linf_distance(u, v) == 0) == (u == v)


@given(site2, st.sampled_from([TRIANGULAR, Z2_BOND]))
@settings(max_examples=50)
def test_neighbors_symmetric(v, lattice):
    for w in neighbors(v, lattice):
        assert v in neighbors(w, lattice)


@given(st.integers(0, 3), st.sampled_from([TRIANGULAR, Z2_BOND]))
@settings(max_examples=20)
def test_boundary_disjoint_from_region(n, lattice):
    box = box_sites((0, 0), n)
    assert not frozenset(outer_boundary(box, lattice)) & frozenset(box)


def test_triangular_boundary_excludes_antidiagonal_corners():
    ob = outer_boundary(box_sites((0, 0), 2), TRIANGULAR)
    assert (3, 3) in ob and (-3, -3) in ob
    assert (3, -3) not in ob and (-3, 3) not in ob


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(LatticeKind.TRIANGULAR_SITE, 3)
    with pytest.raises(ValueError):
        LatticeSpec(LatticeKind.Z_BOND, 1)


def test_region_empty_needs_dim():
    with pytest.raises(ValueError):
        region_from_sites(frozenset())
    r = region_from_sites(frozenset(), dim=2)
    assert len(r) == 0 and r.d == 2


def test_region_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        region_from_sites({(0, 0), (1, 2, 3)})


def test_rect_region():
    r = rect_region((1, 2), (2, 1))
    assert len(r) == 6
    assert r.origin == (1, 2) and r.shape == (3, 2)
    lo, hi = r.bounds()
    assert lo == (1, 2) and hi == (3, 3)


def test_region_json_sorted():
    r = region_from_sites({(1, 0), (0, 1)})
    assert r.to_json() == [[0, 1], [1, 0]]


def test_box_with_boundary_complete():
    r1 = box_with_boundary(TRIANGULAR, 3)
    assert frozenset(box_sites((0, 0), 3)) <= frozenset(r1)


def test_region_is_a_trimmed_read_only_value():
    mask = np.zeros((4, 5), dtype=bool)
    mask[1, 2] = mask[2, 3] = True
    r = Region((10, 20), mask)
    assert r.origin == (11, 22) and r.shape == (2, 2)
    same = region_from_sites({(12, 23), (11, 22)})
    assert r == same and hash(r) == hash(same) and r != box_sites((11, 22), 0)
    assert not r.mask.flags.writeable
    mask[0, 0] = True  # the region holds its own copy
    assert len(r) == 2 and list(r) == [(11, 22), (12, 23)]
    assert (12, 23) in r and (11, 23) not in r and (0, 0) not in r and (11, 22, 0) not in r
    assert r <= box_sites((11, 22), 1) and not box_sites((11, 22), 1) <= r
    assert r.mask_in((10, 20), (4, 5)).sum() == 2 and r.mask_in((10, 20), (4, 5))[2, 3]
    with pytest.raises(ValueError):
        r.mask_in((12, 22), (3, 3))
    empty = Region((5, 5), np.zeros((2, 2), dtype=bool))
    assert empty == region_from_sites((), dim=2) and empty <= r and len(empty) == 0


@given(st.frozensets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=30),
       st.sampled_from([TRIANGULAR, Z2_BOND]))
@settings(max_examples=60)
def test_region_matches_site_sets(sites, lattice):
    # plain Python sets as the reference: sites, JSON order, subsets, boundary
    r = region_from_sites(sites, dim=2)
    assert frozenset(r) == sites and len(r) == len(sites)
    assert r.to_json() == sorted(list(s) for s in sites)
    box = box_sites((0, 0), 3)
    assert (r <= box) == (sites <= frozenset(box))
    brute = {
        (x + dx, y + dy) for x, y in sites for dx, dy in lattice.neighbor_offsets()
    } - sites
    assert frozenset(outer_boundary(r, lattice)) == brute
