from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from handbuilt import config_from_edges, config_from_sites
from oracles import bond_components, connected_in, site_components
from percolab import clusters, estimators, grid
from percolab.estimators import read_config
from percolab.lattice import (
    LatticeSpec,
    LatticeKind,
    TRIANGULAR,
    Z2_BOND,
    box_sites,
    box_with_boundary,
    rect_region,
    site_structure,
)
from percolab.sampler import Config, derive_stream, sample_config

TRI_OFF = TRIANGULAR.neighbor_offsets()
Z3_BOND = LatticeSpec(LatticeKind.Z_BOND, 3)


def tri_config(n, p, seed, radius=None):
    carrier = box_with_boundary(TRIANGULAR, radius if radius is not None else 2 * n)
    return sample_config(TRIANGULAR, carrier, p, seed)


def sizes(labels):
    """The size of each cluster of ``labels``, by label id: a bincount of the label grid."""
    return np.bincount(labels.label_grid.ravel(), minlength=1)[1:]


def arm(cfg, m, n):
    return bool(read_config(cfg, ("arm", ((m, n),)))[0])


def crossing(cfg, rect, axis):
    """The rectangle ``rect`` (a full-mask region) is crossed along ``axis`` inside it."""
    return bool(read_config(cfg, ("crossing", rect.origin, tuple(n - 1 for n in rect.shape), axis)))


def open_sites_of(cfg):
    idx = np.argwhere(cfg.site_open)
    return {tuple(int(c + o) for c, o in zip(row, cfg.raster.origin)) for row in idx}


def open_edges_of(cfg, region):
    out = []
    for axis, e in enumerate([(1, 0), (0, 1)]):
        for row in np.argwhere(cfg.edge_open[axis]):
            u = tuple(int(c + o) for c, o in zip(row, cfg.raster.origin))
            v = (u[0] + e[0], u[1] + e[1])
            if u in region and v in region:
                out.append((u, v))
    return out


def test_all_open_single_cluster():
    cfg = tri_config(2, 1.0, 1, radius=2)
    labels = clusters.label_clusters(cfg, box_sites((0, 0), 2))
    assert sizes(labels).tolist() == [25]


def test_all_closed_no_clusters():
    cfg = tri_config(2, 0.0, 1, radius=2)
    labels = clusters.label_clusters(cfg, box_sites((0, 0), 2))
    assert sizes(labels).size == 0


def test_region_escapes_carrier():
    cfg = tri_config(2, 0.5, 1, radius=2)
    with pytest.raises(ValueError):
        clusters.label_clusters(cfg, box_sites((0, 0), 10))


def label_at(labels, site):
    """The label of ``site`` in ``labels.label_grid``, indexed from ``labels.origin``."""
    return labels.label_grid[tuple(c - o for c, o in zip(site, labels.origin))]


def _partition_from_labels(labels, sites):
    groups = {}
    for s in sites:
        lab = label_at(labels, s)
        if lab > 0:
            groups.setdefault(lab, set()).add(s)
    return {frozenset(g) for g in groups.values()}


def test_site_labels_match_bfs_oracle():
    region = box_sites((0, 0), 8)
    for i in range(40):
        cfg = sample_config(TRIANGULAR, region, 0.5, derive_stream(11, i))
        labels = clusters.label_clusters(cfg, region)
        mine = _partition_from_labels(labels, region)
        oracle = set(site_components(open_sites_of(cfg), TRI_OFF))
        assert mine == oracle


def test_bond_labels_match_bfs_oracle():
    region = box_sites((0, 0), 6)
    for i in range(30):
        cfg = sample_config(Z2_BOND, region, 0.5, derive_stream(13, i))
        labels = clusters.label_clusters(cfg, region)
        mine = _partition_from_labels(labels, region)
        oracle = set(bond_components(region, open_edges_of(cfg, region)))
        assert mine == oracle
        assert int(sizes(labels).sum()) == len(region)


def open_edges_nd(cfg, region):
    """Open edges with both ends in ``region``, read from the per-axis arrays."""
    out = []
    for axis, edges in enumerate(cfg.edge_open):
        for row in np.argwhere(edges):
            u = tuple(int(c + o) for c, o in zip(row, cfg.raster.origin))
            v = tuple(c + (a == axis) for a, c in enumerate(u))
            if u in region and v in region:
                out.append((u, v))
    return out


@pytest.mark.parametrize("lattice, radius, count", [(Z2_BOND, 5, 25), (Z3_BOND, 2, 15)])
def test_bond_labels_on_subregion_match_bfs_oracle(lattice, radius, count):
    # the carrier is one layer larger than the labeled region, so open edges
    # leave the region and must join nothing
    carrier = box_with_boundary(lattice, radius)
    region = box_sites((0,) * lattice.d, radius)
    for i in range(count):
        cfg = sample_config(lattice, carrier, 0.5, derive_stream(41, i))
        labels = clusters.label_clusters(cfg, region)
        mine = _partition_from_labels(labels, region)
        oracle = set(bond_components(region, open_edges_nd(cfg, region)))
        assert mine == oracle
        assert int(sizes(labels).sum()) == len(region)


def test_ith_largest_hand_built():
    # clusters of sizes 5, 3, 3, 1 on the triangular lattice
    region = box_sites((0, 0), 5)
    open_sites = (
        [(x, -4) for x in range(-2, 3)]           # 5 in a row
        + [(-4, y) for y in range(0, 3)]          # 3 in a column
        + [(4, 0), (4, 1), (4, 2)]                # another 3
        + [(0, 4)]                                 # singleton
    )
    cfg = config_from_sites(TRIANGULAR, region, open_sites)
    labels = clusters.label_clusters(cfg, region)
    assert sorted(sizes(labels).tolist(), reverse=True) == [5, 3, 3, 1]


def test_ith_largest_all_open_3d():
    lattice = LatticeSpec(LatticeKind.Z_BOND, 3)
    region = box_sites((0, 0, 0), 2)
    cfg = sample_config(lattice, region, 1.0, 3)
    labels = clusters.label_clusters(cfg, region)
    assert sizes(labels).tolist() == [125]


def test_long_arm_set_trivial():
    # V_n counts the sites of box(n) joined to the boundary of box(2n)
    assert read_config(tri_config(2, 1.0, 5), ("vn", 2)) == len(box_sites((0, 0), 2))
    assert read_config(tri_config(2, 0.0, 5), ("vn", 2)) == 0


def test_long_arm_set_matches_oracle():
    n = 3
    for i in range(25):
        cfg = tri_config(n, 0.5, derive_stream(17, i))
        opens = open_sites_of(cfg)
        ring = {
            s
            for s in cfg.region
            if s not in box_sites((0, 0), 2 * n)
        }
        oracle = set()
        inner = frozenset(box_sites((0, 0), n))
        for comp in site_components(opens, TRI_OFF):
            if comp & ring:
                oracle |= comp & inner
        assert read_config(cfg, ("vn", n)) == len(oracle)


def test_long_arm_carrier_too_small():
    # the ring of box(2n) needs box(2n + 1) in the raster
    cfg = tri_config(2, 0.5, 1, radius=2)
    with pytest.raises(ValueError, match="escapes the raster"):
        read_config(cfg, ("vn", 2))


def test_arm_event_conventions():
    # the ring of box(n) needs box(n + 1) in the raster: box(n) plus boundary holds it
    cfg = tri_config(5, 1.0, 1, radius=5)
    assert arm(cfg, 1, 5) is True
    with pytest.raises(ValueError, match="escapes the raster"):
        arm(cfg, 1, 6)
    assert arm(tri_config(5, 0.0, 1, radius=5), 1, 5) is False


def test_arm_event_monotone_in_scales():
    pairs = ((2, 3), (2, 5), (2, 8), (1, 8), (3, 8), (6, 8))
    for i in range(15):
        cfg = tri_config(8, 0.5, derive_stream(23, i), radius=8)
        vals_n, vals_m = np.split(read_config(cfg, ("arm", pairs)), 2)
        assert all(a or not b for a, b in zip(vals_n, vals_n[1:]))  # nonincreasing in n
        assert all(b or not a for a, b in zip(vals_m, vals_m[1:]))  # nondecreasing in m


def _boundary(lattice, r):
    """The outer vertex boundary of box(r)."""
    return frozenset(box_with_boundary(lattice, r)) - frozenset(box_sites((0, 0), r))


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["tri", "z2bond"])
def test_events_on_wide_carriers_match_confined_connected_in(lattice):
    # the arm rows read the labels of the whole raster and the crossings their
    # rectangle; the breadth-first oracles.connected_in confines its paths to
    # box(n) plus boundary or to the rectangle
    carrier = box_with_boundary(lattice, 10)
    rect = rect_region((-4, -3), (8, 6))
    slabs = {
        0: (rect_region((-4, -3), (0, 6)), rect_region((4, -3), (0, 6))),
        1: (rect_region((-4, -3), (8, 0)), rect_region((-4, 3), (8, 0))),
    }
    seen = set()
    for i in range(30):
        cfg = sample_config(lattice, carrier, 0.4, derive_stream(37, i))
        for m, n in ((1, 4), (2, 6), (3, 8)):
            inside = box_with_boundary(lattice, n)
            want = connected_in(cfg, inside, _boundary(lattice, m), _boundary(lattice, n))
            assert arm(cfg, m, n) == want, (i, m, n)
            seen.add(("arm", want))
        for axis, ends in slabs.items():
            want = connected_in(cfg, rect, *ends)
            assert crossing(cfg, rect, axis) == want, (i, axis)
            seen.add(("crossing", want))
    assert len(seen) == 4  # both outcomes of both events occur


def test_crossing_trivial_and_line():
    rect = rect_region((0, 0), (4, 2))
    carrier = box_with_boundary(TRIANGULAR, 6)
    assert crossing(sample_config(TRIANGULAR, carrier, 1.0, 1), rect, 0)
    assert not crossing(sample_config(TRIANGULAR, carrier, 0.0, 1), rect, 0)
    line = config_from_sites(TRIANGULAR, carrier, [(x, 1) for x in range(0, 5)])
    assert crossing(line, rect, 0)
    assert not crossing(line, rect, 1)
    col = config_from_sites(TRIANGULAR, carrier, [(2, y) for y in range(0, 3)])
    assert crossing(col, rect, 1)


def test_crossing_requires_rectangle():
    # a crossing reads a rectangle, corner and widths, that lies in the raster (box(4) here)
    cfg = tri_config(3, 1.0, 1, radius=3)
    box, rect = box_sites((0, 0), 1), rect_region((-1, -1), (2, 2))
    assert box == rect  # a box is the full-mask rectangle with the same origin and shape
    assert crossing(cfg, rect, 0) and crossing(cfg, rect_region((-4, -4), (8, 8)), 1)
    for outside in (rect_region((0, 0), (5, 2)), rect_region((-5, 0), (2, 2))):
        with pytest.raises(ValueError, match="escapes the raster"):
            crossing(cfg, outside, 0)


def test_crossing_transpose_equivariance():
    rect = rect_region((0, 0), (5, 3))
    rect_t = rect_region((0, 0), (3, 5))
    carrier = box_sites((0, 0), 9)
    for i in range(25):
        cfg = sample_config(TRIANGULAR, carrier, 0.5, derive_stream(29, i))
        flipped = config_from_sites(
            TRIANGULAR, carrier, [(y, x) for (x, y) in open_sites_of(cfg)]
        )
        assert crossing(cfg, rect, 1) == crossing(flipped, rect_t, 0)


def test_bond_crossing_trivial():
    rect = rect_region((0, 0), (3, 2))
    carrier = box_sites((0, 0), 5)
    assert crossing(sample_config(Z2_BOND, carrier, 1.0, 1), rect, 0)
    assert not crossing(sample_config(Z2_BOND, carrier, 0.0, 1), rect, 0)
    path = config_from_edges(Z2_BOND, carrier, [((x, 1), (x + 1, 1)) for x in range(0, 3)])
    assert crossing(path, rect, 0)
    assert not crossing(path, rect, 1)


def test_bond_crop_ignores_edges_leaving_it():
    # (0, 0) and (3, 0) are joined only by a detour below the rectangle
    carrier = box_sites((0, 0), 5)
    rect = rect_region((0, 0), (3, 2))
    detour = [((0, 0), (0, -1)), ((3, -1), (3, 0))] + [((x, -1), (x + 1, -1)) for x in range(3)]
    cfg = config_from_edges(Z2_BOND, carrier, detour)
    whole = clusters.label_clusters(cfg, carrier)
    assert label_at(whole, (0, 0)) == label_at(whole, (3, 0))
    inside = clusters.label_clusters(cfg, rect)
    assert label_at(inside, (0, 0)) != label_at(inside, (3, 0))
    assert not crossing(cfg, rect, 0)
    crop = estimators._crop_labels(Z2_BOND, cfg.cells[None], cfg.raster.rect_slices((0, 0), (3, 2)))
    assert crop.shape == (1, 4, 3)
    assert crop[0, 0, 0] != crop[0, 3, 0] and np.unique(crop).size == 12
    # the same path inside the rectangle does cross it
    inner = [((x, 0), (x + 1, 0)) for x in range(3)]
    assert crossing(config_from_edges(Z2_BOND, carrier, inner), rect, 0)


def test_bond_crop_3d_ignores_edges_leaving_it():
    # (0, 0, 0) and (1, 0, 0) are joined only through the layer z = -1
    carrier = box_sites((0, 0, 0), 3)
    detour = [((0, 0, 0), (0, 0, -1)), ((0, 0, -1), (1, 0, -1)), ((1, 0, -1), (1, 0, 0))]
    cfg = config_from_edges(Z3_BOND, carrier, detour)
    whole = clusters.label_clusters(cfg, carrier)
    assert label_at(whole, (0, 0, 0)) == label_at(whole, (1, 0, 0))
    above = box_sites((0, 0, 1), 1)
    inside = clusters.label_clusters(cfg, above)
    assert label_at(inside, (0, 0, 0)) != label_at(inside, (1, 0, 0))
    crop = estimators._crop_labels(Z3_BOND, cfg.cells[None], cfg.raster.box_slices((0, 0, 1), 1))
    assert crop.shape == (1, 3, 3, 3) and np.unique(crop).size == len(above)


def test_monotonicity_under_opening():
    n = 3
    rng = np.random.default_rng(7)
    for i in range(10):
        cfg = tri_config(n, 0.4, derive_stream(37, i))
        closed = np.argwhere(cfg.region.mask & ~cfg.site_open)
        pick = closed[rng.integers(0, len(closed), size=min(30, len(closed)))]
        more = cfg.site_open.copy()
        more[tuple(pick.T)] = True
        cfg2 = Config(cfg.lattice, cfg.region, cfg.p, None, cells=more)
        assert read_config(cfg2, ("vn", n)) >= read_config(cfg, ("vn", n))
        l1 = clusters.label_clusters(cfg, box_sites((0, 0), n))
        l2 = clusters.label_clusters(cfg2, box_sites((0, 0), n))
        assert sizes(l2).max() >= sizes(l1).max()
        rect = rect_region((-n, -n), (2 * n, 2 * n))
        if crossing(cfg, rect, 0):
            assert crossing(cfg2, rect, 0)


def test_sizes_partition_participating_sites():
    region = box_sites((0, 0), 6)
    cfg = sample_config(TRIANGULAR, region, 0.5, 123)
    labels = clusters.label_clusters(cfg, region)
    participating = cfg.site_open & region.mask_in(cfg.region.origin, cfg.region.shape)
    assert int(sizes(labels).sum()) == int(participating.sum())
    assert (sizes(labels) > 0).all()  # every label id up to the largest names a cluster


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND, Z3_BOND], ids=["tri", "z2bond", "z3bond"])
def test_label_grid_numbers_clusters_as_the_grid_alone(lattice):
    # a configuration is labelled as a strip of one, whose label values are those
    # of ndimage.label on its cells alone, read at the vertices
    p, radius = (0.3, 3) if lattice.d == 3 else (0.5, 8)
    carrier = box_with_boundary(lattice, radius)
    for i in range(5):
        cfg = sample_config(lattice, carrier, p, derive_stream(4711, i))
        want = ndimage.label(cfg.cells, site_structure(lattice))[0][grid.vertex_cells(lattice)]
        assert want.max() > 1
        assert np.array_equal(clusters.label_clusters(cfg, carrier).label_grid, want), i


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["tri", "z2bond"])
def test_read_config_rejects_geometry_outside_the_raster(lattice):
    # a ring, box or rectangle that leaves the raster used to be read off its
    # clipped part: an arm row False, V_n 0, a crossing of a truncated crop True
    cfg = sample_config(lattice, box_sites((0, 0), 4), 1.0, 1)
    outside = [
        ("arm", ((1, 4),)),
        ("vn", 2),
        ("crossing", (2, 2), (5, 5), 0),
        ("crossing", (-6, -1), (3, 2), 0),
        ("dn", 8, 2),
    ]
    for observable in outside:
        with pytest.raises(ValueError, match="escapes the raster"):
            read_config(cfg, observable)
    # geometry that reaches the raster's edge is read
    assert read_config(cfg, ("arm", ((1, 3),))).tolist() == [True]
    assert read_config(cfg, ("vn", 1)) == 9
    assert read_config(cfg, ("crossing", (-4, -4), (8, 8), 1))
