from __future__ import annotations

import math

import numpy as np
import pytest

from handbuilt import config_from_edges, config_from_sites, element_states
from oracles import element_bits, reference_cells
from percolab import grid
from percolab.lattice import (
    LatticeKind,
    LatticeSpec,
    TRIANGULAR,
    Z2_BOND,
    box_sites,
    box_with_boundary,
)
from percolab.sampler import (
    Config,
    _bits_batch,
    derive_stream,
    derive_streams,
    edge_open_batch,
    open_cells_batch,
    sample_config,
    site_open_batch,
)

CARRIER = box_with_boundary(TRIANGULAR, 3)
BOND_CARRIER = box_with_boundary(Z2_BOND, 3)


def _index(cfg, site):
    """Raster index of ``site`` in ``cfg``: its offset from the region's origin."""
    return tuple(c - o for c, o in zip(site, cfg.region.origin))


def test_p_one_all_open():
    cfg = sample_config(TRIANGULAR, CARRIER, 1.0, 7)
    assert cfg.site_open[cfg.region.mask].all()
    bond = sample_config(Z2_BOND, BOND_CARRIER, 1.0, 7)
    assert element_states(bond).all()


def test_p_zero_all_closed():
    cfg = sample_config(TRIANGULAR, CARRIER, 0.0, 7)
    assert not cfg.site_open.any()
    bond = sample_config(Z2_BOND, BOND_CARRIER, 0.0, 7)
    assert not element_states(bond).any()


def test_p_out_of_range():
    with pytest.raises(ValueError):
        sample_config(TRIANGULAR, CARRIER, 1.5, 7)


def test_bitwise_determinism():
    a = sample_config(TRIANGULAR, CARRIER, 0.5, 12345)
    b = sample_config(TRIANGULAR, CARRIER, 0.5, 12345)
    assert np.array_equal(a.cells, b.cells)
    c = sample_config(TRIANGULAR, CARRIER, 0.37, 12345)
    d = sample_config(TRIANGULAR, CARRIER, 0.37, 12345)
    assert np.array_equal(c.cells, d.cells)


def test_derive_stream_pinned_values():
    # platform-independence contract: exact SplitMix64 outputs
    assert derive_stream(0, 0) == 16294208416658607535
    assert derive_stream(0, 1) == 7960286522194355700
    assert derive_stream(42, 0) == 13679457532755275413


def test_derive_stream_injective_small_range():
    seen = {derive_stream(9, i) for i in range(10_000)}
    assert len(seen) == 10_000


def test_derive_stream_stability_and_validation():
    assert derive_stream(5, 0) == derive_stream(5, 0)
    with pytest.raises(ValueError):
        derive_stream(5, -1)


@pytest.mark.parametrize("master", [0, 2**64 - 1, 0x2545F4914F6CDD1D, -1])
def test_derive_streams_equal_derive_stream(master):
    # the replica-batch loop derives its seeds in numpy uint64, whose products
    # and sums wrap mod 2**64 as the masked Python integers do
    got = derive_streams(master, 0, 10**6)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_stream(master, i) for i in range(10**6)]
    near = 2**40
    assert derive_streams(master, near - 500, near + 500).tolist() == [
        derive_stream(master, i) for i in range(near - 500, near + 500)
    ]


def test_derive_streams_random_masters_and_ranges():
    rng = np.random.default_rng(25)
    for master in rng.integers(0, 2**64, size=20, dtype=np.uint64).tolist():
        start = int(rng.integers(0, 2**62))
        assert derive_streams(master, start, start + 300).tolist() == [
            derive_stream(master, i) for i in range(start, start + 300)
        ]
    assert derive_streams(3, 7, 7).size == 0
    with pytest.raises(ValueError):
        derive_streams(5, -1, 3)


def test_distinct_masters_decorrelated():
    n = 1_000_000
    a = np.array([derive_stream(1, i) & 0xFFFFFFFF for i in range(n // 100)], dtype=np.float64)
    b = np.array([derive_stream(2, i) & 0xFFFFFFFF for i in range(n // 100)], dtype=np.float64)
    # per-index correlation over a long stretch of the two streams
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02
    bits_a, bits_b = _bits_batch(0.5, n, [derive_stream(1, 0), derive_stream(2, 0)])
    corr_bits = np.corrcoef(bits_a.astype(float), bits_b.astype(float))[0, 1]
    assert abs(corr_bits) < 0.01


def test_open_fraction_binomial():
    n_rep = 1000
    count = len(CARRIER)
    for p in (0.5, 0.3):  # exercises both the bit path and the uniform path
        total = int(_bits_batch(p, count, [derive_stream(77, i) for i in range(n_rep)]).sum())
        n_tot = n_rep * count
        sigma = math.sqrt(n_tot * p * (1 - p))
        assert abs(total - n_tot * p) <= 3 * sigma


def test_site_element_order_is_lexicographic():
    cfg = sample_config(TRIANGULAR, CARRIER, 0.5, 99)
    states = element_states(cfg)
    ordered_sites = sorted(CARRIER)
    for idx in (0, 5, len(ordered_sites) - 1):
        s = ordered_sites[idx]
        assert states[idx] == cfg.site_open[_index(cfg, s)]


def test_bond_element_order_site_major_axis_ascending():
    cfg = sample_config(Z2_BOND, BOND_CARRIER, 0.5, 99)
    states = element_states(cfg)
    elements = []
    for u in sorted(BOND_CARRIER):
        for axis, e in enumerate([(1, 0), (0, 1)]):
            v = (u[0] + e[0], u[1] + e[1])
            if v in BOND_CARRIER:
                elements.append((u, axis))
    assert len(elements) == len(states)
    for idx in (0, 17, len(elements) - 1):
        u, axis = elements[idx]
        assert states[idx] == cfg.edge_open[axis][_index(cfg, u)]


def test_batch_matches_single_config():
    seeds = [derive_stream(5, i) for i in range(4)]
    batch = site_open_batch(
        sample_config(TRIANGULAR, CARRIER, 0.5, seeds[0]).region.mask, 0.5, seeds
    )
    for i, s in enumerate(seeds):
        single = sample_config(TRIANGULAR, CARRIER, 0.5, s)
        assert np.array_equal(batch[i], single.site_open)
    ebatch = edge_open_batch(
        sample_config(Z2_BOND, BOND_CARRIER, 0.5, seeds[0]).region.mask, 2, 0.5, seeds
    )
    assert ebatch.shape == (len(seeds), 17, 17)  # decorated grid of the 9 x 9 raster
    for i, s in enumerate(seeds):
        single = sample_config(Z2_BOND, BOND_CARRIER, 0.5, s)
        assert np.array_equal(ebatch[i], single.cells)
        # the decorated grid holds the raw stream, element k on element k's cell
        states = element_states(single)
        assert np.array_equal(states, element_bits(0.5, len(states), s))


def test_hand_built_configs():
    region = box_sites((0, 0), 2)
    cfg = config_from_sites(TRIANGULAR, region, [(0, 0), (1, 1)])
    assert cfg.site_open[_index(cfg, (1, 1))]
    assert not cfg.site_open[_index(cfg, (1, 0))]
    with pytest.raises(ValueError):
        config_from_sites(TRIANGULAR, region, [(9, 9)])
    bond = config_from_edges(Z2_BOND, region, [((0, 0), (1, 0)), ((0, 1), (0, 0))])
    assert bond.edge_open[0][_index(bond, (0, 0))]
    assert bond.edge_open[1][_index(bond, (0, 0))]
    with pytest.raises(ValueError):
        config_from_edges(Z2_BOND, region, [((0, 0), (1, 1))])


@pytest.mark.parametrize("carrier", [CARRIER, BOND_CARRIER], ids=["tri", "z2bond"])
def test_configs_compare_by_value(carrier):
    lattice = TRIANGULAR if carrier is CARRIER else Z2_BOND
    cfg = sample_config(lattice, carrier, 0.5, 3)
    assert cfg == sample_config(lattice, carrier, 0.5, 3)
    assert cfg != sample_config(lattice, carrier, 0.5, 4)
    assert cfg != sample_config(lattice, carrier, 0.4, 3)
    flipped = cfg.cells.copy()
    flipped.flat[0] = not flipped.flat[0]
    assert cfg != Config(lattice, carrier, cfg.p, cfg.seed, flipped)
    assert cfg != "not a config"
    region = box_sites((0, 0), 2)
    hand = config_from_sites(TRIANGULAR, region, [(0, 0), (1, 1)])
    assert hand == config_from_sites(TRIANGULAR, region, [(0, 0), (1, 1)])
    assert hand != config_from_sites(TRIANGULAR, region, [(0, 0)])


Z3_BOND = LatticeSpec(LatticeKind.Z_BOND, 3)
REFERENCE_PS = (0.5, 0.37, 0.2488126, 0.0, 1.0)
BIG_SEEDS = [2**64 - 1, 2**63, 2**63 + 12345]


def _reference_masks(lattice):
    """Carrier rasters, full rectangles and irregular masks with many runs."""
    rng = np.random.default_rng(2024 + lattice.d + lattice.site_mode)
    small = (7, 9) if lattice.d == 2 else (4, 5, 3)
    masks = [
        box_with_boundary(lattice, 1).mask,
        box_with_boundary(lattice, 3 if lattice.d == 2 else 2).mask,
        np.ones(small, dtype=bool),
        np.ones((1,) * lattice.d, dtype=bool),
    ]
    for density in (0.3, 0.6, 0.9):
        masks.append(rng.random(small) < density)
    return masks


def _masks_with_elements(lattice, count):
    """A one-row strip and a scattered mask, each with exactly ``count`` elements."""
    if lattice.site_mode:
        scattered = np.zeros((9, 9), dtype=bool)
        scattered.ravel()[np.random.default_rng(count).permutation(81)[:count]] = True
        return [np.ones((1, count), dtype=bool), scattered]
    strip = np.ones((1,) * (lattice.d - 1) + (count + 1,), dtype=bool)
    if count == 0:
        return [strip, np.zeros((3,) * lattice.d, dtype=bool)]
    # a comb: a full first row plus every other column; a row of w sites has
    # w - 1 edges and each tooth of height h adds h edges
    side = count + 1
    comb = np.zeros((side,) * 2, dtype=bool)
    comb[0] = True
    left, col = count - (side - 1), 0
    while left > 0:
        h = min(left, side - 1)
        comb[1 : 1 + h, col] = True
        left -= h
        col += 2
    return [strip, comb.reshape((1,) * (lattice.d - 2) + comb.shape)]


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND, Z3_BOND], ids=str)
@pytest.mark.parametrize("p", REFERENCE_PS)
def test_batch_matches_reference_sampler(lattice, p):
    seeds = [derive_stream(31, i) for i in range(3)] + BIG_SEEDS
    for mask in _reference_masks(lattice):
        got = open_cells_batch(lattice, mask, p, seeds)
        assert got.dtype == bool
        assert np.array_equal(got, reference_cells(lattice, mask, p, seeds))


def _n_elements(lattice, mask):
    if lattice.site_mode:
        return int(mask.sum())
    return sum(
        int((mask.take(range(n - 1), a) & mask.take(range(1, n), a)).sum())
        for a, n in enumerate(mask.shape)
    )


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND, Z3_BOND], ids=str)
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65])
def test_batch_matches_reference_at_word_edges(lattice, count):
    seeds = [derive_stream(8, 0), 2**64 - 1]
    for mask in _masks_with_elements(lattice, count):
        assert _n_elements(lattice, mask) == count
        for p in REFERENCE_PS:
            got = open_cells_batch(lattice, mask, p, seeds)
            assert np.array_equal(got, reference_cells(lattice, mask, p, seeds))


def test_bits_are_the_generator_stream():
    # the raw-word mapping of _bits_batch against numpy's own Generator draws
    seeds = [0, 1, derive_stream(3, 4)] + BIG_SEEDS
    for p in REFERENCE_PS + (1e-300,):
        for count in (0, 1, 7, 8, 9, 63, 64, 65, 200):
            got = _bits_batch(p, count, seeds)
            assert got.dtype == bool and got.shape == (len(seeds), count)
            for row, seed in zip(got, seeds):
                assert np.array_equal(row, element_bits(p, count, seed)), (p, count, seed)


def _joined_isin(la, lb):
    pool = la[la > 0]
    if pool.size == 0:
        return np.zeros(la.shape[0], dtype=bool)
    return ((lb > 0) & np.isin(lb, pool)).reshape(lb.shape[0], -1).any(axis=1)


def test_joined_matches_isin():
    rng = np.random.default_rng(5)
    cases = [
        (np.zeros((3, 4), dtype=np.int32), rng.integers(0, 9, (3, 5)).astype(np.int32)),
        (np.zeros((2, 0), dtype=np.int32), rng.integers(0, 9, (2, 6)).astype(np.int32)),
        (rng.integers(0, 9, (4, 6)).astype(np.int32), np.zeros((4, 0), dtype=np.int32)),
        (np.array([[0, 3, 0]], dtype=np.int32), np.array([[5, 3]], dtype=np.int32)),
        (np.array([[0, 3, 0]], dtype=np.int32), np.array([[5, 4]], dtype=np.int32)),
    ]
    for B in (1, 2, 7):
        for top in (3, 50, 2_000_000):
            la = rng.integers(0, top, (B, 5, 4)).astype(np.int32)
            la[rng.random(la.shape) < 0.5] = 0
            # labels of lb run past the largest label of la
            lb = rng.integers(0, 2 * top, (B, 6)).astype(np.int32)
            lb[:, 0] = la[:, 0, 0]
            cases.append((la, lb))
            cases.append((la, rng.integers(top, 2 * top + 1, (B, 3)).astype(np.int32)))
    for la, lb in cases:
        want = _joined_isin(la, lb)
        got = grid._joined(la, lb)
        assert got.shape == want.shape and np.array_equal(got, want)
