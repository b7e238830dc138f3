from __future__ import annotations

import math

import numpy as np
import pytest

from percolab.lattice import LatticeKind, TRIANGULAR, Z2_BOND, box_sites, box_with_boundary
from percolab.sampler import (
    config_from_edges,
    config_from_sites,
    derive_stream,
    edge_open_batch,
    element_bits,
    sample_config,
    site_open_batch,
)

CARRIER = box_with_boundary(TRIANGULAR, 3)
BOND_CARRIER = box_with_boundary(Z2_BOND, 3)


def test_p_one_all_open():
    cfg = sample_config(TRIANGULAR, CARRIER, 1.0, 7)
    assert cfg.site_open[cfg.carrier_mask].all()
    bond = sample_config(Z2_BOND, BOND_CARRIER, 1.0, 7)
    assert bond.element_states().all()


def test_p_zero_all_closed():
    cfg = sample_config(TRIANGULAR, CARRIER, 0.0, 7)
    assert not cfg.site_open.any()
    bond = sample_config(Z2_BOND, BOND_CARRIER, 0.0, 7)
    assert not bond.element_states().any()


def test_p_out_of_range():
    with pytest.raises(ValueError):
        sample_config(TRIANGULAR, CARRIER, 1.5, 7)


def test_bitwise_determinism():
    a = sample_config(TRIANGULAR, CARRIER, 0.5, 12345)
    b = sample_config(TRIANGULAR, CARRIER, 0.5, 12345)
    assert np.array_equal(a.packed_states(), b.packed_states())
    c = sample_config(TRIANGULAR, CARRIER, 0.37, 12345)
    d = sample_config(TRIANGULAR, CARRIER, 0.37, 12345)
    assert np.array_equal(c.packed_states(), d.packed_states())


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


def test_distinct_masters_decorrelated():
    n = 1_000_000
    a = np.array([derive_stream(1, i) & 0xFFFFFFFF for i in range(n // 100)], dtype=np.float64)
    b = np.array([derive_stream(2, i) & 0xFFFFFFFF for i in range(n // 100)], dtype=np.float64)
    # per-index correlation over a long stretch of the two streams
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02
    bits_a = element_bits(0.5, n, derive_stream(1, 0))
    bits_b = element_bits(0.5, n, derive_stream(2, 0))
    corr_bits = np.corrcoef(bits_a.astype(float), bits_b.astype(float))[0, 1]
    assert abs(corr_bits) < 0.01


def test_open_fraction_binomial():
    n_rep = 1000
    count = len(CARRIER)
    for p in (0.5, 0.3):  # exercises both the bit path and the uniform path
        total = 0
        for i in range(n_rep):
            total += int(element_bits(p, count, derive_stream(77, i)).sum())
        n_tot = n_rep * count
        sigma = math.sqrt(n_tot * p * (1 - p))
        assert abs(total - n_tot * p) <= 3 * sigma


def test_site_element_order_is_lexicographic():
    cfg = sample_config(TRIANGULAR, CARRIER, 0.5, 99)
    states = cfg.element_states()
    ordered_sites = sorted(CARRIER.sites)
    for idx in (0, 5, len(ordered_sites) - 1):
        s = ordered_sites[idx]
        assert states[idx] == cfg.site_open[cfg.raster.index(s)]


def test_bond_element_order_site_major_axis_ascending():
    cfg = sample_config(Z2_BOND, BOND_CARRIER, 0.5, 99)
    states = cfg.element_states()
    elements = []
    for u in sorted(BOND_CARRIER.sites):
        for axis, e in enumerate([(1, 0), (0, 1)]):
            v = (u[0] + e[0], u[1] + e[1])
            if v in BOND_CARRIER:
                elements.append((u, axis))
    assert len(elements) == len(states)
    for idx in (0, 17, len(elements) - 1):
        u, axis = elements[idx]
        assert states[idx] == cfg.edge_open[axis][cfg.raster.index(u)]


def test_batch_matches_single_config():
    seeds = [derive_stream(5, i) for i in range(4)]
    batch = site_open_batch(
        sample_config(TRIANGULAR, CARRIER, 0.5, seeds[0]).carrier_mask, 0.5, seeds
    )
    for i, s in enumerate(seeds):
        single = sample_config(TRIANGULAR, CARRIER, 0.5, s)
        assert np.array_equal(batch[i], single.site_open)
    ebatch = edge_open_batch(
        sample_config(Z2_BOND, BOND_CARRIER, 0.5, seeds[0]).carrier_mask, 2, 0.5, seeds
    )
    assert ebatch.shape == (len(seeds), 17, 17)  # decorated grid of the 9 x 9 raster
    for i, s in enumerate(seeds):
        single = sample_config(Z2_BOND, BOND_CARRIER, 0.5, s)
        assert np.array_equal(ebatch[i], single.cells)
        # the decorated grid holds the raw stream, element k on element k's cell
        assert np.array_equal(single.element_states(), element_bits(0.5, single.n_elements(), s))


def test_hand_built_configs():
    region = box_sites((0, 0), 2)
    cfg = config_from_sites(TRIANGULAR, region, [(0, 0), (1, 1)])
    assert cfg.site_open[cfg.raster.index((1, 1))]
    assert not cfg.site_open[cfg.raster.index((1, 0))]
    with pytest.raises(ValueError):
        config_from_sites(TRIANGULAR, region, [(9, 9)])
    bond = config_from_edges(Z2_BOND, region, [((0, 0), (1, 0)), ((0, 1), (0, 0))])
    assert bond.edge_open[0][bond.raster.index((0, 0))]
    assert bond.edge_open[1][bond.raster.index((0, 0))]
    with pytest.raises(ValueError):
        config_from_edges(Z2_BOND, region, [((0, 0), (1, 1))])


def test_config_json_dump():
    cfg = sample_config(TRIANGULAR, CARRIER, 0.5, 3)
    doc = cfg.to_json()
    assert doc["lattice"]["kind"] == LatticeKind.TRIANGULAR_SITE.value
    assert bytes.fromhex(doc["states_hex"]) == cfg.packed_states().tobytes()
