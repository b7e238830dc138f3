from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from handbuilt import config_from_sites
from oracles import (
    bond_components,
    cluster_extremes,
    connected_in,
    connected_sets,
    dn_test_order,
    gluing_violations,
)
from test_golden import WIDE_CARRIER_PAIRS

from percolab import grid
from percolab import lowerbound as L
from percolab.bounds import BoundParams
from percolab.estimators import TAG_DN, PiRow, PiTable, _observe, family_seed, read_config, vn_sample
from percolab.lattice import TRIANGULAR, Z2_BOND, box_with_boundary, rect_region
from percolab.parallel import run_counters
from percolab.sampler import Config, derive_stream, open_cells_batch, sample_config
from percolab.verify import QUICK, VerifyContext, _fkg_catalog, run_criterion


def tri_config(radius, p, seed):
    return sample_config(TRIANGULAR, box_with_boundary(TRIANGULAR, radius), p, seed)


def dn_flags(p, n, u, fam, attempts, lattice=TRIANGULAR):
    """Attempts [0, attempts) of the ("dn", n, u) kernel: D holds, each violation."""
    task = (lattice, p, box_with_boundary(lattice, 2 * n), (("dn", n, u),), fam)
    (flags,) = _observe(task, 0, attempts)
    return flags.T


def dn(cfg, n, u):
    """D(n, u) holds, and where it does each violation of the gluing check, on one configuration."""
    return read_config(cfg, ("dn", n, u)).tolist()


def pi_for(n_values, value=0.9):
    table = PiTable(TRIANGULAR, 0.5)
    for n in n_values:
        table.add(PiRow(1, n, 1000, int(1000 * value), value, 0.01))
    return table


def test_event_spec_catalog():
    with pytest.raises(ValueError):
        L.EventSpec("decreasing_thing")
    with pytest.raises(ValueError):
        L.EventSpec("h_crossing")
    with pytest.raises(ValueError):
        L.EventSpec("arm", m=3, n=2)
    # m = n would read "a cluster touches the boundary of box(n)", which depends on the lattice
    with pytest.raises(ValueError):
        L.EventSpec("arm", m=3, n=3)
    assert L.EventSpec("arm", m=2, n=3).required_radius() == 3
    ev = L.EventSpec("vn_ge", n=4, threshold=10.0)
    assert ev.required_radius() == 8


def test_rsw_constant_degenerate():
    fit1 = L.estimate_rsw_constant(TRIANGULAR, 1.0, 4, 100, 3)
    assert fit1.estimate.point == 1.0 and fit1.c11 == 0.0 and not math.isinf(fit1.c11)
    fit0 = L.estimate_rsw_constant(TRIANGULAR, 0.0, 4, 100, 3)
    assert fit0.estimate.point == 0.0 and math.isinf(fit0.c11)


def test_rsw_constant_stable_at_criticality():
    fits = [
        L.estimate_rsw_constant(TRIANGULAR, 0.5, n, 2000, 7, workers=2).c11 for n in (4, 8, 16)
    ]
    assert all(0.5 < c < 2.5 for c in fits)


def test_fkg_identical_events():
    ev = L.EventSpec("h_crossing", corner=(-4, -4), widths=(8, 8))
    (res,) = L.fkg_check(TRIANGULAR, 0.5, [(ev, ev)], 800, 11)
    assert res.joint.point == res.marginal_a.point
    assert res.z >= 0.0


def test_fkg_disjoint_events_independent():
    a = L.EventSpec("h_crossing", corner=(-9, -9), widths=(8, 8))
    b = L.EventSpec("h_crossing", corner=(1, 1), widths=(8, 8))
    (res,) = L.fkg_check(TRIANGULAR, 0.5, [(a, b)], 3000, 13)
    assert abs(res.z) <= 3.0  # independence: joint = product up to noise


def test_fkg_overlapping_crossings():
    h = L.EventSpec("h_crossing", corner=(-6, -6), widths=(12, 12))
    v = L.EventSpec("v_crossing", corner=(-6, -6), widths=(12, 12))
    (res,) = L.fkg_check(TRIANGULAR, 0.5, [(h, v)], 3000, 17)
    assert res.z >= -3.0
    assert res.joint.point >= res.product - 3 * res.joint.stderr


def _catalog():
    """c11's pairs at n = 4 (carrier box(4)) between the two wide-carrier pins (box(7), box(6))."""
    return [WIDE_CARRIER_PAIRS[0], *_fkg_catalog(4), WIDE_CARRIER_PAIRS[1]]


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND])
def test_fkg_catalog_equals_its_one_pair_catalogs(lattice):
    # 600 replicas run as three chunks at 2 workers
    catalog = _catalog()
    alone = [L.fkg_check(lattice, 0.5, [pair], 600, 23)[0] for pair in catalog]
    assert L.fkg_check(lattice, 0.5, catalog, 600, 23) == alone
    assert L.fkg_check(lattice, 0.5, catalog, 600, 23, workers=2) == alone


def test_fkg_makes_one_kernel_call_per_carrier(monkeypatch):
    shapes = []

    def spy(fn, start, stop, workers):
        shapes.append(fn.args[0][2].shape)
        return run_counters(fn, start, stop, workers)

    monkeypatch.setattr(L, "run_counters", spy)
    L.fkg_check(TRIANGULAR, 0.5, _catalog(), 40, 23)
    assert shapes == [(17, 17), (11, 11), (15, 15)]  # box(r) plus boundary, r = 7, 4, 6
    shapes.clear()
    run_criterion(11, VerifyContext(7, 1, QUICK))
    assert shapes == [(27, 27)]  # all ten pairs on box(12) plus boundary


def test_vn_lower_constants_degenerate():
    table = pi_for([4, 12], value=1.0)
    rep1 = L.vn_lower_constants(vn_sample(TRIANGULAR, 1.0, 4, 200, 3), table, c12_grid=(0.1, 0.5))
    assert rep1.mean_ok
    assert rep1.c13_fits == (0.0, 0.0)  # every tail probability is 1
    rep0 = L.vn_lower_constants(vn_sample(TRIANGULAR, 0.0, 4, 200, 3), table, c12_grid=(0.1,))
    assert math.isinf(rep0.c13_fits[0])


def test_dn_event_trivial_and_masked():
    cfg1 = tri_config(16, 1.0, 5)
    assert dn(cfg1, 8, 2)[0] is True
    cfg0 = tri_config(16, 0.0, 5)
    assert dn(cfg0, 8, 2)[0] is False
    # all open except one separating column of a construction rectangle
    carrier = box_with_boundary(TRIANGULAR, 16)
    open_sites = [s for s in carrier if s[0] != 6]
    masked = config_from_sites(TRIANGULAR, carrier, open_sites)
    assert dn(masked, 8, 2)[0] is False
    with pytest.raises(ValueError, match="u must be an integer"):
        dn(cfg1, 8, 1)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_dn_geometry_checked_before_any_crossing(p):
    # box(8) cannot hold the rectangles of D(8, 2), whichever crossing fails first
    cfg = tri_config(8, p, 5)
    with pytest.raises(ValueError, match="escapes the raster"):
        dn(cfg, 8, 2)


def _row_major_rects(n, u):
    np_ = n // u
    rects = []
    for vx in range(-u, u + 1):
        for vy in range(-u, u + 1):
            rects.append(((np_ * vx, np_ * vy), (np_, 2 * np_), 0))
            rects.append(((np_ * vx, np_ * vy), (2 * np_, np_), 1))
    return rects


@pytest.mark.parametrize("n,u", [(8, 2), (12, 3), (9, 2)])
def test_dn_rects_parity_spread_order(n, u):
    rects = L._dn_rects(n, u, 2)
    assert len(rects) == 2 * (2 * u + 1) ** 2
    assert sorted(rects) == sorted(_row_major_rects(n, u))
    np_ = n // u
    groups = {}
    for corner, widths, axis in rects:
        vx, vy = corner[0] // np_, corner[1] // np_
        groups.setdefault((vx % 2, vy % 2), []).append(((vx, vy), axis))
    assert list(groups) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    parities = [(c[0] // np_ % 2, c[1] // np_ % 2) for c, _, _ in rects]
    assert parities == sorted(parities)  # each group is contiguous
    for members in groups.values():
        half = len(members) // 2
        assert [axis for _, axis in members] == [0] * half + [1] * half
        corners = [v for v, _ in members[:half]]
        assert corners == sorted(corners) == [v for v, _ in members[half:]]


def test_dn_kernel_flags_match_all_fifty_crossings():
    # the kernel stops at the first failing rectangle; the oracle tests all 50, row-major
    n, u, attempts, p = 8, 2, 200, 0.65
    fam = family_seed(7, TAG_DN, n, u)
    d, _, _ = dn_flags(p, n, u, fam, attempts)
    carrier = box_with_boundary(TRIANGULAR, 2 * n)
    offsets = TRIANGULAR.neighbor_offsets()
    for i in range(attempts):
        cfg = sample_config(TRIANGULAR, carrier, p, derive_stream(fam, i))
        open_sites = {tuple(s) for s in (np.argwhere(cfg.site_open) + carrier.origin).tolist()}
        crossings = []
        for corner, widths, axis in _row_major_rects(n, u):
            (cx, cy), (wx, wy) = corner, widths
            box = itertools.product(range(cx, cx + wx + 1), range(cy, cy + wy + 1))
            inside = {s for s in box if s in open_sites}
            first = {s for s in inside if s[axis] == corner[axis]}
            last = {s for s in inside if s[axis] == corner[axis] + widths[axis]}
            crossings.append(connected_sets(inside, offsets, first, last))
        assert d[i] == all(crossings), i
    assert 0 < d.sum() < attempts


def test_dn_kernel_flags_match_all_fifty_bond_crossings():
    # bond crops live in decorated cell space, and wide ones are labelled transposed
    n, u, attempts, p = 8, 2, 120, 0.62
    fam = family_seed(7, TAG_DN, n, u)
    d, _, _ = dn_flags(p, n, u, fam, attempts, Z2_BOND)
    carrier = box_with_boundary(Z2_BOND, 2 * n)
    for i in range(attempts):
        cfg = sample_config(Z2_BOND, carrier, p, derive_stream(fam, i))
        edges = [
            (site, (site[0] + 1 - axis, site[1] + axis))
            for axis in (0, 1)
            for site in map(tuple, (np.argwhere(cfg.edge_open[axis]) + carrier.origin).tolist())
        ]
        crossings = []
        for corner, widths, axis in _row_major_rects(n, u):
            inside = set(rect_region(corner, widths))
            ends = [{s for s in inside if s[axis] == corner[axis] + k * widths[axis]} for k in (0, 1)]
            comps = bond_components(inside, [(a, b) for a, b in edges if a in inside and b in inside])
            crossings.append(any(c & ends[0] and c & ends[1] for c in comps))
        assert d[i] == all(crossings), i
    assert 0 < d.sum() < attempts


def _spy_crop_labels(monkeypatch) -> list:
    calls = []
    crop = L._crop_labels

    def spy(lattice, batch, crops, rows=slice(None), **kwargs):
        labels = crop(lattice, batch, crops, rows, **kwargs)
        calls.append((crops, rows, labels.shape[0]))
        return labels

    monkeypatch.setattr(L, "_crop_labels", spy)
    return calls


def test_dn_kernel_labels_every_rectangle_in_order(monkeypatch):
    # at p = 1 every score ties, so each replica's crops follow _dn_rects; 10
    # survivors fill a strip of at least STRIP_CROPS crops with 2 rectangles
    # each, and crop k gathers rectangle k's cells
    calls = _spy_crop_labels(monkeypatch)
    d, _, _ = dn_flags(1.0, 8, 2, family_seed(5, TAG_DN, 8, 2), 10)
    carrier = box_with_boundary(TRIANGULAR, 16)
    cells = np.random.default_rng(5).random(carrier.shape) < 0.5
    rects = L._dn_rects(8, 2, 2)
    width = -(-L.STRIP_CROPS // 10)
    assert len(calls) == -(-len(rects) // width)
    seen = {b: [] for b in range(10)}
    for crops, (replicas, kinds), rows in calls:
        assert rows == len(replicas) == len(kinds) == 10 * width
        for b, k in zip(replicas.tolist(), kinds.tolist()):
            seen[b].append(k)
    assert all(order == list(range(len(rects))) for order in seen.values())
    crops = calls[0][0]
    for k, (corner, widths, axis) in enumerate(rects):
        want = cells[rect_region(corner, widths).slices_in(carrier)]
        got = crops.gather(cells[None], np.array([0]), np.array([k]))[:, 0, :-1]
        assert np.array_equal(got, want.T if axis == 1 else want), k
    assert d.all()


def test_dn_kernel_labels_the_sparsest_rectangle_first(monkeypatch):
    # all open but the last rectangle of _dn_rects, closed save one corner: it
    # scores lowest and fails, so it is the first crop of the only strip, which
    # holds the replica's STRIP_CROPS sparsest rectangles
    carrier = box_with_boundary(TRIANGULAR, 16)
    corner, widths, _ = L._dn_rects(8, 2, 2)[-1]
    closed = set(rect_region(corner, widths)) - {corner}
    cfg = config_from_sites(TRIANGULAR, carrier, [s for s in carrier if s not in closed])
    calls = _spy_crop_labels(monkeypatch)
    assert dn(cfg, 8, 2)[0] is False
    [(_, (replicas, kinds), rows)] = calls
    assert (replicas.tolist(), rows) == ([0] * L.STRIP_CROPS, L.STRIP_CROPS)
    assert kinds[0] == 49


def test_dn_kernel_rectangle_labelling_count(monkeypatch):
    # the test order decides how many rectangles a failing attempt labels: 14,420
    # row-major, 12,091 in parity-spread order, 5,064 sparsest-first one per
    # survivor and step, 5,263 in strips of at least STRIP_CROPS crops out of
    # 233-attempt batches, 5,248 out of 256-attempt batches (the BATCH_BYTES cap)
    calls = _spy_crop_labels(monkeypatch)
    d, _, _ = dn_flags(0.5, 32, 2, family_seed(5, TAG_DN, 32, 2), 2000)
    labelled = sum(rows for *_, rows in calls)
    assert labelled == 5_248
    assert labelled <= 12_091 // 2
    assert not d.any()


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["tri", "z2bond"])
@pytest.mark.parametrize(("n", "u"), [(32, 2), (9, 3)])
def test_dn_test_order_matches_the_row_sum_reference(lattice, n, u):
    # in-place block sums in a narrow dtype give the keys of one uint16 row sum
    carrier = box_with_boundary(lattice, 2 * n)
    geometry = L._dn_geometry(lattice, carrier, n, u)
    streams = [derive_stream(93, i) for i in range(12)]
    batches = [open_cells_batch(lattice, carrier.mask, p, streams) for p in (0.2, 0.5, 0.8)]
    batches += [np.ones_like(batches[0]), np.zeros_like(batches[0])]
    for batch in batches:
        want = dn_test_order(batch, geometry.blocks, geometry.per_axis, geometry.covers)
        assert np.array_equal(L._test_order(batch, geometry), want)


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["tri", "z2bond"])
def test_gluing_violations_match_the_reference(lattice):
    # on 50 configurations where D(8, 2) holds, and on 60 at lower p where both
    # flags take both values (D need not hold for the check to read them)
    n, u = 8, 2
    carrier = box_with_boundary(lattice, 2 * n)
    geometry = L._dn_geometry(lattice, carrier, n, u)
    fam = family_seed(11, TAG_DN, n, u)
    d, viol_i, viol_ii = dn_flags(0.6, n, u, fam, 600, lattice)
    held = np.flatnonzero(d)[:50].tolist()
    assert len(held) == 50
    configs = [(sample_config(lattice, carrier, 0.6, derive_stream(fam, i)), i) for i in held]
    configs += [(sample_config(lattice, carrier, p, derive_stream(3, i)), None)
                for p in (0.45, 0.5, 0.55) for i in range(20)]
    got = []
    for cfg, attempt in configs:
        flags = L._gluing_violations(lattice, geometry, cfg.cells[None])
        assert flags == gluing_violations(lattice, carrier, n, u, cfg.cells)
        if attempt is not None:
            assert flags == (viol_i[attempt], viol_ii[attempt])
        got.append(flags)
    assert {f[0] for f in got} == {f[1] for f in got} == {False, True}


def test_dn_event_monotone_under_opening():
    rng = np.random.default_rng(3)
    for i in range(6):
        cfg = tri_config(16, 0.93, 1000 + i)
        before = dn(cfg, 8, 2)[0]
        more = cfg.site_open | (
            rng.random(cfg.site_open.shape) < 0.05
        ) & cfg.region.mask
        cfg2 = Config(cfg.lattice, cfg.region, cfg.p, None, cells=more)
        after = dn(cfg2, 8, 2)[0]
        if before:
            assert after


def crossing_in(cfg, corner, widths, axis):
    """The rectangle's first and last slabs along ``axis`` joined inside it, by breadth-first search."""
    far = tuple(c + w if a == axis else c for a, (c, w) in enumerate(zip(corner, widths)))
    slab = tuple(0 if a == axis else w for a, w in enumerate(widths))
    ends = rect_region(corner, slab), rect_region(far, slab)
    return connected_in(cfg, rect_region(corner, widths), *ends)


def test_dn_kernel_matches_single_config_api():
    # the batch kernel and read_config read the same replicas; D is checked
    # against breadth-first crossings, which share no code with its reader
    fam = family_seed(5, TAG_DN, 8, 2)
    d, viol_i, viol_ii = dn_flags(0.6, 8, 2, fam, 40)
    assert 0 < d.sum() < 40
    carrier = box_with_boundary(TRIANGULAR, 16)
    for i in range(40):
        cfg = sample_config(TRIANGULAR, carrier, 0.6, derive_stream(fam, i))
        assert d[i] == all(crossing_in(cfg, *rect) for rect in L._dn_rects(8, 2, 2)), i
        assert dn(cfg, 8, 2) == [d[i], viol_i[i], viol_ii[i]], i


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["tri", "z2bond"])
def test_cluster_extremes_match_scatter_oracle(lattice):
    # bond labels are the stride-2 vertex view of the decorated cell labels; the
    # extremes are asked for a subset of the labels, as the check asks for the
    # labels of box(n - n')
    carrier = box_with_boundary(lattice, 12)
    for i in range(10):
        cfg = sample_config(lattice, carrier, 0.5, derive_stream(43, i))
        labels = grid.label_sites_batch(grid.strip_cells(cfg.cells[None]), lattice)[0]
        present = np.unique(labels[labels > 0])
        assert present.size > 2
        for asked in (present, present[1::2]):
            got, want = L._cluster_extremes(labels, asked), cluster_extremes(labels)
            for (lo, hi), (want_lo, want_hi) in zip(got, want, strict=True):
                assert np.array_equal(lo, want_lo[asked])
                assert np.array_equal(hi, want_hi[asked])
    empty = np.zeros((5, 5), dtype=np.int32)
    none = np.zeros(0, dtype=np.int32)
    assert [(len(lo), len(hi)) for lo, hi in L._cluster_extremes(empty, none)] == [(0, 0)] * 2
    assert [(len(lo), len(hi)) for lo, hi in cluster_extremes(empty)] == [(1, 1)] * 2


def test_gluing_check_trivial():
    assert dn(tri_config(16, 1.0, 5), 8, 2) == [True, False, False]
    assert dn(tri_config(16, 0.0, 5), 8, 2) == [False, False, False]


def test_gluing_campaign_deterministic_and_worker_invariant():
    kw = dict(stage_size=4000, max_attempts=12_000, stop_after_violations=None)
    a = L.gluing_campaign(TRIANGULAR, 0.5, 8, 2, 5, 99, workers=1, **kw)
    b = L.gluing_campaign(TRIANGULAR, 0.5, 8, 2, 5, 99, workers=2, **kw)
    assert a == b
    assert a.attempts in (4000, 8000, 12_000)  # whole stages only


@pytest.mark.parametrize(
    "kw",
    [
        {"target_conditioned": 0},
        {"max_attempts": 0},
        {"max_attempts": -5},
        {"stop_after_violations": 0},
    ],
)
def test_gluing_campaign_rejects_empty_budgets(kw):
    args = {"target_conditioned": 5, "max_attempts": 100, "stop_after_violations": None, **kw}
    with pytest.raises(ValueError, match="must be >= 1"):
        L.gluing_campaign(TRIANGULAR, 0.5, 8, 2, master_seed=1, **args)


def test_gluing_campaign_records_d_attempts():
    kw = dict(stage_size=300, max_attempts=900, stop_after_violations=None)
    rep = L.gluing_campaign(TRIANGULAR, 0.6, 8, 2, 50, 11, **kw)
    (flags,) = run_counters(L._dn_kernel(TRIANGULAR, 0.6, 8, 2, 11), 0, rep.attempts)
    assert rep.d_attempts == tuple(np.flatnonzero(flags[:, 0]).tolist())
    assert len(rep.d_attempts) == rep.conditioned


def test_dn_fkg_bound_smoke():
    campaign = L.gluing_campaign(TRIANGULAR, 1.0, 8, 2, 1, 5, stage_size=16, max_attempts=16)
    chain = L.dn_fkg_bound(campaign, TRIANGULAR, 1.0, 50, 5)
    assert chain.d_estimate.point == 1.0


def test_dn_fkg_chain_bound():
    campaign = L.gluing_campaign(TRIANGULAR, 0.5, 8, 2, 1, 23, workers=2, max_attempts=1500)
    chain = L.dn_fkg_bound(campaign, TRIANGULAR, 0.5, 1500, 23, workers=2)
    assert 0 < chain.h_estimate.point < 1
    assert chain.chained_bound == pytest.approx(
        (chain.h_estimate.point * chain.v_estimate.point) ** 25
    )
    assert chain.holds_within_3sigma


@pytest.mark.parametrize("max_attempts", [1000, 400])
def test_dn_fkg_bound_reads_the_campaign(max_attempts):
    # the campaign covers attempts [0, 600) at 1000 and stops short of them at 400
    kw = dict(stage_size=200, max_attempts=max_attempts, stop_after_violations=None)
    campaign = L.gluing_campaign(TRIANGULAR, 0.6, 8, 2, 10_000, 31, **kw)
    chain = L.dn_fkg_bound(campaign, TRIANGULAR, 0.6, 600, 31)
    (flags,) = run_counters(L._dn_kernel(TRIANGULAR, 0.6, 8, 2, 31), 0, 600)
    assert chain.d_estimate.successes == int(flags[:, 0].sum()) > 0


def test_lower_tail_estimate():
    table = pi_for([4, 8], value=0.9)
    params = BoundParams(d=2, C11=1.0, C12=0.2, C13=0.5)
    sample = vn_sample(TRIANGULAR, 1.0, 8, 100, 99)
    res = L.lower_tail_estimate(sample, 2, table, params)
    assert res.direct.point == 1.0
    assert res.implied_bound == pytest.approx(math.exp(-(2 * 1.0 + 0.5) * 4))
    with pytest.raises(ValueError):
        L.lower_tail_estimate(sample, 2, table, BoundParams(d=2, C11=1.0))
    with pytest.raises(ValueError):
        L.lower_tail_estimate(sample, 1, table, params)
