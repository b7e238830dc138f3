from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import oracles
import pytest

from oracles import exact_connect_probability, site_components
from percolab import estimators as E
from percolab import grid
from percolab import lowerbound as L
from percolab.estimators import (
    Estimate,
    PiRow,
    PiTable,
    build_pi_table,
    check_quasi_mult,
    estimate_pi,
    event_estimate,
    _reader,
    fit_arm_exponent,
    self_dual_widths,
    vn_sample,
    vn_statistics,
)
from percolab.lattice import (
    TRIANGULAR,
    Z2_BOND,
    LatticeKind,
    LatticeSpec,
    Region,
    boundary,
    box_sites,
    box_with_boundary,
    rect_region,
)
from percolab.sampler import derive_stream, open_cells_batch, sample_config

TRI_OFF = TRIANGULAR.neighbor_offsets()


def ring_in(carrier, lattice, r):
    """The ring of box(r), the outer boundary of that box, as a mask over the carrier's raster."""
    return boundary(box_sites((0,) * lattice.d, r), lattice).mask_in(carrier)

# exact arm probability pi(1, 2) on the triangular lattice at p = 1/2,
# frontier-DP value frozen here and recomputed below as a regression guard
PI_1_2_EXACT = 0.9988090846


def synthetic_table(alpha: float, scales) -> PiTable:
    table = PiTable(TRIANGULAR, 0.5)
    for m, n in scales:
        val = (n / m) ** -alpha
        table.add(PiRow(m, n, 10**6, int(val * 10**6), val, 1e-4))
    return table


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(10, 0.5, -0.1)
    with pytest.raises(ValueError):
        Estimate(10, 0.5, 0.1, successes=11)
    w = event_estimate(0, 10)
    assert w.stderr > 0  # wilson is informative even with zero successes


def test_estimate_pi_trivial_cases():
    est = estimate_pi(TRIANGULAR, 1.0, 1, 4, 200, 5)
    assert est.point == 1.0
    conv = estimate_pi(TRIANGULAR, 0.5, 3, 3, 200, 5)
    assert conv.point == 1.0 and conv.stderr == 0.0 and conv.samples == 200
    with pytest.raises(ValueError):
        estimate_pi(TRIANGULAR, 0.5, 3, 2, 200, 5)


def test_estimate_pi_matches_exact_enumeration():
    carrier = box_with_boundary(TRIANGULAR, 2)
    src, tgt = (
        frozenset(box_with_boundary(TRIANGULAR, r)) - frozenset(box_sites((0, 0), r)) for r in (1, 2)
    )
    exact = exact_connect_probability(sorted(carrier), TRI_OFF, 0.5, src, tgt)
    assert exact == pytest.approx(PI_1_2_EXACT, abs=1e-9)
    est = estimate_pi(TRIANGULAR, 0.5, 1, 2, 30_000, 2024)
    assert abs(est.point - exact) <= 3 * est.stderr


def test_build_pi_table():
    table = build_pi_table(TRIANGULAR, 0.5, [(1, 4), (1, 8), (1, 16)], 2000, 7)
    rows = table.sorted_rows()
    assert len(rows) == 3
    for a, b in zip(rows, rows[1:]):
        sigma = math.hypot(a.stderr, b.stderr)
        assert b.estimate <= a.estimate + 3 * sigma
    again = build_pi_table(TRIANGULAR, 0.5, [(1, 4), (1, 8), (1, 16)], 2000, 7)
    assert again.sorted_rows() == rows
    empty = build_pi_table(TRIANGULAR, 0.5, [], 100, 7)
    assert not empty.rows
    with pytest.raises(ValueError):
        build_pi_table(TRIANGULAR, 0.5, [(1, 4), (1, 4)], 100, 7)


# every arm row up to N = 12: the one-labeling table reads all of them off
# a single family labeled once on box(N) plus its boundary
ARM_N = 12
ARM_PAIRS = tuple((m, n) for n in range(2, ARM_N + 1) for m in range(1, n))


def confined_arm_events(lattice, p, fam, samples) -> dict:
    """Oracle: per replica, label box(n) plus its boundary alone for each row (m, n)."""
    carrier = box_with_boundary(lattice, ARM_N)
    seeds = [derive_stream(fam, i) for i in range(samples)]
    batch = open_cells_batch(lattice, carrier.mask, p, seeds)
    out = {}
    for n in range(2, ARM_N + 1):
        confined = box_with_boundary(lattice, n).mask_in(carrier)
        confined_cells = batch & grid.cell_mask(lattice, confined)
        labels = grid.label_sites_batch(grid.strip_cells(confined_cells), lattice)
        rings = [np.nonzero(ring_in(carrier, lattice, r)) for r in range(1, n + 1)]
        rows = grid.connect_through(labels, rings, [(m - 1, n - 1) for m in range(1, n)])
        for m in range(1, n):
            out[(m, n)] = rows[:, m - 1]
    return out


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["tri", "z2bond"])
@pytest.mark.parametrize("p", [0.45, 0.5, 0.55])
def test_one_labeling_rows_match_confined_oracle(lattice, p):
    samples, seed = 40, 2718
    fam = E.family_seed(seed, E.TAG_PI, ARM_N)
    want = confined_arm_events(lattice, p, fam, samples)
    task = (lattice, p, box_with_boundary(lattice, ARM_N), (("arm", ARM_PAIRS),), fam)
    for i in range(samples):
        (got,) = E._observe(task, i, i + 1)
        assert got.tolist() == [[bool(want[(m, n)][i]) for m, n in ARM_PAIRS]], i
    table = build_pi_table(lattice, p, ARM_PAIRS, samples, seed)
    assert {k: r.successes for k, r in table.rows.items()} == {
        k: int(v.sum()) for k, v in want.items()
    }


# (lattice, p, carrier radius R): every confinement radius r < R is checked
INVARIANCE = {
    "tri": (TRIANGULAR, 0.5, 10),
    "z2bond": (Z2_BOND, 0.5, 10),
    "z3bond": (LatticeSpec(LatticeKind.Z_BOND, 3), 0.2, 5),
}


@pytest.mark.parametrize("name", sorted(INVARIANCE))
def test_arm_and_vn_need_no_confinement(name):
    # a path leaving box(r) crosses its boundary first, so the arm rows (m, r) and
    # V_{r/2} read off the whole carrier equal the ones confined to box(r) plus boundary
    lattice, p, R = INVARIANCE[name]
    carrier = box_with_boundary(lattice, R)
    seeds = [derive_stream(E.family_seed(1618, E.TAG_FKG), i) for i in range(40)]
    batch = open_cells_batch(lattice, carrier.mask, p, seeds)
    whole = grid.label_sites_batch(grid.strip_cells(batch), lattice)
    center = (0,) * lattice.d
    arms, merged = set(), 0
    for r in range(2, R):
        outer = ring_in(carrier, lattice, r)
        inside = grid.cell_mask(lattice, box_with_boundary(lattice, r).mask_in(carrier))
        confined = grid.label_sites_batch(grid.strip_cells(batch & inside), lattice)
        # ring clusters joined only by paths outside: the cases confinement could change
        merged += sum(
            np.unique(w).size < np.unique(c).size
            for w, c in zip(whole[:, outer], confined[:, outer])
        )
        for m in range(1, r):
            inner = ring_in(carrier, lattice, m)
            ends = [np.nonzero(inner), np.nonzero(outer)]
            want = grid.connect_through(confined, ends, [(0, 1)])
            assert grid.connect_through(whole, ends, [(0, 1)]).tolist() == want.tolist(), (m, r)
            arms.update(want[:, 0].tolist())
        if r % 2 == 0:
            ring, box = np.nonzero(outer), np.nonzero(box_sites(center, r // 2).mask_in(carrier))
            want = grid.count_connected_to(confined, ring, box)
            assert grid.count_connected_to(whole, ring, box).tolist() == want.tolist(), r
    assert arms == {False, True} and merged > 0


# pair sets whose pairs share inner radii, list a ring as both inner and outer
# radius, come in any order, or repeat a pair
ARM_PAIR_SETS = (
    ARM_PAIRS,
    ((4, 8), (2, 4), (1, 4), (4, 12), (8, 12), (1, 12)),
    ((3, 5), (3, 5), (1, 2)),
)


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["tri", "z2bond"])
@pytest.mark.parametrize("p", [0.4, 0.5])
def test_arm_rows_match_the_per_pair_oracle(lattice, p):
    # one connect_through call reads every row; the oracle flags and gathers
    # per pair.  The labels are a strided per-grid view of the strip's labels
    # (stride 2 on z_bond), and a contiguous copy of them reads the same rows
    carrier = box_with_boundary(lattice, ARM_N)
    seeds = [derive_stream(E.family_seed(271, E.TAG_PI, ARM_N), i) for i in range(40)]
    batch = open_cells_batch(lattice, carrier.mask, p, seeds)
    labels = grid.label_sites_batch(grid.strip_cells(batch), lattice)
    rings = {r: ring_in(carrier, lattice, r) for r in range(1, ARM_N + 1)}
    seen = set()
    for pairs in ARM_PAIR_SETS:
        want = oracles.arm_rows_per_pair(labels, rings, pairs)
        (_, read, _) = _reader(lattice, carrier, ("arm", pairs))
        assert np.array_equal(read(labels), want), pairs
        assert np.array_equal(read(np.ascontiguousarray(labels)), want), pairs
        seen.update(want.ravel().tolist())
    assert seen == {False, True}
    # a breadth-first search of one configuration's open graph reads the same rows
    regions = {r: frozenset(Region(carrier.origin, mask)) for r, mask in rings.items()}
    pairs = ARM_PAIR_SETS[1]
    want = oracles.arm_rows_per_pair(labels, rings, pairs)
    for i in range(0, 40, 4):
        config = sample_config(lattice, carrier, p, seeds[i])
        got = [oracles.connected_in(config, carrier, regions[m], regions[n]) for m, n in pairs]
        assert got == want[i].tolist(), i


def test_pi_table_outer_rows_match_estimate_pi():
    pairs = [(1, 4), (2, 4), (1, 8), (4, 8), (1, 16), (2, 16), (4, 16), (8, 16), (16, 16)]
    table = build_pi_table(TRIANGULAR, 0.5, pairs, 300, 77)
    # insertion order: the m = n rows as given, then the others by (n, m)
    assert list(table.rows) == [(16, 16)] + sorted(pairs[:-1], key=lambda k: (k[1], k[0]))
    for m in (1, 2, 4, 8):
        assert table.rows[(m, 16)].successes == estimate_pi(TRIANGULAR, 0.5, m, 16, 300, 77).successes
    assert build_pi_table(TRIANGULAR, 0.5, pairs, 300, 77, workers=2).rows == table.rows


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["tri", "z2bond"])
def test_pi_table_nesting_is_exact(lattice):
    table = build_pi_table(lattice, 0.5, ARM_PAIRS, 200, 31)

    def hits(m, n):
        return table.rows[(m, n)].successes

    for m, n in ARM_PAIRS:
        if n < ARM_N:
            assert hits(m, n + 1) <= hits(m, n)  # falls as n grows
        if m + 1 < n:
            assert hits(m, n) <= hits(m + 1, n)  # rises as m grows
    for k in range(1, ARM_N + 1):
        for l in range(k + 1, ARM_N + 1):
            for m in range(l + 1, ARM_N + 1):
                assert hits(k, m) <= min(hits(k, l), hits(l, m))
    assert hits(1, ARM_N) < hits(ARM_N - 1, ARM_N)  # the invariants are not all ties


# one carrier, every observable kind: arm rows and V_n read the carrier labels,
# C_1, the crossing and D(8, 2) label their crops
BATCH_TASK_OBSERVABLES = (
    ("arm", ((1, 4), (2, 8))),
    ("vn", 4),
    ("c1", 4),
    ("crossing", (-4, -3), (8, 6), 0),
    ("dn", 8, 2),
)


def _spy_batches(monkeypatch) -> list:
    """(size asked, replicas sampled) of each batch ``_observe`` samples."""
    seen = []
    batches = E._replica_batches

    def spy(*args):
        for batch in batches(*args):
            seen.append((args[6], len(batch)))
            yield batch

    monkeypatch.setattr(E, "_replica_batches", spy)
    return seen


# (lattice, p, carrier, observables): every observable kind on one carrier, and
# the z_bond V_n/C_1 family and self-dual crossing on their own carriers
BATCH_TASKS = {
    "tri": (TRIANGULAR, 0.6, box_with_boundary(TRIANGULAR, 16), BATCH_TASK_OBSERVABLES),
    "z2bond": (Z2_BOND, 0.6, box_with_boundary(Z2_BOND, 16), BATCH_TASK_OBSERVABLES),
    "z2bond-vn-c1": (Z2_BOND, 0.5, box_with_boundary(Z2_BOND, 16), (("vn", 8), ("c1", 8))),
    "z2bond-crossing": (Z2_BOND, 0.5, rect_region((0, 0), (8, 7)), (("crossing", (0, 0), (8, 7), 0),)),
}


@pytest.mark.parametrize("budget", ["beyond", "three", "default"])
@pytest.mark.parametrize("name", sorted(BATCH_TASKS))
def test_observe_is_batch_invariant(name, budget, monkeypatch):
    # replica i is the same configuration in any batch, and no reduction reads
    # across replicas: batches of one replica on fresh arrays (a budget below
    # one replica), of three on kept buffers, or of the default size all give
    # the arrays read off each replica alone
    lattice, p, carrier, observables = BATCH_TASKS[name]
    task = (lattice, p, carrier, observables, 4242)
    kept = E._replica_bytes(lattice, carrier, [E._reader(lattice, carrier, obs) for obs in observables])
    bytes_, size = {
        "beyond": (kept - 1, 1), "three": (4 * kept - 1, 3), "default": (E.BATCH_BYTES, 256)
    }[budget]
    monkeypatch.setattr(E, "BATCH_BYTES", bytes_)
    seen = _spy_batches(monkeypatch)
    got = E._observe(task, 3, 43)
    assert seen[0][0] == size and [n for _, n in seen] == [min(size, 40 - i) for i in range(0, 40, size)]
    configs = [sample_config(lattice, carrier, p, derive_stream(4242, i)) for i in range(3, 43)]
    for obs, values in zip(observables, got):
        want = np.array([E.read_config(config, obs) for config in configs])
        assert values.dtype == want.dtype and np.array_equal(values, want), obs
    if observables == BATCH_TASK_OBSERVABLES:
        assert 0 < got[3].sum() < 40 and len(set(got[2].tolist())) > 5
        assert 0 < got[4][:, 0].sum() < 40
    else:
        assert all(len(np.unique(values)) > 1 for values in got)  # no observable is constant


def _held_arrays(obj):
    """The numpy arrays a reader holds: through closures, dicts, tuples and dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _held_arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _held_arrays(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _held_arrays(getattr(obj, f.name))
    elif callable(obj):
        for cell in getattr(obj, "__closure__", None) or ():
            yield from _held_arrays(cell.cell_contents)


def test_reader_is_built_once_per_raster_and_observable():
    E._reader.cache_clear()
    carrier = box_with_boundary(TRIANGULAR, ARM_N)
    arm = ("arm", ARM_PAIRS)
    task = (TRIANGULAR, 0.5, carrier, (arm,), 99)
    E._observe(task, 0, 5)
    (second,) = E._observe(task, 5, 10)
    config = sample_config(TRIANGULAR, carrier, 0.5, derive_stream(99, 7))
    assert E.read_config(config, arm).tolist() == second[2].tolist()
    info = E._reader.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_reader_cache_finds_an_equal_carrier_built_separately():
    # readers are keyed by (lattice, carrier, observable): a carrier rebuilt as
    # an equal Region hits the cached reader, a shifted one builds its own
    E._reader.cache_clear()
    carrier = box_with_boundary(TRIANGULAR, 8)
    rebuilt = Region((-20, -20), np.pad(carrier.mask, 11))
    assert rebuilt == carrier and rebuilt.mask is not carrier.mask
    first = E._reader(TRIANGULAR, carrier, ("vn", 2))
    assert E._reader(TRIANGULAR, rebuilt, ("vn", 2)) is first
    info = E._reader.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    E._reader(TRIANGULAR, Region((-8, -9), carrier.mask), ("vn", 2))
    assert E._reader.cache_info().misses == 2


def test_cached_reader_masks_are_read_only():
    E._reader.cache_clear()
    carrier = box_with_boundary(TRIANGULAR, 16)
    task = (TRIANGULAR, 0.6, carrier, BATCH_TASK_OBSERVABLES + (("arm", ((2, 5), (3, 16))),), 7)
    E._observe(task, 0, 3)
    held = {obs[0]: list(_held_arrays(E._reader(TRIANGULAR, carrier, obs)[1])) for obs in task[3]}
    assert E._reader.cache_info().misses == len(task[3])
    assert all(held[kind] for kind in ("arm", "vn", "dn"))  # masks, rings and coordinates
    assert all(not a.flags.writeable for arrays in held.values() for a in arrays)


def test_observables_of_events_and_crossings_are_hashable():
    # the reader cache keys on the observable, so list extents become tuples
    event = L.EventSpec("h_crossing", corner=[-4, -4], widths=[8, 8])
    assert event.observable() == ("crossing", (-4, -4), (8, 8), 0)
    want = E.estimate_crossing(TRIANGULAR, 0.5, (6, 5), 0, 50, 3)
    assert E.estimate_crossing(TRIANGULAR, 0.5, [6, 5], 0, 50, 3) == want


def test_replica_batches_hold_the_cell_budget(monkeypatch):
    # a replica keeps its carrier's cells (1 byte each) and the strip (1 byte) and
    # int32 labels of each cell of its largest labelling call: the whole carrier
    # for V_n and arm rows, box(n) for C_1, one rectangle for a crossing or
    # D(n, u).  Sizing by carrier cells (BATCH_CELLS = 4,000,000) gave 58, 59,
    # 233, 256 and 59 replicas
    seen = _spy_batches(monkeypatch)

    def size(lattice, carrier, *observables):
        seen.clear()
        E._observe((lattice, 0.5, carrier, observables, 1), 0, 1)
        return seen[0][0]

    bond, tri = box_with_boundary(Z2_BOND, 64), box_with_boundary(TRIANGULAR, 128)
    assert E.BATCH_BYTES == 8_000_000
    assert size(Z2_BOND, bond, ("vn", 32), ("c1", 32)) == E.BATCH_BYTES // (6 * 261**2) == 19
    assert size(Z2_BOND, bond, ("c1", 32)) == E.BATCH_BYTES // (261**2 + 5 * 129**2) == 52
    assert size(TRIANGULAR, tri, ("arm", ((1, 8), (64, 128)))) == E.BATCH_BYTES // (6 * 259**2) == 19
    assert size(TRIANGULAR, box_with_boundary(TRIANGULAR, 64), ("dn", 32, 2)) == 256
    assert size(Z2_BOND, rect_region((0, 0), (32, 31)), ("crossing", (0, 0), (32, 31), 0)) == 256
    assert size(TRIANGULAR, tri, ("c1", 64)) == E.BATCH_BYTES // (259**2 + 5 * 129**2) == 53


# what a V_n batch allocates besides the budget: the sampler's unpacked bits
# (1 byte per element, about 0.8 MB at 23 replicas) and the reductions' gathers
BATCH_SLACK = 2_000_000


def test_vn_sample_memory_follows_the_cell_budget():
    # a batch keeps about BATCH_BYTES; sizing by carrier cells held 58 replicas
    # of 68,121 cells, a 23 MB peak under a bound of 28 MB
    tracemalloc.start()
    try:
        vn_sample(Z2_BOND, 0.5, 32, 300, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E.BATCH_BYTES + BATCH_SLACK


def test_vn_sample_labels_only_what_it_reads():
    both = vn_sample(Z2_BOND, 0.5, 3, 60, 21)
    vn = vn_sample(Z2_BOND, 0.5, 3, 60, 21, reads=("vn",))
    c1 = vn_sample(Z2_BOND, 0.5, 3, 60, 21, workers=2, reads=("c1",))
    assert vn.c1 is None and c1.vn is None and vn.samples == c1.samples == 60
    assert np.array_equal(vn.vn, both.vn) and np.array_equal(c1.c1, both.c1)
    for bad in ((), ("vn", "arm"), "vn"):
        with pytest.raises(ValueError, match="reads"):
            vn_sample(Z2_BOND, 0.5, 3, 10, 21, reads=bad)


def _largest_count_cases():
    """Label batches covering empty replicas, p = 0 and 1, bond views and crops."""
    for lattice in (TRIANGULAR, Z2_BOND):
        mask = box_with_boundary(lattice, 5).mask
        for p in (0.0, 0.05, 0.5, 1.0):
            batch = open_cells_batch(lattice, mask, p, [derive_stream(77, i) for i in range(30)])
            yield grid.label_sites_batch(grid.strip_cells(batch), lattice)  # vertex view on bond lattices
            yield E._crop_labels(lattice, batch, (slice(2, 9), slice(1, 12)))
            # empty replicas first, inside and last
            holes = batch.copy()
            holes[[0, 1, 7, 28, 29]] = False
            yield grid.label_sites_batch(grid.strip_cells(holes), lattice)
            # the gluing check labels one configuration at a time
            for j in (0, 5):
                yield grid.label_sites_batch(grid.strip_cells(batch[j : j + 1]), lattice)[0][None]
    yield grid.label_sites_batch(grid.strip_cells(np.zeros((3, 4, 4), dtype=bool)), TRIANGULAR)


def test_largest_count_matches_owner_scatter_reference():
    cases = 0
    for labels in _largest_count_cases():
        got = grid.largest_count(labels)
        assert got.dtype == np.int64
        assert got.tolist() == oracles.largest_count(labels).tolist()
        cases += 1
    assert cases == 2 * 4 * 5 + 1


def test_largest_count_memory_stays_per_replica():
    # the 53 triangular box(64) crops of one C_1 batch; counting the whole strip
    # at once copied and cast every label, a 10.7 MB peak over an 8 MB batch budget
    carrier = box_with_boundary(TRIANGULAR, 128)
    batch = open_cells_batch(TRIANGULAR, carrier.mask, 0.5, [derive_stream(64, i) for i in range(53)])
    box = box_sites((0, 0), 64).slices_in(carrier)
    labels = E._crop_labels(TRIANGULAR, batch, box)
    del batch
    tracemalloc.start()
    try:
        counts = grid.largest_count(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E.BATCH_BYTES / 8
    assert counts.tolist() == oracles.largest_count(labels).tolist()


def test_pi_table_conventions():
    table = PiTable(TRIANGULAR, 0.5)
    assert table.pi(5, 5) == 1.0
    assert table.stderr(5, 5) == 0.0
    with pytest.raises(ValueError):
        table.pi(1, 7)
    table.add(PiRow(1, 7, 10, 5, 0.5, 0.1))
    assert table.pi(7) == 0.5  # one-argument form is pi(1, n)
    with pytest.raises(ValueError):
        table.add(PiRow(1, 7, 10, 5, 0.5, 0.1))


def test_largest_cluster_distribution_point_masses():
    def dist(p):
        return E.SizeDistribution.of(vn_sample(TRIANGULAR, p, 2, 300, 11, reads=("c1",)).c1)

    d0 = dist(0.0)
    assert d0.counts == {0: 300} and d0.mean == 0.0
    d1 = dist(1.0)
    assert d1.counts == {25: 300} and d1.mean == 25.0 and d1.stderr == 0.0
    assert d1.quantile(0.5) == 25


def test_largest_cluster_mean_vs_exhaustive():
    # exact mean of the largest-cluster size in box(1), paths confined there:
    # enumerate all 2^9 site states of the 9-site box
    sites = sorted(box_sites((0, 0), 1))
    total = 0.0
    for bits in range(1 << 9):
        opens = {s for j, s in enumerate(sites) if bits >> j & 1}
        comps = site_components(opens, TRI_OFF)
        largest = max((len(c) for c in comps), default=0)
        total += largest
    exact_mean = total / 512
    dist = E.SizeDistribution.of(vn_sample(TRIANGULAR, 0.5, 1, 4000, 99, reads=("c1",)).c1)
    assert abs(dist.mean - exact_mean) <= 3 * dist.stderr


# n^d pi(n / u) at n = 4, u = 2 with pi(2) = 1: the whole box(2) area, 16
TAIL_T = 4**2 * 1.0


def test_tail_probability_trivial():
    c1 = vn_sample(TRIANGULAR, 1.0, 4, 200, 5, reads=("c1",)).c1
    assert event_estimate(E.count_at_least(c1, TAIL_T), 200).point == 1.0
    # impossible threshold: above the full box size
    stats = vn_statistics(TRIANGULAR, 0.5, 3, 200, 5, c1_thresholds=(7 * 7 + 1,))
    assert stats["c1ge:0"] == 0


def test_vn_tail_trivial():
    for p, want in ((1.0, 1.0), (0.0, 0.0)):
        vn = vn_sample(TRIANGULAR, p, 4, 100, 5, reads=("vn",)).vn
        assert event_estimate(E.count_at_least(vn, TAIL_T), 100).point == want


def test_moment_identities():
    n, samples, seed = 3, 400, 17
    stats = vn_statistics(TRIANGULAR, 0.5, n, samples, seed, moment_ks=(1, 2))
    # binom(v, 1) = v: exact equality on identical replicas
    assert stats["msum:1"] == stats["vsum"]
    vn = vn_sample(TRIANGULAR, 0.5, n, samples, seed, reads=("vn",)).vn
    assert E.mean_estimate(*E.binomial_sums(vn, 1), samples).point == stats["vsum"] / samples
    # binom(v, 2) = (v^2 - v) / 2: exact integer identity on the same sample
    assert 2 * stats["msum:2"] == stats["vsq"] - stats["vsum"]
    assert E.binomial_sums(vn_sample(TRIANGULAR, 0.0, n, 100, seed, reads=("vn",)).vn, 2) == (0, 0)


@pytest.mark.parametrize("lattice", [TRIANGULAR, LatticeSpec(LatticeKind.Z_BOND, 3)])
def test_upper_tail_against_hand_count(lattice):
    # at n = 6, u = 1, 2.5 and 7 read pi(6), pi(2) and pi(1) = 1
    table = PiTable(lattice, 0.5)
    table.add(PiRow(1, 2, 10, 5, 0.5, 0.1))
    table.add(PiRow(1, 6, 10, 2, 0.25, 0.1))
    us = [1.0, 2.5, 7.0]
    assert E.tail_scales([6], us) == [(1, 1), (1, 2), (1, 6)]
    values = np.array([0, 3, 9, 18, 36, 54, 120, 216])
    # n^d = 36 at d = 2 and 216 at d = 3
    want = {2: [(9.0, 6), (18.0, 5), (36.0, 4)], 3: [(54.0, 3), (108.0, 2), (216.0, 1)]}[lattice.d]
    tail = E.upper_tail(values, 6, us, table)
    assert [(t, est.successes) for t, est in tail] == want
    assert [est for _, est in tail] == [event_estimate(k, 8) for _, k in want]


def test_check_quasi_mult_exact_power_law():
    scales = [(m, n) for m in (2, 4, 8) for n in (2, 4, 8) if m < n]
    table = synthetic_table(0.4, scales)
    for triples in ([(2, 4, 8)], [(4, 4, 4)], [(2, 4, 8), (4, 4, 4)]):
        report = check_quasi_mult(table, triples)
        assert report.max_ratio == pytest.approx(1.0, rel=1e-12)
        assert report.worst in triples


def test_check_quasi_mult_flags():
    table = PiTable(TRIANGULAR, 0.5)
    table.add(PiRow(1, 2, 10, 5, 0.5, 0.1))
    table.add(PiRow(2, 4, 10, 5, 0.5, 0.1))
    table.add(PiRow(1, 4, 10, 0, 0.0, 0.0))
    # a zero denominator is skipped: no triple is worst
    report = check_quasi_mult(table, [(1, 2, 4)])
    assert report.max_ratio == 0.0 and report.worst is None
    # ties keep the first triple of the largest ratio
    report = check_quasi_mult(table, [(1, 2, 4), (1, 1, 2), (2, 2, 4)])
    assert report.max_ratio == 1.0 and report.worst == (1, 1, 2)
    with pytest.raises(ValueError):
        check_quasi_mult(table, [(4, 2, 1)])


def test_fit_arm_exponent_synthetic():
    table = synthetic_table(0.5, [(1, n) for n in (4, 8, 16, 32)])
    alpha, se = fit_arm_exponent(table, [4, 8, 16, 32])
    assert alpha == pytest.approx(0.5, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-9)
    const = PiTable(TRIANGULAR, 0.5)
    for n in (4, 8, 16):
        const.add(PiRow(1, n, 100, 50, 0.37, 0.01))
    a2, _ = fit_arm_exponent(const, [4, 8, 16])
    assert a2 == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_arm_exponent(table, [4, 8])


def test_fit_arm_exponent_nonpositive_rejected():
    bad = PiTable(TRIANGULAR, 0.5)
    for n in (4, 8, 16):
        bad.add(PiRow(1, n, 100, 0, 0.0, 0.0))
    with pytest.raises(ValueError):
        fit_arm_exponent(bad, [4, 8, 16])


def test_worker_invariance():
    a = vn_statistics(TRIANGULAR, 0.5, 3, 500, 31, workers=1, c1_thresholds=(10.0,), moment_ks=(2,))
    b = vn_statistics(TRIANGULAR, 0.5, 3, 500, 31, workers=2, c1_thresholds=(10.0,), moment_ks=(2,))
    assert a == b
    pa = estimate_pi(TRIANGULAR, 0.5, 1, 6, 800, 41, workers=1)
    pb = estimate_pi(TRIANGULAR, 0.5, 1, 6, 800, 41, workers=2)
    assert pa == pb


def test_bond_mode_estimates():
    est = estimate_pi(Z2_BOND, 1.0, 1, 3, 50, 5)
    assert est.point == 1.0
    est0 = estimate_pi(Z2_BOND, 0.0, 1, 3, 50, 5)
    assert est0.point == 0.0
    crossing = E.estimate_crossing(Z2_BOND, 1.0, (4, 3), 0, 50, 5)
    assert crossing.point == 1.0


@pytest.mark.parametrize(
    "widths, axis, match",
    [((3, -1), 0, r"extents must be >= 0, got \(3, -1\)"), ((3, 2), 2, "axis must be 0 or 1, got 2"),
     ((3, 2), -1, "axis must be 0 or 1, got -1")],
)
def test_crossing_geometry_checked_before_seeding(monkeypatch, widths, axis, match):
    # a negative extent used to surface as "replica_index must be >= 0" from the seed
    def no_seed(*args):
        raise AssertionError("family seed derived before the geometry was checked")

    monkeypatch.setattr(E, "family_seed", no_seed)
    with pytest.raises(ValueError, match=match):
        E.estimate_crossing(TRIANGULAR, 0.5, widths, axis, 10, 1)


def test_default_p():
    assert E.default_p(TRIANGULAR) == 0.5
    assert E.default_p(Z2_BOND) == 0.5
    from percolab.lattice import LatticeKind, LatticeSpec

    assert E.default_p(LatticeSpec(LatticeKind.Z_BOND, 3)) == pytest.approx(0.2488126)


ZERO_SAMPLE_CALLS = {
    "build_pi_table": lambda: build_pi_table(TRIANGULAR, 0.5, [(1, 4)], 0, 1),
    "build_pi_table_diagonal": lambda: build_pi_table(TRIANGULAR, 0.5, [(4, 4)], 0, 1),
    "estimate_pi": lambda: estimate_pi(TRIANGULAR, 0.5, 1, 4, 0, 1),
    "estimate_pi_diagonal": lambda: estimate_pi(TRIANGULAR, 0.5, 4, 4, 0, 1),
    "vn_statistics": lambda: vn_statistics(TRIANGULAR, 0.5, 3, 0, 1),
    "vn_sample_c1": lambda: vn_sample(TRIANGULAR, 0.5, 4, 0, 1, reads=("c1",)),
    "vn_sample_vn": lambda: vn_sample(TRIANGULAR, 0.5, 4, 0, 1, reads=("vn",)),
    "fkg_check": lambda: L.fkg_check(
        TRIANGULAR, 0.5, [(L.EventSpec("arm", m=1, n=4), L.EventSpec("arm", m=2, n=4))], 0, 1
    ),
    "dn_fkg_bound": lambda: L.dn_fkg_bound(
        L.gluing_campaign(TRIANGULAR, 0.5, 8, 2, 1, 1, stage_size=16, max_attempts=16),
        TRIANGULAR, 0.5, 0, 1,
    ),
}


@pytest.mark.parametrize("name", sorted(ZERO_SAMPLE_CALLS))
def test_zero_samples_raise_value_error(name):
    with pytest.raises(ValueError, match="at least one replica"):
        ZERO_SAMPLE_CALLS[name]()


def _crossed_configurations(lattice, widths) -> tuple[int, int]:
    """(crossed along axis 0, all): every configuration of the rectangle, read in one batch."""
    region = rect_region((0, 0), widths)
    mask = grid.cell_mask(lattice, region.mask)
    free = mask.copy()
    if not lattice.site_mode:
        free[grid.vertex_cells(lattice)] = False  # vertex cells hold the carrier mask
    index = np.flatnonzero(free)
    configs = np.arange(2 ** index.size)
    batch = np.repeat((mask & ~free).reshape(1, -1), configs.size, axis=0)
    batch[:, index] = (configs[:, None] >> np.arange(index.size)) & 1
    batch = batch.reshape((configs.size,) + mask.shape)
    _, read, _ = _reader(lattice, region, ("crossing", (0, 0), widths, 0))
    return int(read(batch, grid.FRESH).sum()), configs.size


@pytest.mark.parametrize(
    ("lattice", "widths", "crossed", "total"),
    [
        (TRIANGULAR, self_dual_widths(TRIANGULAR, 4), 32_768, 2**16),
        (Z2_BOND, self_dual_widths(Z2_BOND, 3), 65_536, 2**17),
        (TRIANGULAR, (3, 2), 1_509, 2**12),
        (Z2_BOND, (2, 2), 2_752, 2**12),
    ],
    ids=["tri-self-dual", "z2bond-self-dual", "tri-off-by-one", "z2bond-off-by-one"],
)
def test_self_dual_rectangles_are_crossed_by_exactly_half(lattice, widths, crossed, total):
    # exact anchors of self_dual_widths and the crossing reader: every
    # configuration enumerated, no statistics; a width off by one is not half
    assert _crossed_configurations(lattice, widths) == (crossed, total)
