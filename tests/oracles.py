"""Independent oracles for the test suite.

Everything here is deliberately written against the library's grain: plain
Python data structures, breadth-first search, Prim's algorithm, exhaustive
enumeration, per-site distance scans, a frontier dynamic program, and bound
sweeps that evaluate every k exactly, so agreement with the package is
meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import deque


def bfs_components(nodes, adjacency):
    """Connected components of ``nodes`` under an adjacency callback."""
    nodes = set(nodes)
    seen = set()
    comps = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacency(v):
                if w in nodes and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def site_components(open_sites, offsets):
    """Components of open sites under translation-invariant offsets."""

    def adj(v):
        return [tuple(a + b for a, b in zip(v, off)) for off in offsets]

    return bfs_components(set(open_sites), adj)


def bond_components(sites, open_edges):
    """Components of ``sites`` where adjacency is an explicit open edge set."""
    by_site: dict = {}
    for u, v in open_edges:
        by_site.setdefault(u, []).append(v)
        by_site.setdefault(v, []).append(u)

    def adj(v):
        return by_site.get(v, [])

    return bfs_components(set(sites), adj)


def chebyshev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def prim_mst_lengths(points):
    """Chebyshev MST edge lengths via Prim's algorithm (quadratic, simple)."""
    k = len(points)
    if k <= 1:
        return []
    in_tree = [False] * k
    dist = [math.inf] * k
    dist[0] = 0
    lengths = []
    for _ in range(k):
        d, i = min((d, i) for i, d in enumerate(dist) if not in_tree[i])
        in_tree[i] = True
        if d > 0:
            lengths.append(int(d))
        for j in range(k):
            if not in_tree[j]:
                dist[j] = min(dist[j], chebyshev(points[i], points[j]))
    return sorted(lengths)


def connected_sets(open_sites, offsets, source, target):
    """Is some source site joined to some target site through open sites?"""
    src = set(source) & set(open_sites)
    tgt = set(target)
    for comp in site_components(open_sites, offsets):
        if comp & src and comp & tgt:
            return True
    return False


def config_clusters(cfg, inside):
    """Clusters of a configuration with paths inside the site set ``inside``.

    Site mode: ``site_components`` of the open sites in ``inside``.  Bond mode:
    ``bond_components`` of ``inside`` under the open edges with both ends in it.
    The states are read from ``Config.site_open`` / ``Config.edge_open``.
    """
    import numpy as np

    inside = set(inside)
    origin = cfg.region.origin

    def sites(mask):
        return [tuple(int(c + o) for c, o in zip(row, origin)) for row in np.argwhere(mask)]

    if cfg.lattice.site_mode:
        return site_components(set(sites(cfg.site_open)) & inside, cfg.lattice.neighbor_offsets())
    edges = []
    for axis, open_edges in enumerate(cfg.edge_open):
        for u in sites(open_edges):
            v = tuple(c + (a == axis) for a, c in enumerate(u))
            if u in inside and v in inside:
                edges.append((u, v))
    return bond_components(inside, edges)


def connected_in(cfg, inside, source, target):
    """Is some site of ``source`` joined to one of ``target`` by an open path inside ``inside``?"""
    source, target = set(source), set(target)
    return any(comp & source and comp & target for comp in config_clusters(cfg, inside))


def exact_connect_probability(sites, offsets, p, source, target):
    """Exact P(source joined to target through open sites) by a frontier DP.

    Sites are processed in lexicographic order.  A state is the component
    partition of the open, still-relevant processed sites, each component
    flagged with (touches source, touches target); success mass collapses
    into an absorbing total.  Exact up to float rounding.
    """
    sites = sorted(set(sites))
    site_pos = {s: i for i, s in enumerate(sites)}
    source = set(source)
    target = set(target)
    neigh = {
        s: [w for off in offsets if (w := tuple(a + b for a, b in zip(s, off))) in site_pos]
        for s in sites
    }
    last_needed = {s: max([site_pos[s]] + [site_pos[w] for w in neigh[s]]) for s in sites}

    def canonical(assign, flags):
        """Relabel component ids by first appearance; drop orphaned flags."""
        order: dict = {}
        out = []
        for cid in assign:
            if cid is None:
                out.append(None)
                continue
            if cid not in order:
                order[cid] = len(order)
            out.append(order[cid])
        out_flags = [None] * len(order)
        for cid, new in order.items():
            out_flags[new] = flags[cid]
        return tuple(out), tuple(out_flags)

    frontier: list = []
    states: dict = {((), ()): 1.0}
    success = 0.0

    for i, s in enumerate(sites):
        pos_of = {w: j for j, w in enumerate(frontier)}
        nbr_positions = [pos_of[w] for w in neigh[s] if w in pos_of]
        new_states: dict = {}

        def put(key, prob):
            new_states[key] = new_states.get(key, 0.0) + prob

        for (assign, flags), prob in states.items():
            put((assign + (None,), flags), prob * (1 - p))
            n_ids = {assign[j] for j in nbr_positions if assign[j] is not None}
            touch_a = s in source or any(flags[c][0] for c in n_ids)
            touch_b = s in target or any(flags[c][1] for c in n_ids)
            if touch_a and touch_b:
                success += prob * p
                continue
            new_id = len(flags)
            assign2 = tuple(new_id if a in n_ids else a for a in assign) + (new_id,)
            flags2 = flags + ((touch_a, touch_b),)
            put(canonical(assign2, flags2), prob * p)

        frontier.append(s)
        keep = [j for j, w in enumerate(frontier) if last_needed[w] > i]
        if len(keep) != len(frontier):
            shrunk: dict = {}
            for (assign, flags), prob in new_states.items():
                key = canonical(tuple(assign[j] for j in keep), flags)
                shrunk[key] = shrunk.get(key, 0.0) + prob
            new_states = shrunk
            frontier = [frontier[j] for j in keep]
        states = new_states

    return success


def brute_connect_probability(sites, offsets, p, source, target):
    """Exhaustive-enumeration exact probability (small site sets only)."""
    sites = sorted(set(sites))
    total = 0.0
    for bits in range(1 << len(sites)):
        open_sites = {s for j, s in enumerate(sites) if bits >> j & 1}
        if connected_sets(open_sites, offsets, source, target):
            k = len(open_sites)
            total += p**k * (1 - p) ** (len(sites) - k)
    return total


def ball_union(points, r2):
    """Sites w with 2 * min_x chebyshev(w, x) <= r2, by enumeration."""
    r = r2 // 2
    if r < 0:
        return set()
    d = len(points[0])
    ranges = [
        range(min(x[a] for x in points) - r, max(x[a] for x in points) + r + 1)
        for a in range(d)
    ]
    return {
        w for w in itertools.product(*ranges)
        if 2 * min(chebyshev(w, x) for x in points) <= r2
    }


def doubled_box(n, d):
    """Sites of the box of radius 2n, the root blob's outer face."""
    return set(itertools.product(range(-2 * n, 2 * n + 1), repeat=d))


def shell_sites(members, b2, d2, others, n):
    """A blob's shell from per-site minimum Chebyshev distances.

    A non-root blob (``d2`` given) owns the sites w with b2 < 2 dist(w) <= d2,
    except the even-d2 interface: sites at 2 dist(w) == d2 that another
    point's death ball also reaches.  The root (``d2 is None``) owns the
    doubled box of radius 2n minus its birth-ball union.
    """
    members = sorted(members)
    others = sorted(others or ())
    d = len(members[0])
    window = doubled_box(n, d) if d2 is None else ball_union(members, d2)
    out = set()
    for w in window:
        dist2 = 2 * min(chebyshev(w, x) for x in members)
        if dist2 <= b2:
            continue
        if d2 is not None and dist2 == d2 and others:
            if 2 * min(chebyshev(w, x) for x in others) <= d2:
                continue
        out.add(w)
    return out


def element_bits(p, count, seed):
    """The bit stream of ``seed`` for ``count`` elements, drawn through numpy's ``Generator``.

    ``Generator(Philox(key=seed))`` draws uint8 bytes unpacked MSB-first at
    p = 1/2, and uniform doubles compared against p otherwise.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed))
    if p == 0.5:
        raw = rng.integers(0, 256, size=(count + 7) // 8, dtype=np.uint8)
        return np.unpackbits(raw)[:count].astype(bool)
    return rng.random(count) < p


def reference_cells(lattice, mask, p, seeds):
    """Open-cell grids of the sampler, one per seed, the slow way.

    Each seed's bits come from ``element_bits``.  Bit k lands on element k's cell, one element
    at a time; elements are listed by walking the raster in lexicographic
    order (sites; or bonds (u, axis), axis ascending, as edge cell 2u + e_a).
    """
    import numpy as np

    mask = np.asarray(mask, dtype=bool)
    d = mask.ndim
    step = 1 if lattice.site_mode else 2
    cells = []
    for u in itertools.product(*(range(n) for n in mask.shape)):
        if not mask[u]:
            continue
        if lattice.site_mode:
            cells.append(u)
            continue
        for a in range(d):
            v = tuple(x + (i == a) for i, x in enumerate(u))
            if v[a] < mask.shape[a] and mask[v]:
                cells.append(tuple(2 * x + (i == a) for i, x in enumerate(u)))
    shape = tuple(step * (n - 1) + 1 for n in mask.shape)
    out = np.zeros((len(seeds),) + shape, dtype=bool)
    for b, seed in enumerate(seeds):
        bits = element_bits(p, len(cells), seed)
        if not lattice.site_mode:
            for u in zip(*np.nonzero(mask)):
                out[(b,) + tuple(2 * int(x) for x in u)] = True
        for cell, bit in zip(cells, bits):
            out[(b,) + cell] = bit
    return out


def largest_count(labels):
    """Per-sample largest cluster, scattering an owner index over every label.

    It reads any labels, with no assumption on how label ids are numbered
    across samples.
    """
    import numpy as np

    B = labels.shape[0]
    flat = labels.reshape(B, -1)
    nmax = int(flat.max(initial=0))
    if nmax == 0:
        return np.zeros(B, dtype=np.int64)
    counts = np.bincount(flat.ravel(), minlength=nmax + 1)
    owner = np.zeros(nmax + 1, dtype=np.int64)
    owner[flat] = np.arange(B, dtype=np.int64)[:, None]
    out = np.zeros(B, dtype=np.int64)
    np.maximum.at(out, owner[1:], counts[1:])
    return out


def cluster_extremes(labels):
    """Per-label coordinate minima and maxima, one pair per axis, by scattering every site.

    Labels absent from ``labels`` (0 among them) keep the int64 extremes.
    """
    import numpy as np

    nmax = int(labels.max(initial=0))
    coords = np.nonzero(labels)
    lab = labels[coords]
    out = []
    for axis_coords in coords:
        lo = np.full(nmax + 1, np.iinfo(np.int64).max, dtype=np.int64)
        hi = np.full(nmax + 1, np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(lo, lab, axis_coords)
        np.maximum.at(hi, lab, axis_coords)
        out.append((lo, hi))
    return out


def multinomial_sweep(kmax, d):
    """Sup of the fitted constant over 2 <= k <= kmax (exact incremental).

    Step k adds one merge to the open block, which then holds k - level
    (``level`` = 2^(d j) of k - 1): the value gains (k - 1) / (k - level).
    """
    best, best_k = 0.0, 2
    value, level = 1, 1  # k = 1: no merges, dyadic level 2^0
    for k in range(2, kmax + 1):
        value = value * (k - 1) // (k - level)
        if k == level << d:
            level = k
        fit = math.exp(math.log(value) / (k - 1)) if value > 1 else 1.0
        if fit > best:
            best, best_k = fit, k
    return best, best_k


def power_product_sweep(kmax, d):
    """Sup of (value * k^k)^(1/k) over 2 <= k <= kmax (log-exact).

    Carries j, ``level`` = 2^(d j) and ``base``, the exponent of the closed
    blocks i < j; the exponent of k is (k - level)(j - 1) d + base.
    """
    best, best_k = 0.0, 2
    j, level, base = 0, 1, 0
    for k in range(2, kmax + 1):
        if k == level << d:
            base += d * j * (k - level)  # block j: (2^d - 1) 2^(d j) = k - level points
            j, level = j + 1, k
        e = (k - level) * (j - 1) * d + base
        fit = math.exp(math.log(k) - e * math.log(2) / k)
        if fit > best:
            best, best_k = fit, k
    return best, best_k


def dn_test_order(batch, blocks, per_axis, covers):
    """D(n, u)'s rectangle test order by one uint16 row sum, then a column sum.

    The kernel's reduction before its in-place block sums: keys are score * R
    + index over the open cells of the two blocks each rectangle covers.
    """
    import numpy as np

    b, k, n_rects = len(batch), per_axis, covers.shape[1]
    region = batch[(slice(None),) + blocks]
    side = region.shape[1] // k
    rows = region.reshape(b, k, side, k * side).sum(axis=2, dtype=np.uint16)
    open_cells = rows.reshape(b, k * k, side).sum(axis=2, dtype=np.int64)
    keys = open_cells[:, covers[0]] + open_cells[:, covers[1]]
    keys *= n_rects
    keys += np.arange(n_rects)
    keys.sort(axis=1)
    keys %= n_rects
    return keys


def gluing_violations(raster, n, u, cells):
    """(one-cluster, sum) violations of the gluing check on one configuration.

    The check as the kernel ran it before its flat index arrays: every
    cluster's extremes from ``find_objects`` in a loop over labels, and one
    ``count_connected_to`` pass per n'v over whole-raster site sets.
    """
    import numpy as np
    from scipy import ndimage

    from percolab import grid

    lattice, np_ = raster.lattice, n // u
    labels = grid.label_sites_batch(grid.strip_cells(cells[None]), lattice)[0]
    ends = np.zeros((int(labels.max(initial=0)) + 1, labels.ndim, 2), dtype=np.int64)
    for i, box in enumerate(ndimage.find_objects(labels), 1):
        if box is not None:
            ends[i] = [(s.start, s.stop - 1) for s in box]
    arm_box = raster.box_slices((0,) * lattice.d, n - np_)
    crop = labels[arm_box]
    coords = np.meshgrid(*(np.arange(s.start, s.stop) for s in arm_box), indexing="ij")
    reach = np.zeros(crop.shape, dtype=np.int64)
    for a, w in enumerate(coords):
        np.maximum(reach, ends[:, a, 1][crop] - w, out=reach)
        np.maximum(reach, w - ends[:, a, 0][crop], out=reach)
    viol_i = np.unique(crop[(crop > 0) & (reach >= 2 * np_ + 1)]).size > 1
    total = 0
    for vx in range(-(u - 1), u):
        for vy in range(-(u - 1), u):
            c = (np_ * vx, np_ * vy)
            ring, box = np.nonzero(raster.boundary_mask(c, 2 * np_)), np.nonzero(raster.box_mask(c, np_))
            total += int(grid.count_connected_to(labels[None], ring, box)[0])
    return viol_i, total > int(grid.largest_count(labels[None])[0])


def arm_rows_per_pair(labels, rings, pairs):
    """(B, pairs) arm rows, one flag table and two ring gathers per pair (m, n).

    The arm reduction as the kernel ran it before ``grid.connect_through``
    took every pair in one call: gather the union of the rings ``rings[r]``
    once, then per pair flag the labels on ring m and look up those on ring n.
    """
    import numpy as np

    on_rings = np.logical_or.reduce(list(rings.values()))
    ring = {r: mask[on_rings] for r, mask in rings.items()}
    gathered = labels[:, on_rings]
    rows = []
    for m, n in pairs:
        la, lb = gathered[:, ring[m]], gathered[:, ring[n]]
        flags = np.zeros(int(la.max(initial=0)) + 2, dtype=bool)
        flags[la] = True
        flags[0] = False
        hit = flags.take(lb, mode="clip")
        rows.append(hit.any(axis=tuple(range(1, hit.ndim))))
    return np.stack(rows, axis=1)
