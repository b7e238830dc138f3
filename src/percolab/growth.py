"""Simultaneous ball-growth process on a finite point set.

Grow an L-infinity ball at unit speed around every point of X.  Each time two
balls of distinct components touch, join their centers by an edge; after k-1
merges the edges form a spanning tree.  The merge radii are half-integers, so
everything is stored as doubled radii (``r2 = 2r``), keeping all comparisons
exact: balls of radius r around u and v first touch when 2r equals the
Chebyshev distance.

The merge sequence is exactly single linkage: the multiset of merge radii
equals the multiset of L-infinity minimum-spanning-tree edge half-lengths.
Ties are broken deterministically by the lexicographically smallest eligible
(u, v) pair with u < v, so records are independent of input order.

Blobs are the connected components arising along the way; each carries its
doubled birth and death radii and a rasterized shell (death-ball union minus
birth-ball union; the root's outer face is the doubled box).  Shells of
distinct blobs are pairwise disjoint.

L-infinity balls are axis-aligned cubes, so a shell is painted in place with
one slice assignment per ball (``_fill``).  The root's shell starts as its
whole raster, the doubled box.  Any other shell paints its death balls; for
even d2 it then clears the others' reach and re-sets the balls strictly
inside the death balls; last, the birth balls are cleared.  On 2-D rasters
ball bounds, blob boxes and pair distances are plain integer arithmetic, and
other dimensions take per-axis loops.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .lattice import Site, linf_distance


@dataclass(frozen=True)
class MergeEdge:
    u: Site
    v: Site
    r2: int  # doubled merge radius == Chebyshev distance of u, v


@dataclass(frozen=True)
class GrowthRecord:
    points: tuple[Site, ...]
    edges: tuple[MergeEdge, ...]

    @property
    def k(self) -> int:
        return len(self.points)

    def r2_sequence(self) -> tuple[int, ...]:
        return tuple(e.r2 for e in self.edges)


@dataclass(frozen=True)
class Blob:
    """A component of the growth process; ``d2 is None`` marks the root.

    ``others`` holds the remaining points of X.  A dying blob's death ball
    touches the balls of other same-radius components at sites exactly
    equidistant to both (possible only for even d2); those interface sites
    belong to no shell, which is what keeps the shells pairwise disjoint on
    the lattice.
    """

    members: frozenset[Site]
    b2: int
    d2: int | None
    others: frozenset[Site] | None = None

    @property
    def is_root(self) -> bool:
        return self.d2 is None


def _validated_points(points: Iterable[Site]) -> tuple[Site, ...]:
    pts = tuple(tuple(int(c) for c in p) for p in points)
    if not pts:
        raise ValueError("need at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ValueError("points must share one dimension")
    return pts


def grow_tree(points: Iterable[Site]) -> GrowthRecord:
    """Run the growth process; returns merge edges in nondecreasing r2 order.

    Records are canonical: points are stored sorted, and ties in the merge
    order break on the lexicographically smallest (u, v) pair, so permuted
    inputs yield identical records.
    """
    pts = tuple(sorted(_validated_points(points)))
    k = len(pts)
    # the points are sorted and distinct, so (distance, i, j) with i < j
    # orders pairs as (distance, u, v) does
    if len(pts[0]) == 2:
        pairs = [
            (max(abs(u0 - v0), abs(u1 - v1)), i, j)
            for i, (u0, u1) in enumerate(pts)
            for j, (v0, v1) in enumerate(pts[i + 1 :], i + 1)
        ]
    else:
        pairs = [
            (linf_distance(u, v), i, j) for i, u in enumerate(pts) for j, v in enumerate(pts[i + 1 :], i + 1)
        ]
    pairs.sort()

    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for dist, i, j in pairs:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        edges.append(MergeEdge(pts[i], pts[j], dist))
        if len(edges) == k - 1:
            break
    return GrowthRecord(pts, tuple(edges))


def blobs(record: GrowthRecord, n: int) -> list[Blob]:
    """All components arising during the merge sequence, 2k-1 in total.

    Points must lie in the box of radius ``n``; the final all-points component
    is the root (``d2 = None``), whose outer face is the boundary of the
    doubled box.
    """
    for p in record.points:
        if any(abs(c) > n for c in p):
            raise ValueError(f"point {p} outside the radius-{n} box")
    comp: dict[Site, frozenset[Site]] = {p: frozenset([p]) for p in record.points}
    born: dict[frozenset, int] = {frozenset([p]): 0 for p in record.points}
    out: list[Blob] = []
    allpts = frozenset(record.points)
    for e in record.edges:
        cu, cv = comp[e.u], comp[e.v]
        out.append(Blob(cu, born.pop(cu), e.r2, others=allpts - cu))
        out.append(Blob(cv, born.pop(cv), e.r2, others=allpts - cv))
        merged = cu | cv
        born[merged] = e.r2
        for p in merged:
            comp[p] = merged
    (root_members, root_b2), = born.items()
    out.append(Blob(root_members, root_b2, None))
    return out


def _fill(out: np.ndarray, centers: Iterable[Site], r: int, origin: Site, value: bool) -> None:
    """Set the radius-r L-infinity balls around ``centers`` to ``value`` in ``out``.

    ``out[i]`` is the site ``origin + i``.  Starts and stops below the raster
    clamp to 0, so a ball wholly before it paints nothing instead of wrapping;
    numpy clips those past its end.  A negative r paints nothing.
    """
    if r < 0:
        return
    if out.ndim == 2:
        # the common case, with the bounds in plain integer arithmetic: this
        # loop runs once per ball and dominates the shell rasterizer.  Most of
        # the others' balls miss the raster and are skipped without numpy.
        o0, o1 = origin
        n0, n1 = out.shape
        w = 2 * r + 1
        for c0, c1 in centers:
            s0, s1 = c0 - o0 - r, c1 - o1 - r
            t0, t1 = s0 + w, s1 + w
            if t0 > 0 and t1 > 0 and s0 < n0 and s1 < n1:
                out[s0 if s0 > 0 else 0 : t0, s1 if s1 > 0 else 0 : t1] = value
        return
    for x in centers:
        ball = tuple(slice(max(c - o - r, 0), max(c - o + r + 1, 0)) for c, o in zip(x, origin))
        out[ball] = value


def _blob_bbox(blob: Blob, n: int) -> tuple[Site, tuple[int, ...]]:
    """(origin, shape) of the box around the shell's outer face (doubled box or death balls)."""
    axes = tuple(zip(*blob.members))
    if blob.is_root:
        return (-2 * n,) * len(axes), (4 * n + 1,) * len(axes)
    r = blob.d2 // 2
    if len(axes) == 2:  # the common case, without generators
        xs, ys = axes
        l0, l1 = min(xs) - r, min(ys) - r
        return (l0, l1), (max(xs) + r - l0 + 1, max(ys) + r - l1 + 1)
    lo = tuple(min(a) - r for a in axes)
    return lo, tuple(max(a) + r - l + 1 for a, l in zip(axes, lo))


def blob_region_mask(blob: Blob, n: int) -> tuple[np.ndarray, Site]:
    """The shell between the blob's birth-ball union and death-ball union: (mask, grid origin).

    ``Region(origin, mask)`` is the shell as a set of sites.
    """
    origin, shape = _blob_bbox(blob, n)
    if blob.is_root:  # the outer face, the doubled box, is the whole raster
        shell = np.ones(shape, dtype=bool)
    else:  # or the death balls
        shell = np.zeros(shape, dtype=bool)
        r = blob.d2 // 2
        _fill(shell, blob.members, r, origin, True)
        if blob.others and blob.d2 % 2 == 0:
            # touching interfaces with other components belong to no shell:
            # clear the others' reach, then re-set the balls strictly inside
            # the death balls (a subset of them, so nothing else comes back)
            _fill(shell, blob.others, r, origin, False)
            _fill(shell, blob.members, r - 1, origin, True)
    _fill(shell, blob.members, blob.b2 // 2, origin, False)
    return shell, origin


@dataclass(frozen=True)
class RadiusBoundReport:
    """Checks i * r2_{k - i^d} <= 2n for integer i in [1, (k-1)^(1/d)]."""

    equalities: tuple[tuple[int, int, int], ...]  # (i, r2, bound 2n)
    violations: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_radius_bound(record: GrowthRecord, n: int) -> RadiusBoundReport:
    """Pigeonhole bound on the ordered merge radii, in non-strict form."""
    for p in record.points:
        if any(abs(c) > n for c in p):
            raise ValueError(f"point {p} outside the radius-{n} box")
    k = record.k
    d = len(record.points[0])
    r2s = record.r2_sequence()
    eqs, bad = [], []
    i = 1
    while i**d <= k - 1:
        r2 = r2s[k - i**d - 1]  # r_{k - i^d}, 1-based
        entry = (i, r2, 2 * n)
        if i * r2 > 2 * n:
            bad.append(entry)
        elif i * r2 == 2 * n:
            eqs.append(entry)
        i += 1
    return RadiusBoundReport(tuple(eqs), tuple(bad))


def ordering_count(radii: Counter) -> int:
    """Number of distinct orderings of the multiset ``radii`` (exact big integer)."""
    out = math.factorial(sum(radii.values()))
    for mult in radii.values():
        out //= math.factorial(mult)
    return out


def prob_upper_bound(radii: Counter, n: int, pi: Callable[[int], float], c3: float) -> float:
    """Product bound on the probability that all of X has long arms.

    ``radii`` counts doubled radii, and the callable ``pi(scale)`` is read at
    ceil(r) for half-integer radius r, conservative for nonincreasing pi.
    """
    out = c3 * pi(n)
    for r2, mult in radii.items():
        out *= (c3 * pi((r2 + 1) // 2)) ** mult
    return out


def count_upper_bound(radii: Counter, n: int, c4: float, d: int) -> float:
    """Bound on the number of k-point sets with the multiset ``radii`` of doubled merge radii."""
    out = c4 * float(ordering_count(radii)) * float(n) ** d
    for r2, mult in radii.items():
        out *= (d * c4 * (r2 / 2) ** (d - 1)) ** mult
    return out
