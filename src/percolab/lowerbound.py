"""Lower-bound construction lab: crossing constants, FKG checks, gluing.

The construction event D(n, u) asks, for every integer vector v with
||v||_inf <= u and n' = floor(n/u), for a horizontal crossing of the tall
rectangle at corner n'v (extents n' by 2n') and a vertical crossing of the
wide rectangle at the same corner (extents 2n' by n').  The conditioned
gluing check then verifies, per configuration on which D holds, that

(i)  all participating sites w of the box(n - n') whose carrier cluster
     reaches Chebyshev distance 2n' + 1 from w (equivalently: w is joined to
     the boundary of box(2n') around w) lie in one carrier cluster, and
(ii) the sum over ||v||_inf <= u - 1 of the long-arm counts of box(n')
     around n'v is at most the size of the largest open cluster of the
     carrier.  The boxes of the sum overlap (spacing n', radius n'), so a
     site can be counted up to four times; the carrier-cluster reading is
     the only one consistent with the all-open case, where the sum is
     9 (2n'+1)^2 and any box-confined largest cluster would be smaller.

Conditioning uses rejection in deterministic fixed-size stages, so results
are reproducible and invariant under worker count.  The kernel tests the
2 (2u+1)^2 crossings of D sparsest first and drops an attempt at its first
failing rectangle.  Each attempt scores every rectangle by the open cells of
the two n' x n' blocks of sites it covers (the block at n'v spans
[n'v, n'v + n') per axis; a tall rectangle at n'v covers blocks v and v + e1,
a wide one v and v + e0) and tests its rectangles in ascending score.  Ties
keep the parity-spread order of ``_dn_rects``: corners grouped by (vx mod 2,
vy mod 2), groups in the order (0,0), (0,1), (1,0), (1,1), corners ascending
within a group and every tall rectangle of a group before its wide ones.  A
sparse rectangle is the likeliest to fail, so at n = 32, u = 2, p = 1/2 an
attempt labels 2.6 rectangles where the parity-spread order alone labels 6.0.
D is the AND of all its crossings, and the check runs only where D holds, so
the order moves no result, only the work spent on rejects.

A block's score is summed in place: its rows in the smallest unsigned dtype
that holds a block side, then its columns.  Each step labels one strip
(``grid.StripCrops``) of the survivors' next rectangles: one each while at
least ``STRIP_CROPS`` attempts survive, else ceil(STRIP_CROPS / survivors)
each, and an attempt survives only if all of its crops cross.  That cuts the
strip calls of a 234-replica batch from about 28 to 12 for 2.7 rectangles
per attempt instead of 2.6.  Wide crops are transposed into the tall shape,
which both lattices' structures allow, so every crop is crossed along axis 0.
The check reads its box(n') boxes and box(2n') rings by flat index, and the
extremes of only the clusters that meet box(n - n').  Rectangles, blocks,
boxes and rings are placed in the carrier ``Region``, the raster of every
replica, and a carrier that cannot hold one of them raises ``ValueError``
before any replica is read.

D(n, u) and the check are the kernel observable ``("dn", n, u)``: the gluing
campaign samples it on box(2n) plus boundary with ``estimators._observe``, and
``estimators.read_config(config, ("dn", n, u))`` reads it off one configuration.

``fkg_check`` reads a catalog of event pairs: the events that share a carrier,
the box of a pair's larger radius plus boundary, share one kernel call.

``lower_construction`` runs the campaign with the fitted C11, C12, C13 and the
direct C_1 tail for both CLI ``lower`` and criterion 9.  The campaign keeps
the attempts on which D held, and the FKG chain reads P(D) off them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import grid
from .bounds import scale_floor
from .estimators import (
    TAG_DN,
    TAG_FKG,
    TAG_RSW,
    Estimate,
    PiTable,
    VnSample,
    _crop_labels,
    _observe,
    binomial_sums,
    count_at_least,
    estimate_crossing,
    event_estimate,
    family_seed,
    mean_estimate,
)
from .lattice import LatticeSpec, Region, Site, box_sites, box_with_boundary, boundary, rect_region
from .parallel import run_counters


# ---------------------------------------------------------------------------
# RSW constant


@dataclass(frozen=True)
class RswFit:
    estimate: Estimate
    c11: float


def estimate_rsw_constant(
    lattice: LatticeSpec, p: float, n: int, samples: int, master_seed: int, workers: int = 1
) -> RswFit:
    """Horizontal crossing of the 2:1 rectangle (extents 2n by n); c11 = -log p̂.

    This is the hard-direction crossing, the nontrivial uniform lower bound.
    A zero estimate at the sampled resolution yields an infinite ``c11``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    est = estimate_crossing(lattice, p, (2 * n, n), 0, samples, master_seed, workers, TAG_RSW)
    c11 = abs(-math.log(est.point)) if est.point > 0 else math.inf
    return RswFit(est, c11)


# ---------------------------------------------------------------------------
# FKG checks on a catalog of increasing events

_EVENT_KINDS = ("h_crossing", "v_crossing", "arm", "vn_ge", "c1_ge")


@dataclass(frozen=True)
class EventSpec:
    """An increasing event from the certified catalog, read off one kernel observable.

    A crossing is the ``crossing`` observable of its rectangle; ``arm`` is the
    arm row (m, n); ``vn_ge`` and ``c1_ge`` compare the ``vn`` and ``c1``
    counts at n with ``threshold``.  Events of a pair share one carrier, the
    box of the larger ``required_radius`` plus its boundary, and the pairs of
    a catalog whose larger radii are equal share that carrier and one kernel call.
    """

    kind: str
    corner: Site | None = None
    widths: tuple[int, int] | None = None
    m: int | None = None
    n: int | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"event kind {self.kind!r} is not in the increasing-event catalog")
        if self.kind in ("h_crossing", "v_crossing"):
            if self.corner is None or self.widths is None:
                raise ValueError("crossing events need corner and widths")
        elif self.kind == "arm":
            if self.m is None or self.n is None or not 1 <= self.m < self.n:
                raise ValueError("arm events need 1 <= m < n")
        elif self.kind in ("vn_ge", "c1_ge"):
            if self.n is None or self.threshold is None:
                raise ValueError("threshold events need n and threshold")

    def required_radius(self) -> int:
        if self.kind in ("h_crossing", "v_crossing"):
            return max(max(abs(c), abs(c + w)) for c, w in zip(self.corner, self.widths))
        if self.kind == "arm":
            return self.n
        if self.kind == "vn_ge":
            return 2 * self.n
        return self.n

    def observable(self) -> tuple:
        """The kernel observable whose per-replica values decide the event."""
        if self.kind in ("h_crossing", "v_crossing"):
            axis = 0 if self.kind == "h_crossing" else 1
            return ("crossing", tuple(self.corner), tuple(self.widths), axis)
        if self.kind == "arm":
            return ("arm", ((self.m, self.n),))
        return ("vn" if self.kind == "vn_ge" else "c1", self.n)

    def holds(self, values: np.ndarray) -> np.ndarray:
        """Per replica: the event, from the values of its observable."""
        if self.kind in ("vn_ge", "c1_ge"):
            return values >= self.threshold
        return values[:, 0] if self.kind == "arm" else values


@dataclass(frozen=True)
class FkgResult:
    joint: Estimate
    marginal_a: Estimate
    marginal_b: Estimate
    z: float

    @property
    def product(self) -> float:
        return self.marginal_a.point * self.marginal_b.point


def fkg_check(
    lattice: LatticeSpec,
    p: float,
    pairs: Sequence[tuple[EventSpec, EventSpec]],
    samples: int,
    master_seed: int,
    workers: int = 1,
) -> list[FkgResult]:
    """Joint vs product probability of each pair of increasing events, on shared replicas.

    A pair's carrier is the box of its larger ``required_radius`` plus its
    boundary, and the pairs on one carrier read all their events in one
    kernel call, so each pair's result is that of a catalog of one.
    ``z`` is the delta-method z-score of joint - product; positive association
    (the FKG inequality) predicts z bounded below by sampling noise.
    """
    radii = [max(a.required_radius(), b.required_radius()) for a, b in pairs]
    values = {}  # (carrier radius, observable) -> per-replica values
    for r in dict.fromkeys(radii):
        events = [e for pair, s in zip(pairs, radii) if s == r for e in pair]
        obs = tuple(dict.fromkeys(e.observable() for e in events))
        task = (lattice, p, box_with_boundary(lattice, r), obs, family_seed(master_seed, TAG_FKG))
        found = run_counters(partial(_observe, task), 0, samples, workers)
        values.update(zip([(r, o) for o in obs], found))
    return [
        _fkg_result(a.holds(values[r, a.observable()]), b.holds(values[r, b.observable()]), samples)
        for (a, b), r in zip(pairs, radii)
    ]


def _fkg_result(ia: np.ndarray, ib: np.ndarray, samples: int) -> FkgResult:
    """Joint and marginal estimates, and z, of two per-replica event indicators."""
    na, nb, nab = int(ia.sum()), int(ib.sum()), int((ia & ib).sum())
    pa, pb, pab = na / samples, nb / samples, nab / samples
    diff = pab - pa * pb
    var = (
        pab * (1 - pab) + pb * pb * pa * (1 - pa) + pa * pa * pb * (1 - pb)
        - 2 * pb * pab * (1 - pa) - 2 * pa * pab * (1 - pb) + 2 * pa * pb * (pab - pa * pb)
    ) / samples
    z = diff / math.sqrt(var) if var > 0 else 0.0 if diff >= 0 else -math.inf
    return FkgResult(*(event_estimate(k, samples) for k in (nab, na, nb)), z)


# ---------------------------------------------------------------------------
# Long-arm lower-bound constants


@dataclass(frozen=True)
class VnLowerReport:
    mean_vn: float
    floor_value: float  # n^2 * pi(3n)
    mean_ok: bool  # mean_vn >= floor within 3 sigma
    c13_fits: tuple[float, ...]  # one per C12 of the caller's grid


# the C12 values the tail fits are read at, unless a caller names others
C12_GRID = (0.1, 0.2, 0.5)


def vn_lower_constants(
    sample: VnSample, pi: PiTable, c12_grid: Sequence[float] = C12_GRID
) -> VnLowerReport:
    """Mean long-arm count of ``sample`` against n^2 pi(3n), plus tail fits on a C12 grid."""
    if sample.lattice.d != 2:
        raise ValueError("lower-bound constants are two-dimensional")
    n, samples = sample.n, sample.samples
    pin = pi.pi(n)
    pi3n = pi.pi(3 * n)
    est = mean_estimate(*binomial_sums(sample.vn, 1), samples)
    floor = n * n * pi3n
    ok = est.point - floor >= -3.0 * math.hypot(est.stderr, n * n * pi.stderr(3 * n))
    fits = []
    for c in c12_grid:
        tail = event_estimate(count_at_least(sample.vn, c * n * n * pin), samples).point
        fits.append(abs(-math.log(tail)) if tail > 0 else math.inf)
    return VnLowerReport(est.point, floor, ok, tuple(fits))


# ---------------------------------------------------------------------------
# The gluing event D(n, u) and the conditioned checks


def _dn_rects(n: int, u: int, d: int) -> list[tuple[Site, tuple[int, int], int]]:
    """The 2 (2u+1)^2 rectangles of D(n, u) as (corner, widths, crossing axis), in tie order."""
    if d != 2:
        raise ValueError("the gluing construction is two-dimensional")
    if not 2 <= u <= n:
        raise ValueError("u must be an integer in [2, n]")
    np_ = n // u
    widths = ((np_, 2 * np_), (2 * np_, np_))  # axis 0: the tall rectangle; axis 1: the wide one
    order = sorted(
        (vx % 2, vy % 2, axis, vx, vy)
        for vx in range(-u, u + 1)
        for vy in range(-u, u + 1)
        for axis in (0, 1)
    )
    return [((np_ * vx, np_ * vy), widths[axis], axis) for _, _, axis, vx, vy in order]


def _cluster_extremes(labels: np.ndarray, present: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the coordinate minima and maxima of the clusters ``present`` (sorted labels).

    A table per axis marks which of those labels occur on each line across
    the axis; a label's extremes are its first and last marked line.
    """
    columns = len(present) + 1  # every other label shares the last column
    slot = np.full(int(labels.max(initial=0)) + 1, len(present))
    slot[present] = np.arange(len(present))
    slots = slot.take(labels)
    out = []
    for a, size in enumerate(labels.shape):
        line = np.arange(0, size * columns, columns).reshape((-1,) + (1,) * (labels.ndim - 1 - a))
        seen = np.zeros((size, columns), dtype=bool)
        seen.reshape(-1)[line + slots] = True
        out.append((seen.argmax(axis=0)[:-1], size - 1 - seen[::-1].argmax(axis=0)[:-1]))
    return out


@dataclass(frozen=True)
class _DnGeometry:
    """What D(n, u) and its check read of a carrier besides the labels."""

    rects: grid.StripCrops  # the rectangles in _dn_rects order, wide ones transposed
    blocks: tuple[slice, ...]  # cell slices of the k x k blocks of n' x n' sites under the rectangles
    per_axis: int  # k = 2u + 2
    covers: np.ndarray  # (2, rectangles): the flat index of the two blocks each rectangle covers
    arm_sites: np.ndarray  # flat raster index of each site of box(n - n')
    arm_coords: np.ndarray  # raster index of each arm site, one row per axis
    arm_reach: int  # 2n' + 1
    local: np.ndarray  # per n'v, one row: flat index of the ring of box(2n'), then of box(n')
    ring: tuple[np.ndarray]  # the ring part of a row of ``local``, as ``np.nonzero`` indexes it
    box: tuple[np.ndarray]  # its box part


def _dn_geometry(lattice: LatticeSpec, carrier: Region, n: int, u: int) -> _DnGeometry:
    """The geometry of D(n, u) placed in ``carrier``, read-only (its reader is cached)."""
    rects = _dn_rects(n, u, lattice.d)
    places = [(rect_region(c, w).slices_in(carrier), axis == 1) for c, w, axis in rects]
    crops = grid.StripCrops(lattice, carrier.shape, places)
    np_, k, cell = n // u, 2 * u + 2, grid.stride(lattice)
    spread = rect_region((-u * np_,) * lattice.d, (k * np_ - 1,) * lattice.d).slices_in(carrier)
    blocks = tuple(slice(cell * s.start, cell * s.stop) for s in spread)
    # block v sits at flat index (vx + u) k + vy + u; a tall rectangle at n'v
    # covers blocks v and v + e1, a wide one v and v + e0
    first = [(c[0] // np_ + u) * k + c[1] // np_ + u for c, _, _ in rects]
    covers = np.array([first, [f + (k if axis == 1 else 1) for f, (_, _, axis) in zip(first, rects)]])
    arm_sites = np.flatnonzero(box_sites((0,) * lattice.d, n - np_).mask_in(carrier))
    arm_coords = np.array(np.unravel_index(arm_sites, carrier.shape))
    local = []
    for vx in range(-(u - 1), u):
        for vy in range(-(u - 1), u):
            c = (np_ * vx, np_ * vy)
            ring = np.flatnonzero(boundary(box_sites(c, 2 * np_), lattice).mask_in(carrier))
            local.append(np.concatenate([ring, np.flatnonzero(box_sites(c, np_).mask_in(carrier))]))
    ring, box = (np.arange(len(ring)),), (np.arange(len(ring), len(local[0])),)
    local = np.array(local)
    for array in (covers, arm_sites, arm_coords, local, *ring, *box):
        array.flags.writeable = False
    return _DnGeometry(crops, blocks, k, covers, arm_sites, arm_coords, 2 * np_ + 1, local, ring, box)


def _test_order(batch: np.ndarray, geometry: _DnGeometry) -> np.ndarray:
    """Per replica, its rectangle indices sparsest first, ties in ``_dn_rects`` order.

    A rectangle scores the open cells of the two blocks it covers.  Each
    block's rows are added in place in the smallest unsigned dtype that holds
    a block side, then its columns in int64: one reduction over both axes
    costs about four times as much.  The sort keys are score * R + index,
    unique, so a plain sort keeps ties in order and the index is the remainder.
    """
    b, k, n_rects = len(batch), geometry.per_axis, geometry.covers.shape[1]
    region = batch[(slice(None),) + geometry.blocks]
    side = region.shape[1] // k
    cells = region.reshape(b, k, side, k * side).view(np.uint8)
    rows = cells[:, :, 0].astype(np.min_scalar_type(side))
    for i in range(1, side):
        rows += cells[:, :, i]
    columns = rows.reshape(b, k * k, side)
    open_cells = columns[:, :, 0].astype(np.int64)
    for j in range(1, side):
        open_cells += columns[:, :, j]
    keys = open_cells[:, geometry.covers[0]] + open_cells[:, geometry.covers[1]]
    keys *= n_rects
    keys += np.arange(n_rects)
    keys.sort(axis=1)
    keys %= n_rects
    return keys


def _gluing_violations(
    lattice: LatticeSpec, geometry: _DnGeometry, single_batch: np.ndarray
) -> tuple[bool, bool]:
    """(one-cluster check violated, sum inequality violated) for one config."""
    labels = grid.label_sites_batch(grid.strip_cells(single_batch), lattice)[0]
    flat = labels.reshape(-1)

    # (i) qualifying long-arm sites of box(n - n') share one carrier cluster
    arm = flat[geometry.arm_sites]
    present, which = np.unique(arm, return_inverse=True)
    reach = np.zeros(arm.shape, dtype=np.int64)
    for w, (lo, hi) in zip(geometry.arm_coords, _cluster_extremes(labels, present)):
        np.maximum(reach, hi[which] - w, out=reach)
        np.maximum(reach, w - lo[which], out=reach)
    qual = arm[(arm > 0) & (reach >= geometry.arm_reach)]
    viol_i = bool((qual != qual[:1]).any())

    # (ii) sum of local long-arm counts vs largest carrier cluster; count_connected_to
    # pools label ids over its rows, so each row's ids are shifted past the last row's
    local = flat[geometry.local].astype(np.int64)
    ids = int(labels.max(initial=0)) + 1
    local += (local > 0) * np.arange(0, len(local) * ids, ids)[:, None]
    total = int(grid.count_connected_to(local, geometry.ring, geometry.box).sum())
    viol_ii = total > int(grid.largest_count(labels[None])[0])
    return viol_i, viol_ii


# While fewer than this many attempts survive, each survivor puts its next
# ceil(STRIP_CROPS / survivors) rectangles into the step's strip.  A strip
# call's fixed cost is that of about six crops at n = 32, so a wider strip
# trades calls for rectangles that the order alone would not label; 1-worker
# gluing units at n = 32, u = 2 ran 1% slower with 8 and 3% slower with 32.
STRIP_CROPS = 16


def _dn_reader(lattice: LatticeSpec, carrier: Region, n: int, u: int):
    """(batch reduction, cells of one rectangle) of ``("dn", n, u)`` on ``carrier``.

    The reduction gives D holds, then (where it does) each violation.
    """
    geometry = _dn_geometry(lattice, carrier, n, u)

    def read(batch: np.ndarray, buffers: grid.Buffers) -> np.ndarray:
        flags = np.zeros((len(batch), 3), dtype=bool)
        order = _test_order(batch, geometry)
        alive = np.arange(len(batch))  # survivors so far; only their crops are copied
        done = 0  # rectangles every survivor has crossed
        while alive.size and done < order.shape[1]:
            width = min(-(-STRIP_CROPS // alive.size), order.shape[1] - done)
            kinds = order[alive, done : done + width].ravel()
            rows = (np.repeat(alive, width), kinds)
            labels = _crop_labels(lattice, batch, geometry.rects, rows, buffers=buffers)
            alive = alive[grid.crossing(labels, 0).reshape(-1, width).all(axis=1)]
            done += width
        for j in alive.tolist():
            flags[j] = (True, *_gluing_violations(lattice, geometry, batch[j : j + 1]))
        return flags

    return read, geometry.rects.h * geometry.rects.w


def _dn_kernel(lattice: LatticeSpec, p: float, n: int, u: int, master_seed: int):
    """The ``("dn", n, u)`` kernel of a seed."""
    carrier = box_with_boundary(lattice, 2 * n)
    task = (lattice, p, carrier, (("dn", n, u),), family_seed(master_seed, TAG_DN, n, u))
    return partial(_observe, task)


@dataclass(frozen=True)
class GluingCampaignReport:
    n: int
    u: int
    attempts: int
    conditioned: int
    holds: int
    violated: int
    violated_one_cluster: int
    violated_sum: int
    d_attempts: tuple[int, ...]  # ascending attempt indices where D(n, u) held

    @property
    def acceptance_rate(self) -> float:
        return self.conditioned / self.attempts if self.attempts else 0.0


def gluing_campaign(
    lattice: LatticeSpec,
    p: float,
    n: int,
    u: int,
    target_conditioned: int,
    master_seed: int,
    workers: int = 1,
    stage_size: int = 50_000,
    max_attempts: int = 40_000_000,
    stop_after_violations: int | None = None,
) -> GluingCampaignReport:
    """Rejection-sample configurations on which D(n, u) holds; tally gluing.

    Attempts run in deterministic fixed-size stages so the outcome is
    reproducible and worker-count invariant.  The campaign stops once the
    conditioned target is reached, the violation budget is exhausted, or the
    attempt cap is hit (the acceptance rate is reported either way).
    """
    stop = 1 if stop_after_violations is None else stop_after_violations
    if min(target_conditioned, max_attempts, stop) < 1:
        raise ValueError("conditioned, max_attempts and stop_after_violations must be >= 1")
    kernel = _dn_kernel(lattice, p, n, u, master_seed)
    attempts = violated = viol_i = viol_ii = 0
    d_attempts: list[int] = []
    while len(d_attempts) < target_conditioned and attempts < max_attempts:
        if stop_after_violations is not None and violated >= stop_after_violations:
            break
        stage = min(stage_size, max_attempts - attempts)
        d, vi, vii = run_counters(kernel, attempts, attempts + stage, workers)[0].T
        d_attempts.extend((attempts + np.flatnonzero(d)).tolist())
        attempts += stage
        violated += int((vi | vii).sum())
        viol_i += int(vi.sum())
        viol_ii += int(vii.sum())
    conditioned = len(d_attempts)
    return GluingCampaignReport(
        n, u, attempts, conditioned, conditioned - violated, violated, viol_i, viol_ii,
        tuple(d_attempts),
    )


@dataclass(frozen=True)
class DnChainBound:
    """Empirical FKG chaining: P(D) against (p_H p_V)^((2u+1)^2)."""

    d_estimate: Estimate
    h_estimate: Estimate
    v_estimate: Estimate
    chained_bound: float

    @property
    def holds_within_3sigma(self) -> bool:
        return self.d_estimate.point >= self.chained_bound - 3 * self.d_estimate.stderr


def dn_fkg_bound(
    campaign: GluingCampaignReport, lattice: LatticeSpec, p: float, samples: int, master_seed: int,
    workers: int = 1,
) -> DnChainBound:
    """Check P(D(n,u)) >= (p_H p_V)^((2u+1)^2) - 3 sigma at the empirical level.

    p_H and p_V are the single-rectangle crossing probabilities of the
    construction's tall and wide rectangles at scale n' = floor(n/u).  P(D)
    is the D(n, u) share of attempts [0, samples) of ``campaign``, which must
    have run on the same lattice, p and seed: its D flags are read where it
    ran, and only the attempts past its end are sampled.
    """
    n, u = campaign.n, campaign.u
    npr = n // u
    h_est = estimate_crossing(lattice, p, (npr, 2 * npr), 0, samples, master_seed, workers)
    v_est = estimate_crossing(lattice, p, (2 * npr, npr), 1, samples, master_seed, workers)
    d = bisect_left(campaign.d_attempts, samples)
    if campaign.attempts < samples:
        kernel = _dn_kernel(lattice, p, n, u, master_seed)
        d += int(run_counters(kernel, campaign.attempts, samples, workers)[0][:, 0].sum())
    chained = (h_est.point * v_est.point) ** ((2 * u + 1) ** 2)
    return DnChainBound(event_estimate(d, samples), h_est, v_est, chained)


# ---------------------------------------------------------------------------
# Direct lower-tail estimate vs the construction-implied bound


@dataclass(frozen=True)
class LowerTailResult:
    direct: Estimate
    implied_bound: float
    threshold: float


def lower_tail_estimate(
    sample: VnSample, u: int, pi: PiTable, c11: float, c12: float, c13: float
) -> LowerTailResult:
    """P(largest cluster >= (C12/2) n^2 pi(n/u)) in ``sample`` vs exp(-(2 C11 + C13) u^2)."""
    n = sample.n
    if sample.lattice.d != 2:
        raise ValueError("the lower tail construction is two-dimensional")
    if not 2 <= u <= n:
        raise ValueError("u must be an integer in [2, n]")
    threshold = 0.5 * c12 * n * n * pi.pi(scale_floor(n, u))
    direct = event_estimate(count_at_least(sample.c1, threshold), sample.samples)
    implied = math.exp(-(2 * c11 + c13) * u * u)
    return LowerTailResult(direct, implied, threshold)


@dataclass(frozen=True)
class LowerConstruction:
    """The lower-tail construction at (n, u): fitted constants, gluing campaign, direct tail."""

    rsw: RswFit  # C11 is rsw.c11
    constants: VnLowerReport
    c12: float
    c13: float
    campaign: GluingCampaignReport
    tail: LowerTailResult


def lower_construction(
    p: float, u: int, pi: PiTable, constants: VnSample, tail: VnSample, master_seed: int,
    workers: int, c12_grid: Sequence[float], *, conditioned: int,
    stop_after_violations: int | None, max_attempts: int,
) -> LowerConstruction:
    """The construction at n = ``tail.n``, on the lattice of ``tail``, which holds C_1 at n.

    ``constants`` holds V_n at n' = floor(n/u), and C11 is fitted at n' on as
    many replicas.  C12 and C13 are the grid point ``min(1, len(c12_grid) - 1)``
    and its fit.
    """
    lattice, n = tail.lattice, tail.n
    if not c12_grid or min(c12_grid) <= 0:
        raise ValueError(f"c12_grid must be a nonempty list of positive numbers, got {c12_grid!r}")
    campaign = gluing_campaign(
        lattice, p, n, u, conditioned, master_seed, workers,
        stop_after_violations=stop_after_violations, max_attempts=max_attempts,
    )
    rsw = estimate_rsw_constant(lattice, p, n // u, constants.samples, master_seed, workers)
    low = vn_lower_constants(constants, pi, c12_grid)
    pick = min(1, len(c12_grid) - 1)
    c12, c13 = c12_grid[pick], low.c13_fits[pick]
    direct = lower_tail_estimate(tail, u, pi, rsw.c11, c12, c13)
    return LowerConstruction(rsw, low, c12, c13, campaign, direct)
