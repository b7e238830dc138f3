"""Monte Carlo estimation of arm probabilities and cluster statistics.

Seeding and replica sharing
---------------------------
Every estimator family draws replica seeds from a family seed
``derive_stream(derive_stream(master, TAG), n)``; replica ``i`` then uses
``derive_stream(family_seed, i)``.  Estimators in the same family at the same
scale therefore share replicas: the largest-cluster, long-arm tail and
binomial-moment statistics at one ``n`` are measured on identical
configurations (variance reduction; also makes algebraic identities between
them exact).  An arm-probability table samples one family, at its largest
outer scale N, and reads every row (m, n) off the same replicas, so the
nesting of the arm events holds exactly in its counts: hits fall as n grows,
rise as m grows, and hits(k, m) <= min(hits(k, l), hits(l, m)).  A row
(m, N) is the single-row estimate ``estimate_pi(m, N)``.  Everything is
deterministic in the master seed and invariant under worker count: kernels
return per-replica arrays in replica order, and each observable is reduced
once, in the parent, by one function here (threshold counts, exact binomial
sums, the histogram).  Replica ``i`` of a family is the same configuration in
every call, so a sample of the first k replicas is a prefix of any larger one.

Carriers
--------
Arm estimation samples and labels the box of radius N plus its boundary once
per replica.  Row (m, n) reads the event "some cluster touches the boundary
of box(m) and the boundary of box(n)".  It is the confined event of
``clusters.arm_event``: a path from the boundary of box(m) meets the boundary
of box(n) before it can leave box(n), so its first stretch already lies in
box(n) plus its boundary.  Long-arm/cluster statistics at scale n
sample the box of radius 2n plus its boundary, where both the largest-cluster
and long-arm observables are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from . import grid
from .lattice import LatticeKind, LatticeSpec, box_with_boundary
from .parallel import run_counters, shifted
from .sampler import derive_stream, open_cells_batch

TAG_PI = 0x501
TAG_VN = 0x502
TAG_CROSS = 0x503
TAG_FKG = 0x504
TAG_DN = 0x505
TAG_RSW = 0x506
TAG_LOWER = 0x507

#: Critical points used as defaults; the d = 3 bond value is a literature
#: constant supplied through configuration, never asserted by tests.
DEFAULT_P_C = {
    (LatticeKind.TRIANGULAR_SITE, 2): 0.5,
    (LatticeKind.Z_BOND, 2): 0.5,
    (LatticeKind.Z_BOND, 3): 0.2488126,
}


def family_seed(master_seed: int, tag: int, *keys: int) -> int:
    s = derive_stream(master_seed, tag)
    for k in keys:
        s = derive_stream(s, k)
    return s


def default_p(lattice: LatticeSpec) -> float:
    try:
        return DEFAULT_P_C[(lattice.kind, lattice.d)]
    except KeyError:
        raise ValueError(f"no default critical point for {lattice}") from None


# ---------------------------------------------------------------------------
# Estimates and confidence machinery


def wald_stderr(successes: int, samples: int) -> float:
    p = successes / samples
    return math.sqrt(p * (1 - p) / samples)


def wilson_halfwidth(successes: int, samples: int, z: float = 1.0) -> float:
    """Half-width of the Wilson score interval (z = 1 gives a 1-sigma analogue)."""
    p = successes / samples
    denom = 1 + z * z / samples
    return (z / denom) * math.sqrt(p * (1 - p) / samples + z * z / (4 * samples * samples))


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with uncertainty."""

    samples: int
    point: float
    stderr: float
    successes: int | None = None
    ci_method: str = "wilson"

    def __post_init__(self) -> None:
        if self.successes is not None and not 0 <= self.successes <= self.samples:
            raise ValueError("successes must lie in [0, samples]")
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")


def event_estimate(successes: int, samples: int, ci_method: str = "wilson") -> Estimate:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    point = successes / samples
    if ci_method == "wilson":
        err = wilson_halfwidth(successes, samples)
    elif ci_method == "wald":
        err = wald_stderr(successes, samples)
    else:
        raise ValueError(f"unknown ci method {ci_method!r}")
    return Estimate(samples, point, err, successes, ci_method)


def mean_estimate(total: int | float, total_sq: int | float, samples: int) -> Estimate:
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return Estimate(samples, mean, math.sqrt(var / samples), None, "wald")


# ---------------------------------------------------------------------------
# Arm-probability table


@dataclass(frozen=True)
class PiRow:
    m: int
    n: int
    samples: int
    successes: int
    estimate: float
    stderr: float


@dataclass
class PiTable:
    """Arm-probability estimates keyed by (m, n); pi(m, m) = 1 by convention."""

    lattice: LatticeSpec
    p: float
    rows: dict[tuple[int, int], PiRow] = field(default_factory=dict)

    def add(self, row: PiRow) -> None:
        key = (row.m, row.n)
        if key in self.rows:
            raise ValueError(f"duplicate pi row {key}")
        self.rows[key] = row

    def pi(self, m: int, n: int | None = None) -> float:
        if n is None:
            m, n = 1, m
        if m == n:
            return 1.0
        key = (m, n)
        if key not in self.rows:
            raise ValueError(f"missing pi row {key}")
        return self.rows[key].estimate

    def stderr(self, m: int, n: int | None = None) -> float:
        if n is None:
            m, n = 1, m
        if m == n:
            return 0.0
        key = (m, n)
        if key not in self.rows:
            raise ValueError(f"missing pi row {key}")
        return self.rows[key].stderr

    def sorted_rows(self) -> list[PiRow]:
        return [self.rows[k] for k in sorted(self.rows)]


# ---------------------------------------------------------------------------
# Batched kernels (top level: picklable for worker processes)


def _batch_ranges(start: int, stop: int, size: int) -> Iterable[tuple[int, int]]:
    for s in range(start, stop, size):
        yield s, min(s + size, stop)


def _batch_size(cells: int) -> int:
    return max(4, min(256, 4_000_000 // max(cells, 1)))


def _arm_counts(task, start: int, stop: int) -> np.ndarray:
    """(replicas, rows) hits of the rows (m, n), read off one labeling of box(N) plus boundary."""
    lattice, p, N, pairs, fam = task
    carrier = box_with_boundary(lattice, N)
    raster = grid.BoxRaster(lattice, carrier)
    center = (0,) * lattice.d
    radii = {r for pair in pairs for r in pair}
    rings = {r: raster.boundary_mask(center, r) for r in radii}
    on_rings = np.logical_or.reduce(list(rings.values()))
    # ring r as a mask over the gathered ring sites
    ring = {r: mask[on_rings] for r, mask in rings.items()}
    out = np.zeros((stop - start, len(pairs)), dtype=bool)
    bsize = _batch_size(carrier.mask.size)
    for lo, hi in _batch_ranges(start, stop, bsize):
        seeds = [derive_stream(fam, i) for i in range(lo, hi)]
        # gather every ring once, so the raster labels are freed before the next batch
        labels = grid.label_sites_batch(
            open_cells_batch(lattice, carrier.mask, p, seeds), lattice
        )[:, on_rings]
        for j, (m, n) in enumerate(pairs):
            out[lo - start : hi - start, j] = grid.connect_through(labels, ring[m], ring[n])
    return out


def _crop_labels(
    lattice: LatticeSpec, batch: np.ndarray, sl: tuple[slice, ...], rows=slice(None)
) -> np.ndarray:
    """Labels confined to a site-space crop (paths inside the crop only) of ``batch[rows]``."""
    return grid.label_sites_batch(batch[(rows,) + grid.cell_slices(lattice, sl)], lattice)


def _vn_counts(task, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Per replica: the long-arm count V_n and the largest cluster C_1 of box(n)."""
    lattice, p, n, fam = task
    carrier = box_with_boundary(lattice, 2 * n)
    raster = grid.BoxRaster(lattice, carrier)
    center = (0,) * lattice.d
    ring = raster.boundary_mask(center, 2 * n)
    inner = raster.box_mask(center, n)
    box_sl = raster.box_slices(center, n)
    vn = np.empty(stop - start, dtype=np.int64)
    c1 = np.empty(stop - start, dtype=np.int64)
    bsize = _batch_size(carrier.mask.size)
    for lo, hi in _batch_ranges(start, stop, bsize):
        seeds = [derive_stream(fam, i) for i in range(lo, hi)]
        batch = open_cells_batch(lattice, carrier.mask, p, seeds)
        rows = slice(lo - start, hi - start)
        vn[rows] = grid.count_connected_to(grid.label_sites_batch(batch, lattice), ring, inner)
        c1[rows] = grid.largest_count(_crop_labels(lattice, batch, box_sl))
    return vn, c1


def _crossing_counts(task, start: int, stop: int) -> np.ndarray:
    """Per replica: the rectangle [0,w0]x[0,w1] is crossed along ``axis``."""
    lattice, p, widths, axis, fam = task
    shape = tuple(w + 1 for w in widths)
    mask = np.ones(shape, dtype=bool)
    crop = tuple(slice(0, s) for s in shape)
    hits = np.zeros(stop - start, dtype=bool)
    bsize = _batch_size(mask.size)
    for lo, hi in _batch_ranges(start, stop, bsize):
        seeds = [derive_stream(fam, i) for i in range(lo, hi)]
        labels = _crop_labels(lattice, open_cells_batch(lattice, mask, p, seeds), crop)
        hits[lo - start : hi - start] = grid.crossing(labels, axis)
    return hits


# ---------------------------------------------------------------------------
# Reductions over per-replica arrays


def count_at_least(values: np.ndarray, threshold: float) -> int:
    """Replicas whose value reaches ``threshold``."""
    return int((values >= threshold).sum())


def binomial_sums(values: np.ndarray, k: int) -> tuple[int, int]:
    """Exact sums of binom(v, k) and of its square; k = 1 gives the sum and sum of squares.

    Python integers: binom(V_n, 5) at n = 64 overflows int64.
    """
    total = total_sq = 0
    for v in values.tolist():
        b = math.comb(v, k)
        total += b
        total_sq += b * b
    return total, total_sq


def histogram(values: np.ndarray) -> dict[int, int]:
    """Replica count of each value that occurs."""
    vals, counts = np.unique(values, return_counts=True)
    return dict(zip(vals.tolist(), counts.tolist()))


@dataclass(frozen=True)
class VnSample:
    """Per-replica long-arm counts ``vn`` and largest clusters ``c1`` of the V_n family at n."""

    lattice: LatticeSpec
    n: int
    vn: np.ndarray
    c1: np.ndarray

    @property
    def samples(self) -> int:
        return len(self.vn)

    def head(self, samples: int) -> VnSample:
        """The first ``samples`` replicas."""
        return VnSample(self.lattice, self.n, self.vn[:samples], self.c1[:samples])

    def extended(self, more: VnSample) -> VnSample:
        """This sample followed by ``more``, the replicas that come after it."""
        vn = np.concatenate((self.vn, more.vn))
        return VnSample(self.lattice, self.n, vn, np.concatenate((self.c1, more.c1)))

    def statistics(
        self,
        c1_thresholds: Sequence[float] = (),
        vn_thresholds: Sequence[float] = (),
        moment_ks: Sequence[int] = (),
        want_hist: bool = False,
    ) -> dict:
        """Sums, squares, threshold counts ``c1ge:i``/``vnge:i``, moments ``msum:k``/``msq:k``."""
        vsum, vsq = binomial_sums(self.vn, 1)
        c1sum, c1sq = binomial_sums(self.c1, 1)
        out: dict = {"samples": self.samples, "vsum": vsum, "vsq": vsq, "c1sum": c1sum, "c1sq": c1sq}
        for i, t in enumerate(c1_thresholds):
            out[f"c1ge:{i}"] = count_at_least(self.c1, float(t))
        for i, t in enumerate(vn_thresholds):
            out[f"vnge:{i}"] = count_at_least(self.vn, float(t))
        for k in moment_ks:
            out[f"msum:{k}"], out[f"msq:{k}"] = binomial_sums(self.vn, int(k))
        if want_hist:
            out["hist"] = histogram(self.c1)
        return out


def vn_sample(
    lattice: LatticeSpec,
    p: float,
    n: int,
    samples: int,
    master_seed: int,
    workers: int = 1,
    start: int = 0,
) -> VnSample:
    """Replicas [start, start + samples) of the V_n family at scale n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    task = (lattice, p, n, family_seed(master_seed, TAG_VN, n))
    vn, c1 = run_counters(shifted(partial(_vn_counts, task), start), samples, workers)
    return VnSample(lattice, n, vn, c1)


def vn_statistics(
    lattice: LatticeSpec,
    p: float,
    n: int,
    samples: int,
    master_seed: int,
    workers: int = 1,
    c1_thresholds: Sequence[float] = (),
    vn_thresholds: Sequence[float] = (),
    moment_ks: Sequence[int] = (),
    want_hist: bool = False,
) -> dict:
    """Shared-replica statistics of (largest cluster, long-arm count) at scale n."""
    sample = vn_sample(lattice, p, n, samples, master_seed, workers)
    return sample.statistics(c1_thresholds, vn_thresholds, moment_ks, want_hist)


def estimate_crossing(
    lattice: LatticeSpec,
    p: float,
    widths: tuple[int, int],
    axis: int,
    samples: int,
    master_seed: int,
    workers: int = 1,
    seed_tag: int = TAG_CROSS,
) -> Estimate:
    """Crossing probability of the rectangle [0,w0]x[0,w1] along ``axis``."""
    if lattice.d != 2:
        raise ValueError("crossing estimation is two-dimensional")
    fam = family_seed(master_seed, seed_tag, widths[0], widths[1], axis)
    task = (lattice, p, tuple(widths), axis, fam)
    hits = run_counters(partial(_crossing_counts, task), samples, workers)
    return event_estimate(int(hits.sum()), samples)


# ---------------------------------------------------------------------------
# Public estimator operations


def estimate_pi(
    lattice: LatticeSpec,
    p: float,
    m: int,
    n: int,
    samples: int,
    master_seed: int,
    workers: int = 1,
) -> Estimate:
    """Arm probability pi(m, n): boundary of box(m) joined to boundary of box(n)."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m} n={n}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if m == n:
        return Estimate(samples, 1.0, 0.0, samples)
    fam = family_seed(master_seed, TAG_PI, n)
    task = (lattice, p, n, ((m, n),), fam)
    hits = run_counters(partial(_arm_counts, task), samples, workers)
    return event_estimate(int(hits.sum()), samples)


def build_pi_table(
    lattice: LatticeSpec,
    p: float,
    scales: Sequence[tuple[int, int]],
    samples: int,
    master_seed: int,
    workers: int = 1,
) -> PiTable:
    """One arm-probability row per (m, n) pair, all read off one replica family."""
    table = PiTable(lattice, p)
    seen = set()
    for m, n in scales:
        if not 1 <= m <= n:
            raise ValueError(f"invalid scale pair ({m}, {n})")
        if (m, n) in seen:
            raise ValueError(f"duplicate scale pair ({m}, {n})")
        seen.add((m, n))
    for m, n in scales:
        if m == n:
            table.add(PiRow(m, n, samples, samples, 1.0, 0.0))
    pairs = tuple(sorted(((m, n) for m, n in seen if m < n), key=lambda k: (k[1], k[0])))
    if not pairs:
        return table
    N = pairs[-1][1]
    task = (lattice, p, N, pairs, family_seed(master_seed, TAG_PI, N))
    successes = run_counters(partial(_arm_counts, task), samples, workers).sum(axis=0)
    for (m, n), hits in zip(pairs, successes.tolist()):
        est = event_estimate(hits, samples)
        table.add(PiRow(m, n, samples, hits, est.point, est.stderr))
    return table


@dataclass(frozen=True)
class SizeDistribution:
    """Empirical distribution of an integer statistic."""

    counts: dict[int, int]
    samples: int
    mean: float
    stderr: float

    @classmethod
    def of(cls, values: np.ndarray) -> SizeDistribution:
        """The distribution of per-replica values."""
        est = mean_estimate(*binomial_sums(values, 1), len(values))
        return cls(histogram(values), len(values), est.point, est.stderr)

    def quantile(self, q: float) -> int:
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        need = q * self.samples
        acc = 0
        for v in sorted(self.counts):
            acc += self.counts[v]
            if acc >= need:
                return v
        return max(self.counts)


def largest_cluster_distribution(
    lattice: LatticeSpec,
    p: float,
    n: int,
    samples: int,
    master_seed: int,
    workers: int = 1,
) -> SizeDistribution:
    """Histogram, mean and quantiles of the largest-cluster size in box(n)."""
    return SizeDistribution.of(vn_sample(lattice, p, n, samples, master_seed, workers).c1)


def _tail_threshold(lattice: LatticeSpec, n: int, u: float, pi: PiTable) -> float:
    if u < 1:
        raise ValueError("u must be >= 1")
    scale = max(1, int(n / u))
    return float(n**lattice.d) * pi.pi(scale)


def tail_probability(
    lattice: LatticeSpec,
    p: float,
    n: int,
    u: float,
    samples: int,
    pi: PiTable,
    master_seed: int,
    workers: int = 1,
) -> Estimate:
    """P(largest cluster in box(n) has at least n^d * pi(n/u) sites)."""
    t = _tail_threshold(lattice, n, u, pi)
    c1 = vn_sample(lattice, p, n, samples, master_seed, workers).c1
    return event_estimate(count_at_least(c1, t), samples)


def vn_tail(
    lattice: LatticeSpec,
    p: float,
    n: int,
    u: float,
    samples: int,
    pi: PiTable,
    master_seed: int,
    workers: int = 1,
) -> Estimate:
    """P(long-arm count at scale n is at least n^d * pi(n/u))."""
    t = _tail_threshold(lattice, n, u, pi)
    vn = vn_sample(lattice, p, n, samples, master_seed, workers).vn
    return event_estimate(count_at_least(vn, t), samples)


def moment_estimate(
    lattice: LatticeSpec,
    p: float,
    n: int,
    k: int,
    samples: int,
    master_seed: int,
    workers: int = 1,
) -> Estimate:
    """Sample mean of binom(|long-arm set|, k); exact integer accumulation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    vn = vn_sample(lattice, p, n, samples, master_seed, workers).vn
    return mean_estimate(*binomial_sums(vn, k), samples)


# ---------------------------------------------------------------------------
# Table diagnostics


@dataclass(frozen=True)
class QuasiMultRow:
    k: int
    l: int
    m: int
    ratio: float | None
    note: str = ""


@dataclass(frozen=True)
class QuasiMultReport:
    rows: tuple[QuasiMultRow, ...]
    max_ratio: float

    def worst(self) -> QuasiMultRow:
        valid = [r for r in self.rows if r.ratio is not None]
        return max(valid, key=lambda r: r.ratio)


def check_quasi_mult(pi: PiTable, triples: Sequence[tuple[int, int, int]]) -> QuasiMultReport:
    """Ratios pi(k,l) pi(l,m) / pi(k,m).

    The rows of one table share replicas, so the three rows of a triple are
    strongly dependent and no error is propagated as if they were independent.
    """
    rows = []
    worst = 0.0
    for k, l, m in triples:
        if not k <= l <= m:
            raise ValueError(f"need k <= l <= m, got {(k, l, m)}")
        a, b, c = pi.pi(k, l), pi.pi(l, m), pi.pi(k, m)
        if c == 0:
            rows.append(QuasiMultRow(k, l, m, None, "zero denominator"))
            continue
        ratio = a * b / c
        rows.append(QuasiMultRow(k, l, m, ratio))
        worst = max(worst, ratio)
    return QuasiMultReport(tuple(rows), worst)


def fit_arm_exponent(pi: PiTable, scales: Sequence[int]) -> tuple[float, float]:
    """Least-squares slope of log pi(n) against log n, negated."""
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    xs, ys = [], []
    for n in scales:
        val = pi.pi(n)
        if val <= 0:
            raise ValueError(f"nonpositive arm estimate at n={n}")
        xs.append(math.log(n))
        ys.append(math.log(val))
    x = np.array(xs)
    y = np.array(ys)
    xc = x - x.mean()
    slope = float((xc * (y - y.mean())).sum() / (xc**2).sum())
    resid = y - (y.mean() + slope * xc)
    dof = len(scales) - 2
    se = math.sqrt(float((resid**2).sum()) / dof / float((xc**2).sum())) if dof else 0.0
    return -slope, se
