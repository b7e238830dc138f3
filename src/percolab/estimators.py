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

One kernel: carriers and observables
------------------------------------
Every estimate, and the gluing campaign's D(n, u), runs one kernel,
``_observe``, on the task ``(lattice, p, carrier, observables, fam)``: it samples
replicas of ``fam`` on the carrier and returns a per-replica array per observable.
The carrier ``Region`` is the raster: every ring, box and rectangle below is
placed in its bounding box, which must hold it, and each observable's reader is
built once per (lattice, carrier, observable) and process:

* ``("arm", pairs)``: (B, rows) bool; row (m, n) is "some cluster touches
  the boundaries of box(m) and box(n)";
* ``("vn", n)``: int64 V_n, the sites of box(n) joined to the boundary of box(2n);
* ``("c1", n)``: int64 C_1, the largest cluster of box(n), paths inside box(n);
* ``("crossing", corner, widths, axis)``: bool, the rectangle is crossed inside;
* ``("dn", n, u)``: (B, 3) bool, D(n, u) holds and, where it does, each of the
  gluing check's two violations (read by ``lowerbound``, see its module doc).

``read_config`` runs the same readers on one configuration, sampled or hand-built.
It is the only single-configuration entry point, kept so that tests can check
every reduction on configurations of their choosing; nothing in the lab calls it.
C_1, crossings and D(n, u) label their crops; arm rows and V_n read one labeling of
the whole carrier and need no confinement.  Every labelling call lays its grids
side by side in one strip (see ``grid``), so label values are unique per
replica, which is all that each reduction needs.  A path from inside box(r) meets
the boundary of box(r) before it can leave box(r), so its first stretch lies
in box(r) plus boundary, and every carrier containing that set gives the same
values.  An arm table thus labels box(N) plus boundary once for all its rows;
V_n/C_1 at n sample box(2n) plus boundary, a crossing its rectangle, and the
two events of an FKG check the box of the larger one plus boundary.

The V_n family at n is one family with two observables, and ``vn_sample``
labels only those its caller reads: V_n alone skips the crops, C_1 alone
skips the whole-carrier labeling.  Both read replica i off the same
configuration, so separate calls agree with one call for both.

Replicas are sampled in batches within one byte budget, ``BATCH_BYTES`` (8 MB),
over what a batch keeps.  Per replica that is its sampled cells at 1 byte each
(decorated cells on bond lattices, about four per site) plus 5 bytes for each
cell of its readers' largest labelling call, 1 of strip and 4 of int32 label:
the whole carrier for arm rows and V_n, the box(n) crop for C_1, the rectangle
for a crossing and one rectangle for D(n, u).  Each reader states that count
beside its reduction.  A batch holds at most 256 replicas: on z_bond at
n = 32, V_n with C_1 holds 19 (6 bytes for each of 68,121 cells) and C_1 alone
52; on the triangular lattice the arm table at N = 128 holds 19, C_1 alone at
n = 64 53, and crossings and D(32, 2) 256.  No reduction reads across
replicas, so batching never enters a result.

Kept buffers
------------
A kernel reaches a worker pickled with each chunk, so arrays that outlive a
call belong to the process: each thread keeps those of its replica-batch loop in
one ``grid.Buffers``: raw words, open cells, the strip and labels (a
bond batch's element layout borrows the label buffer, dead until the batch is
labeled).
Each batch is sampled into them and read, and the next batch overwrites it.
Every per-replica value is reduced into a new array, so no result aliases the
buffers; calls that are not given them (``read_config``, the public sample and
label functions) allocate fresh arrays.  The buffers grow to the largest batch
within ``BATCH_BYTES``.  A replica beyond it runs alone on fresh arrays, freed
as it finishes, so a large call leaves nothing behind.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterator, Sequence

import numpy as np

from . import grid
from .bounds import scale_floor
from .lattice import (
    LatticeKind, LatticeSpec, Region, box_sites, box_with_boundary, boundary, rect_region,
)
from .parallel import run_counters
from .sampler import Config, derive_stream, derive_streams, open_cells_batch

TAG_PI = 0x501
TAG_VN = 0x502
TAG_CROSS = 0x503
TAG_FKG = 0x504
TAG_DN = 0x505
TAG_RSW = 0x506

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


def wilson_halfwidth(successes: int, samples: int) -> float:
    """Half-width of the Wilson score interval at z = 1, a 1-sigma analogue."""
    p = successes / samples
    denom = 1 + 1 / samples
    return (1 / denom) * math.sqrt(p * (1 - p) / samples + 1 / (4 * samples * samples))


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with uncertainty."""

    samples: int
    point: float
    stderr: float
    successes: int | None = None

    def __post_init__(self) -> None:
        if self.successes is not None and not 0 <= self.successes <= self.samples:
            raise ValueError("successes must lie in [0, samples]")
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")


def event_estimate(successes: int, samples: int) -> Estimate:
    """Success fraction with its Wilson score half-width."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return Estimate(samples, successes / samples, wilson_halfwidth(successes, samples), successes)


def mean_estimate(total: int | float, total_sq: int | float, samples: int) -> Estimate:
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return Estimate(samples, mean, math.sqrt(var / samples))


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

    def _lookup(self, m: int, n: int | None) -> tuple[float, float]:
        """(estimate, stderr) of row (m, n), or of row (1, m) when n is None."""
        if n is None:
            m, n = 1, m
        if m == n:
            return 1.0, 0.0
        if (m, n) not in self.rows:
            raise ValueError(f"missing pi row {(m, n)}")
        row = self.rows[(m, n)]
        return row.estimate, row.stderr

    def pi(self, m: int, n: int | None = None) -> float:
        return self._lookup(m, n)[0]

    def stderr(self, m: int, n: int | None = None) -> float:
        return self._lookup(m, n)[1]

    def sorted_rows(self) -> list[PiRow]:
        return [self.rows[k] for k in sorted(self.rows)]


# ---------------------------------------------------------------------------
# The Monte Carlo kernel (top level: picklable for worker processes)

#: Bytes one replica batch keeps: per replica, its sampled cells (1 byte each)
#: and the int32 labels of the most cells one of its readers labels in one call.
BATCH_BYTES = 8_000_000

_local = threading.local()  # this thread's kept replica-batch buffers


def _kept_buffers() -> grid.Buffers:
    """The buffers the replica-batch loop of this thread keeps across calls."""
    if not hasattr(_local, "buffers"):
        _local.buffers = grid.Buffers(kept=True)
    return _local.buffers


def _replica_batches(
    lattice: LatticeSpec, carrier_mask: np.ndarray, p: float, fam: int, start: int, stop: int,
    size: int, buffers: grid.Buffers = grid.FRESH,
) -> Iterator[np.ndarray]:
    """The open cells of each batch of ``size`` replicas of [start, stop), in replica order.

    Each batch is sampled into ``buffers``, so kept buffers hold one batch at a time.
    """
    for lo in range(start, stop, size):
        seeds = derive_streams(fam, lo, min(lo + size, stop))
        yield open_cells_batch(lattice, carrier_mask, p, seeds, buffers)


def _cells(lattice: LatticeSpec, shape: tuple[int, ...]) -> int:
    return math.prod(grid.cell_shape(lattice, shape))


def _slice_cells(lattice: LatticeSpec, slices: tuple[slice, ...]) -> int:
    return _cells(lattice, tuple(s.stop - s.start for s in slices))


def _crop_labels(
    lattice: LatticeSpec, batch: np.ndarray, crop, rows=slice(None), *, buffers: grid.Buffers = grid.FRESH
) -> np.ndarray:
    """Labels confined to crops (paths inside a crop only) of ``batch[rows]``, in one strip.

    ``crop`` is a site-space slice tuple, or a ``grid.StripCrops``: then
    ``rows`` is (replicas, crop of each) and the crops are gathered into the strip.
    """
    if isinstance(crop, grid.StripCrops):
        strip = crop.gather(batch, *rows, buffers)
    else:
        strip = grid.strip_cells(batch[(rows,) + grid.cell_slices(lattice, crop)], buffers)
    return grid.label_sites_batch(strip, lattice, buffers)


@lru_cache(maxsize=64)
def _reader(lattice: LatticeSpec, carrier: Region, observable: tuple):
    """(reads the carrier labels, per-batch reduction, cells labelled per replica) of an observable.

    The cell count is that of the largest labelling call per replica, which
    the batch budget pays for: the whole carrier, a C_1 box or one rectangle.
    Rings, boxes and rectangles are placed in the carrier, which must hold
    them.  ``observable`` is a tuple of ints (and tuples of them), so readers
    are cached per process and per carrier: the kernel asks for them on every
    chunk and ``read_config`` on every configuration, and each is built once.
    The masks and index arrays a cached reader holds are read-only.
    """
    kind, *args = observable
    center = (0,) * lattice.d
    cells = _cells(lattice, carrier.shape)
    if kind == "arm":
        (pairs,) = args
        radii = sorted({r for pair in pairs for r in pair})
        rings = [np.nonzero(boundary(box_sites(center, r), lattice).mask_in(carrier)) for r in radii]
        for array in (a for ring in rings for a in ring):
            array.flags.writeable = False
        ring_pairs = [(radii.index(m), radii.index(n)) for m, n in pairs]
        return True, lambda labels: grid.connect_through(labels, rings, ring_pairs), cells
    if kind == "vn":
        outer = np.nonzero(boundary(box_sites(center, 2 * args[0]), lattice).mask_in(carrier))
        inner = np.nonzero(box_sites(center, args[0]).mask_in(carrier))
        for array in (*outer, *inner):
            array.flags.writeable = False
        return True, lambda labels: grid.count_connected_to(labels, outer, inner), cells
    if kind == "c1":
        box = box_sites(center, args[0]).slices_in(carrier)
        return False, lambda batch, buffers: grid.largest_count(
            _crop_labels(lattice, batch, box, buffers=buffers)
        ), _slice_cells(lattice, box)
    if kind == "dn":
        from .lowerbound import _dn_reader  # lowerbound imports this module

        return (False, *_dn_reader(lattice, carrier, *args))
    corner, widths, axis = args  # "crossing"
    rect = rect_region(corner, widths).slices_in(carrier)
    return False, lambda batch, buffers: grid.crossing(
        _crop_labels(lattice, batch, rect, buffers=buffers), axis
    ), _slice_cells(lattice, rect)


def _read_batch(
    lattice: LatticeSpec, readers: list, batch: np.ndarray, buffers: grid.Buffers
) -> list[np.ndarray]:
    """Each reader's per-replica values on one batch of open cells.

    The carrier labels and every crop's labels share the ``labels`` buffer:
    the whole-carrier readers are done before the first crop is labeled.
    """
    values = [None] * len(readers)
    if any(whole for whole, *_ in readers):
        labels = grid.label_sites_batch(grid.strip_cells(batch, buffers), lattice, buffers)
        values = [read(labels) if whole else None for whole, read, _ in readers]
        del labels  # fresh carrier labels are freed before any crop is labeled
    return [value if whole else read(batch, buffers) for value, (whole, read, _) in zip(values, readers)]


def _replica_bytes(lattice: LatticeSpec, carrier, readers: list) -> int:
    """Bytes a replica keeps in a batch: its cells, and the strip and labels of its largest call."""
    return _cells(lattice, carrier.shape) + 5 * max(cells for *_, cells in readers)


def _observe(task, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """One per-replica array per observable, all read off the same replicas of the carrier.

    A replica keeps its carrier's cells and the strip and labels of its
    readers' largest labelling call; batches hold as many replicas as fit in
    ``BATCH_BYTES`` (at most 256) and run on this thread's kept buffers.  A
    replica beyond the budget runs alone on fresh arrays, which are freed after it.
    """
    lattice, p, carrier, observables, fam = task
    readers = [_reader(lattice, carrier, obs) for obs in observables]
    kept = _replica_bytes(lattice, carrier, readers)
    size = max(1, min(256, BATCH_BYTES // kept))
    buffers = _kept_buffers() if kept <= BATCH_BYTES else grid.FRESH
    parts = [[] for _ in readers]
    for batch in _replica_batches(lattice, carrier.mask, p, fam, start, stop, size, buffers):
        for part, values in zip(parts, _read_batch(lattice, readers, batch, buffers)):
            part.append(values)
        del batch  # on fresh arrays, a batch is freed before the next is sampled
    return tuple(np.concatenate(part) for part in parts)


def read_config(config: Config, observable: tuple):
    """``observable`` on one configuration, read over its carrier as the kernel reads a replica.

    The carrier's bounding box must hold the observable's geometry (each ring
    with box(r + 1), each rectangle and box, the blocks of D(n, u)), else
    placing it raises ``ValueError``.
    """
    reader = _reader(config.lattice, config.region, observable)
    return _read_batch(config.lattice, [reader], config.cells[None], grid.FRESH)[0][0]


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
    """Per-replica arrays of the V_n family at n: long-arm counts ``vn``, largest clusters ``c1``.

    An observable the caller did not ask for is None: it was never labelled.
    """

    lattice: LatticeSpec
    n: int
    vn: np.ndarray | None = None
    c1: np.ndarray | None = None

    @property
    def samples(self) -> int:
        return len(self.vn if self.vn is not None else self.c1)

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
    reads: Sequence[str] = ("vn", "c1"),
) -> VnSample:
    """Replicas [start, start + samples) of the V_n family at scale n, on box(2n) plus boundary.

    Only the observables in ``reads`` ("vn", "c1") are labelled and returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not reads or not set(reads) <= {"vn", "c1"}:
        raise ValueError(f"reads must name 'vn' and/or 'c1', got {reads!r}")
    carrier = box_with_boundary(lattice, 2 * n)
    task = (lattice, p, carrier, tuple((kind, n) for kind in reads), family_seed(master_seed, TAG_VN, n))
    arrays = run_counters(partial(_observe, task), start, start + samples, workers)
    return VnSample(lattice, n, **dict(zip(reads, arrays)))


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
    if axis not in (0, 1):
        raise ValueError(f"crossing axis must be 0 or 1, got {axis!r}")
    corner = (0, 0)
    rect = rect_region(corner, widths)  # checks the extents before they key a seed
    fam = family_seed(master_seed, seed_tag, widths[0], widths[1], axis)
    task = (lattice, p, rect, (("crossing", corner, tuple(widths), axis),), fam)
    (hits,) = run_counters(partial(_observe, task), 0, samples, workers)
    return event_estimate(int(hits.sum()), samples)


def self_dual_widths(lattice: LatticeSpec, n: int) -> tuple[int, int]:
    """Extents of the self-dual rectangle at size n, crossed along axis 0 with probability 1/2.

    (n, n - 1) on ``z_bond`` and (n - 1, n - 1) on the triangular lattice.
    """
    if lattice.kind == LatticeKind.Z_BOND:
        return (n, n - 1)
    return (n - 1, n - 1)


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
    """Arm probability pi(m, n): boundary of box(m) joined to boundary of box(n).

    The row (m, n) of a one-row ``build_pi_table``, so the two never disagree.
    """
    row = build_pi_table(lattice, p, [(m, n)], samples, master_seed, workers).rows[(m, n)]
    return Estimate(row.samples, row.estimate, row.stderr, row.successes)


def build_pi_table(
    lattice: LatticeSpec,
    p: float,
    scales: Sequence[tuple[int, int]],
    samples: int,
    master_seed: int,
    workers: int = 1,
) -> PiTable:
    """One arm-probability row per (m, n) pair, all read off one replica family."""
    if samples < 1:
        raise ValueError(f"need at least one replica, got {samples}")
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
    fam = family_seed(master_seed, TAG_PI, N)
    task = (lattice, p, box_with_boundary(lattice, N), (("arm", pairs),), fam)
    (hits,) = run_counters(partial(_observe, task), 0, samples, workers)
    for (m, n), successes in zip(pairs, hits.sum(axis=0).tolist()):
        est = event_estimate(successes, samples)
        table.add(PiRow(m, n, samples, successes, est.point, est.stderr))
    return table


def tail_scales(sizes: Sequence[int], u_grid: Sequence[float]) -> list[tuple[int, int]]:
    """The pi rows (1, floor(n/u) or 1) that ``upper_tail`` reads at every n and u."""
    return sorted({(1, scale_floor(n, u)) for n in sizes for u in u_grid})


def upper_tail(
    values: np.ndarray, n: int, u_grid: Sequence[float], pi: PiTable
) -> list[tuple[float, Estimate]]:
    """Per u: the threshold n^d pi(floor(n/u) or 1) and the estimate of P(value >= threshold).

    ``values`` holds one statistic per replica at size n (C_1 or V_n), and d
    is the dimension of ``pi``'s lattice.
    """
    thresholds = [n**pi.lattice.d * pi.pi(scale_floor(n, u)) for u in u_grid]
    return [(t, event_estimate(count_at_least(values, t), len(values))) for t in thresholds]


# ---------------------------------------------------------------------------
# Table diagnostics


@dataclass(frozen=True)
class QuasiMultReport:
    max_ratio: float
    worst: tuple[int, int, int] | None  # the first triple of ratio max_ratio; None if every pi(k, m) is 0


def check_quasi_mult(pi: PiTable, triples: Sequence[tuple[int, int, int]]) -> QuasiMultReport:
    """The largest ratio pi(k,l) pi(l,m) / pi(k,m) over ``triples`` with pi(k,m) > 0.

    The rows of one table share replicas, so the three rows of a triple are
    strongly dependent and no error is propagated as if they were independent.
    """
    max_ratio, worst = 0.0, None
    for k, l, m in triples:
        if not k <= l <= m:
            raise ValueError(f"need k <= l <= m, got {(k, l, m)}")
        a, b, c = pi.pi(k, l), pi.pi(l, m), pi.pi(k, m)
        if c == 0:
            continue
        ratio = a * b / c
        if worst is None or ratio > max_ratio:
            max_ratio, worst = ratio, (k, l, m)
    return QuasiMultReport(max_ratio, worst)


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
