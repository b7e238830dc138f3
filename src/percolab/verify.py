"""Acceptance suite: a table of checkable criteria, deterministic outputs.

``_CRITERIA`` names each criterion once, with its index, its function and the
lattice it samples at p_c, or None (criterion 13 samples both).  A criterion
returns ``(passed, detail, data)`` and only ``run_criterion`` builds the
``CriterionResult``.  The context keys its pi tables and V_n families by
(lattice, p).  ``data`` is JSON-stable (a pure function of the master seed), so
a verify run writes byte-identical result files for any worker count.  What the
CLI computes as well comes from the same library functions: the self-dual
rectangles (``estimators.self_dual_widths``), the upper-tail thresholds and
their pi rows (``estimators.upper_tail`` and ``tail_scales``), and the result
files (``reports.write_results``).  Criterion 9's conditioned gluing check is
implemented literally; see the package README for the measured behaviour of
that construction.

Both profiles share the settings that do not scale with sample size: the
growth oracles draw k from 1..16 points per instance, criteria 8 and 9 use
u = 2 for the construction and the tail u-grid {1, 1.5, 2, 3}, criterion 12
fits the moments k = 1..5, and criterion 15 compares runs at 1 and 8 workers.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import bounds, estimators, grid, growth, lowerbound, reports
from .bounds import int_root_ceil, scale_floor
from .estimators import PiTable, build_pi_table, check_quasi_mult, fit_arm_exponent
from .lattice import TRIANGULAR, Z2_BOND, LatticeSpec, rect_region
from .lowerbound import EventSpec
from .sampler import Config, derive_stream, rng_for, sample_config

TAG_ORACLE = 0x601
TAG_BFS = 0x602

ORACLE_KMAX = 16
GLUE_U = 2
TAIL_US = (1.0, 1.5, 2.0, 3.0)
MOMENT_KS = (1, 2, 3, 4, 5)
DETERMINISM_WORKERS = (1, 8)
SELF_DUAL_CROSSING = 0.5  # a self-dual rectangle's crossing probability at p_c


@dataclass(frozen=True)
class VerifyProfile:
    """Sample sizes per criterion; ``FULL`` holds the pinned gate values."""

    crossing_samples: int = 20_000
    crossing_n: int = 32
    pi_samples: int = 10_000
    arm_scales: tuple[int, ...] = (8, 16, 32, 64, 128)
    dyadic_scales: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    oracle_instances: int = 1000
    oracle_box: int = 100
    tail_n: int = 64
    tail_samples: int = 10_000
    glue_n: int = 32
    glue_target: int = 10_000
    glue_stop_violations: int | None = 25
    glue_max_attempts: int = 40_000_000
    constant_samples: int = 4000
    vn_check_ns: tuple[int, ...] = (8, 16, 32)
    fkg_samples: int = 4000
    moment_ns: tuple[int, ...] = (16, 32, 64)
    moment_samples: int = 3000
    bfs_configs: int = 1000
    sweep_kmax: int = 10_000
    determinism_criteria: tuple[int, ...] = (1, 2, 5, 6, 7, 14)


FULL = VerifyProfile()
QUICK = VerifyProfile(
    crossing_samples=1500,
    crossing_n=12,
    pi_samples=600,
    arm_scales=(4, 8, 16),
    dyadic_scales=(2, 4, 8),
    oracle_instances=60,
    oracle_box=30,
    tail_n=12,
    tail_samples=600,
    glue_n=8,
    glue_target=40,
    glue_stop_violations=10,
    glue_max_attempts=400_000,
    constant_samples=500,
    vn_check_ns=(4, 8),
    fkg_samples=500,
    moment_ns=(8, 12),
    moment_samples=400,
    bfs_configs=60,
    sweep_kmax=400,
    determinism_criteria=(1, 5, 14),
)


#: What a criterion returns: (passed, one-line detail, JSON-stable data).
Outcome = tuple[bool, str, dict]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    data: dict

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{self.index:2d}] {mark} {self.name}: {self.detail}"


@dataclass
class VerifyContext:
    master_seed: int
    workers: int = 1
    profile: VerifyProfile = FULL
    _pi: dict[tuple[LatticeSpec, float], PiTable] = field(default_factory=dict, repr=False)
    _vn: dict[tuple[LatticeSpec, float, int, str], np.ndarray] = field(default_factory=dict, repr=False)
    _growth: list[growth.GrowthRecord] = field(default_factory=list, repr=False)

    def pi_table(self, lattice: LatticeSpec, p: float) -> PiTable:
        """Shared arm-probability table at (lattice, p) covering every scale the suite needs."""
        if (lattice, p) in self._pi:
            return self._pi[(lattice, p)]
        prof = self.profile
        scales: set[tuple[int, int]] = {(1, s) for s in prof.arm_scales}
        for n in prof.vn_check_ns:
            scales.add((1, n))
            scales.add((1, 3 * n))
        scales.update(estimators.tail_scales([prof.tail_n], TAIL_US))
        for n in prof.moment_ns:
            for k in MOMENT_KS:
                scales.add((1, scale_floor(n, int_root_ceil(k, 2))))
        npr = prof.glue_n // GLUE_U  # the construction reads pi at n' and 3n'
        scales.update({(1, npr), (1, 3 * npr)})
        ds = prof.dyadic_scales
        for i, m in enumerate(ds):
            for n in ds[i + 1:]:
                scales.add((m, n))
        table = self._pi[(lattice, p)] = build_pi_table(
            lattice, p, sorted(scales), prof.pi_samples, self.master_seed, self.workers
        )
        return table

    def vn_sample(
        self, lattice: LatticeSpec, p: float, n: int, samples: int, kind: str
    ) -> estimators.VnSample:
        """Replicas [0, samples) of the V_n family at (lattice, p) and scale n, for ``kind``.

        Each (lattice, p, n, observable) is labelled once per run: a shorter
        request reads a prefix of the cached array, and a longer one labels
        only the missing replicas.  Replica i is the same configuration in
        every call, so no result depends on criterion order or on which
        observable was read first.
        """
        key = (lattice, p, n, kind)
        have = self._vn.get(key, np.zeros(0, dtype=np.int64))
        if len(have) < samples:
            more = estimators.vn_sample(
                lattice, p, n, samples - len(have), self.master_seed, self.workers, len(have), (kind,)
            )
            have = self._vn[key] = np.concatenate((have, getattr(more, kind)))
        return estimators.VnSample(lattice, n, **{kind: have[:samples]})

    def growth_records(self) -> list[growth.GrowthRecord]:
        """The growth process on the shared random point sets of criteria 5-7, grown once per context."""
        if self._growth:
            return self._growth
        prof = self.profile
        rng = rng_for(estimators.family_seed(self.master_seed, TAG_ORACLE))
        for _ in range(prof.oracle_instances):
            k = int(rng.integers(1, ORACLE_KMAX + 1))
            pts: set[tuple] = set()
            while len(pts) < k:
                pts.add(tuple(int(c) for c in rng.integers(-prof.oracle_box, prof.oracle_box + 1, 2)))
            self._growth.append(growth.grow_tree(pts))
        return self._growth


# ---------------------------------------------------------------------------
# Criteria


def _self_dual_crossing(ctx: VerifyContext, lattice: LatticeSpec, p: float) -> Outcome:
    """Criteria 1 and 2: the self-dual rectangle at ``crossing_n`` has crossing probability 1/2."""
    n = ctx.profile.crossing_n
    est = estimators.estimate_crossing(
        lattice, p, estimators.self_dual_widths(lattice, n), 0,
        ctx.profile.crossing_samples, ctx.master_seed, ctx.workers,
    )
    dev = abs(est.point - SELF_DUAL_CROSSING)
    ok = dev <= 3 * est.stderr
    return (
        ok,
        f"p_hat={est.point:.4f} stderr={est.stderr:.4f} |dev|={dev:.4f}",
        {"estimate": est.point, "stderr": est.stderr, "successes": est.successes, "n": n},
    )


def _c3_arm_exponent(ctx: VerifyContext, lattice: LatticeSpec, p: float) -> Outcome:
    alpha, se = fit_arm_exponent(ctx.pi_table(lattice, p), list(ctx.profile.arm_scales))
    lo, hi = 0.05, 0.20
    ok = lo <= alpha <= hi
    return (
        ok,
        f"alpha_hat={alpha:.4f} stderr={se:.4f} window=[{lo},{hi}]",
        {"alpha_hat": alpha, "stderr": se, "scales": list(ctx.profile.arm_scales)},
    )


def _c4_quasi_mult(ctx: VerifyContext, lattice: LatticeSpec, p: float) -> Outcome:
    """Largest ratio pi(k,l) pi(l,m) / pi(k,m) over dyadic triples, against a bound of 5.

    This criterion cannot fail at lab sizes, so it is no test of criticality:
    the full-profile max ratio is 1.11 at p = 1/2 and stays within 1.01-2.17
    for p from 0.47 to 0.53.  The reason is that an annulus of aspect 2 or 4
    is almost always crossed at these scales: with 20,000 replicas,
    pi(m, 2m) reads 0.9986-1.0000 for m = 1, ..., 64 and pi(m, 4m) reads
    0.991-0.996 for m = 1, ..., 32, so every ratio over dyadic triples sits
    near 1, far below the bound of 5.
    """
    ds = ctx.profile.dyadic_scales
    triples = [
        (k, l, m)
        for i, k in enumerate(ds)
        for j, l in enumerate(ds[i:], start=i)
        for m in ds[j:]
    ]
    report = check_quasi_mult(ctx.pi_table(lattice, p), triples)
    ok = math.isfinite(report.max_ratio) and report.max_ratio <= 5.0
    k, l, m = report.worst
    return (
        ok,
        f"max_ratio={report.max_ratio:.3f} at (k,l,m)=({k},{l},{m}) [<= 5]",
        {
            "max_ratio": report.max_ratio,
            "n_triples": len(triples),
            "worst": [k, l, m],
        },
    )


def _mst_radii_oracle(points: tuple[tuple, ...]) -> list[int]:
    """Chebyshev MST edge lengths by Prim's algorithm on the distance matrix.

    Independent of ``growth``, which merges clusters by increasing radius.
    """
    arr = np.array(points, dtype=np.int64)
    dist = np.abs(arr[:, None, :] - arr[None, :, :]).max(axis=2)
    best = dist[0].copy()
    in_tree = np.zeros(len(points), dtype=bool)
    in_tree[0] = True
    lengths = []
    for _ in range(len(points) - 1):
        j = int(np.argmin(np.where(in_tree, np.iinfo(np.int64).max, best)))
        lengths.append(int(best[j]))
        in_tree[j] = True
        best = np.minimum(best, dist[j])
    return sorted(lengths)


def _c5_growth_oracle(ctx: VerifyContext, *_) -> Outcome:
    mismatches = 0
    for rec in ctx.growth_records():
        mismatches += list(rec.r2_sequence()) != _mst_radii_oracle(rec.points)
    ok = mismatches == 0
    return (
        ok,
        f"mismatches={mismatches}/{ctx.profile.oracle_instances}",
        {"mismatches": mismatches, "instances": ctx.profile.oracle_instances},
    )


def _c6_radius_bound(ctx: VerifyContext, *_) -> Outcome:
    n = ctx.profile.oracle_box
    violations = 0
    equalities = 0
    for rec in ctx.growth_records():
        rep = growth.check_radius_bound(rec, n)
        violations += len(rep.violations)
        equalities += len(rep.equalities)
    ok = violations == 0
    return (
        ok,
        f"violations={violations} equalities={equalities}",
        {"violations": violations, "equalities": equalities},
    )


def _c7_shell_disjoint(ctx: VerifyContext, *_) -> Outcome:
    n = ctx.profile.oracle_box
    overlaps = 0
    side = 2 * (2 * n + 1) + 1
    origin0 = -(2 * n + 1)
    for rec in ctx.growth_records():
        canvas = np.zeros((side, side), dtype=np.int16)
        for blob in growth.blobs(rec, n):
            mask, origin = growth.blob_region_mask(blob, n)
            sl = tuple(
                slice(o - origin0, o - origin0 + s) for o, s in zip(origin, mask.shape)
            )
            canvas[sl] += mask
        overlaps += int((canvas > 1).sum())
    ok = overlaps == 0
    return (
        ok,
        f"overlapping_sites={overlaps}",
        {"overlapping_sites": overlaps, "instances": ctx.profile.oracle_instances},
    )


def _c8_upper_tail_shape(ctx: VerifyContext, lattice: LatticeSpec, p: float) -> Outcome:
    prof = ctx.profile
    pi = ctx.pi_table(lattice, p)
    n = prof.tail_n
    c1 = ctx.vn_sample(lattice, p, n, prof.tail_samples, "c1").c1
    thresholds, ests = map(list, zip(*estimators.upper_tail(c1, n, TAIL_US, pi)))
    points = [e.point for e in ests]
    strictly_down = all(a > b for a, b in zip(points, points[1:]))
    noise_ok = all(
        a.point - b.point > -3 * math.hypot(a.stderr, b.stderr) for a, b in zip(ests, ests[1:])
    )
    xs = np.array([u * u for u in TAIL_US])
    ys = np.array([-math.log(p) if p > 0 else math.inf for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0]) if all(map(math.isfinite, ys)) else math.nan
    ok = strictly_down and noise_ok and slope > 0
    return (
        ok,
        f"P={['%.4f' % p for p in points]} slope={slope:.4g}",
        {
            "u_grid": list(TAIL_US),
            "thresholds": thresholds,
            "estimates": points,
            "stderrs": [e.stderr for e in ests],
            "slope": slope,
        },
    )


def _c9_lower_tail_construction(ctx: VerifyContext, lattice: LatticeSpec, p: float) -> Outcome:
    prof = ctx.profile
    npr = prof.glue_n // GLUE_U
    construction = lowerbound.lower_construction(
        p, GLUE_U, ctx.pi_table(lattice, p),
        ctx.vn_sample(lattice, p, npr, prof.constant_samples, "vn"),
        ctx.vn_sample(lattice, p, prof.glue_n, prof.tail_samples, "c1"),
        ctx.master_seed, ctx.workers, lowerbound.C12_GRID,
        conditioned=prof.glue_target,
        stop_after_violations=prof.glue_stop_violations,
        max_attempts=prof.glue_max_attempts,
    )
    report, direct = construction.campaign, construction.tail
    bound_ok = direct.direct.point >= direct.implied_bound - 3 * direct.direct.stderr
    glue_ok = report.violated == 0 and report.conditioned >= prof.glue_target
    ok = glue_ok and bound_ok
    return (
        ok,
        (
            f"conditioned={report.conditioned} violated={report.violated} "
            f"(one-cluster={report.violated_one_cluster}, sum={report.violated_sum}); "
            f"direct={direct.direct.point:.4f} implied={direct.implied_bound:.3g}"
        ),
        {
            "attempts": report.attempts,
            "conditioned": report.conditioned,
            "violated": report.violated,
            "violated_one_cluster": report.violated_one_cluster,
            "violated_sum": report.violated_sum,
            "acceptance_rate": report.acceptance_rate,
            "direct": direct.direct.point,
            "direct_stderr": direct.direct.stderr,
            "implied_bound": direct.implied_bound,
            "threshold": direct.threshold,
            "rsw_estimate": construction.rsw.estimate.point,
            "C11": construction.rsw.c11,
            "C12": construction.c12,
            "C13": construction.c13,
            "c12_grid": list(lowerbound.C12_GRID),
            "c13_fits": list(construction.constants.c13_fits),
        },
    )


def _c10_mean_vn_floor(ctx: VerifyContext, lattice: LatticeSpec, p: float) -> Outcome:
    prof = ctx.profile
    rows = []
    ok = True
    for n in prof.vn_check_ns:
        vn = ctx.vn_sample(lattice, p, n, prof.constant_samples, "vn")
        rep = lowerbound.vn_lower_constants(vn, ctx.pi_table(lattice, p))
        ok &= rep.mean_ok
        rows.append(
            {
                "n": n,
                "mean_vn": rep.mean_vn,
                "floor": rep.floor_value,
                "mean_ok": rep.mean_ok,
            }
        )
    detail = " ".join(f"n={r['n']}:{r['mean_vn']:.0f}>={r['floor']:.0f}" for r in rows)
    return ok, detail, {"rows": rows}


def _fkg_catalog(n: int) -> list[tuple[EventSpec, EventSpec]]:
    box = EventSpec("h_crossing", corner=(-n, -n), widths=(2 * n, 2 * n))
    boxv = EventSpec("v_crossing", corner=(-n, -n), widths=(2 * n, 2 * n))
    wide = EventSpec("h_crossing", corner=(-n, 0), widths=(2 * n, n))
    tall = EventSpec("v_crossing", corner=(0, -n), widths=(n, 2 * n))
    left = EventSpec("h_crossing", corner=(-n, -n), widths=(n, n))
    right = EventSpec("h_crossing", corner=(0, 0), widths=(n, n))
    arm_small = EventSpec("arm", m=1, n=n)
    arm_mid = EventSpec("arm", m=2, n=n)
    vn_ev = EventSpec("vn_ge", n=n // 2, threshold=float(n * n) / 4)
    c1_ev = EventSpec("c1_ge", n=n, threshold=float(n * n) / 2)
    return [
        (box, box),
        (box, boxv),
        (left, right),
        (wide, tall),
        (box, arm_small),
        (arm_small, arm_mid),
        (vn_ev, arm_small),
        (c1_ev, box),
        (vn_ev, c1_ev),
        (boxv, arm_mid),
    ]


def _c11_fkg(ctx: VerifyContext, lattice: LatticeSpec, p: float) -> Outcome:
    prof = ctx.profile
    catalog = _fkg_catalog(min(16, prof.tail_n))
    results = lowerbound.fkg_check(
        lattice, p, catalog, prof.fkg_samples, ctx.master_seed, ctx.workers
    )
    rows = []
    ok = True
    for (ev_a, ev_b), res in zip(catalog, results):
        ok &= res.z >= -3.0
        rows.append(
            {
                "a": ev_a.kind,
                "b": ev_b.kind,
                "joint": res.joint.point,
                "product": res.product,
                "z": res.z,
            }
        )
    zmin = min(r["z"] for r in rows)
    return ok, f"min_z={zmin:.2f} over {len(rows)} pairs", {"rows": rows}


def _c12_moment_stability(ctx: VerifyContext, lattice: LatticeSpec, p: float) -> Outcome:
    prof = ctx.profile
    pi = ctx.pi_table(lattice, p)
    fits = {}
    for n in prof.moment_ns:
        vn = ctx.vn_sample(lattice, p, n, prof.moment_samples, "vn").vn
        best = 0.0
        for k in MOMENT_KS:
            mom = estimators.binomial_sums(vn, k)[0] / prof.moment_samples
            fit = mom ** (1 / k) * k / (n * n * pi.pi(scale_floor(n, int_root_ceil(k, 2))))
            best = max(best, fit)
        fits[n] = best
    values = list(fits.values())
    spread = max(values) / min(values)
    ok = all(map(math.isfinite, values)) and spread < 2.0
    return (
        ok,
        f"fits={[f'{n}:{v:.3f}' for n, v in fits.items()]} spread={spread:.3f} [< 2]",
        {"fits": {str(k): v for k, v in fits.items()}, "spread": spread},
    )


def _labels_match_graph(config: Config, labels: np.ndarray) -> bool:
    """Whether ``labels`` are exactly the open clusters of ``config`` on its carrier.

    Each open edge between participating sites is listed once, from its smaller
    end, and scipy counts the components of that graph over the raster; closed
    sites are isolated nodes, so they are taken off the count.  Labels that are
    positive exactly on the participating sites and equal across every open
    edge put each component inside one label, and as many distinct labels as
    components make that map one-to-one: the labels are the components.
    """
    shape = config.region.shape
    part = config.site_open & config.region.mask if config.lattice.site_mode else config.region.mask
    edge_open = config.edge_open
    node = np.arange(part.size).reshape(shape)
    ends, equal = [], True
    for off in config.lattice.neighbor_offsets():
        if off < (0,) * len(off):
            continue
        lo = tuple(slice(max(-o, 0), n - max(o, 0)) for o, n in zip(off, shape))
        hi = tuple(slice(max(o, 0), n - max(-o, 0)) for o, n in zip(off, shape))
        edge = part[lo] & part[hi]
        if edge_open is not None:
            edge &= edge_open[off.index(1)][lo]
        ends.append((node[lo][edge], node[hi][edge]))
        equal = equal and np.array_equal(labels[lo][edge], labels[hi][edge])
    a, b = map(np.concatenate, zip(*ends))
    graph = coo_matrix((np.ones(len(a), dtype=bool), (a, b)), shape=(part.size, part.size))
    components = connected_components(graph, directed=False)[0] - np.count_nonzero(~part)
    # positive exactly on the participating sites and zero elsewhere (np.sign of a negative label is -1)
    signs_ok = np.array_equal(np.sign(labels), part)
    return signs_ok and equal and len(np.unique(labels[part])) == components


def _c13_bfs_oracle(ctx: VerifyContext, *_) -> Outcome:
    prof = ctx.profile
    family = estimators.family_seed(ctx.master_seed, TAG_BFS)
    rng = rng_for(family)
    mismatches = 0
    for i in range(prof.bfs_configs):
        lattice = TRIANGULAR if i % 2 == 0 else Z2_BOND
        w = int(rng.integers(7, 64))
        h = int(rng.integers(7, 64))
        region = rect_region((0, 0), (w, h))
        config = sample_config(lattice, region, estimators.default_p(lattice), derive_stream(family, i))
        labels = grid.label_sites_batch(grid.strip_cells(config.cells[None]), lattice)[0]
        mismatches += not _labels_match_graph(config, labels)
    ok = mismatches == 0
    return (
        ok,
        f"mismatches={mismatches}/{prof.bfs_configs}",
        {"mismatches": mismatches, "configs": prof.bfs_configs},
    )


def _independent_series(u: float, d: int, alpha: float, c2: float) -> float:
    """Naive high-to-low summation of the same two-piece series."""
    ud = u**d
    cut = int(ud / c2)
    vals = [1.0]
    for k in range(1, cut + 1):
        vals.append((ud / (c2 * k)) ** k)
    k = cut + 1
    while k <= cut + 4000:
        t = (ud / k) ** ((1 - alpha / d) * k)
        vals.append(t)
        if k > ud and t < 1e-18 * sum(vals):
            break
        k += 1
    return math.fsum(sorted(vals))


def _c14_bound_numerics(ctx: VerifyContext, *_) -> Outcome:
    alpha = float(bounds.ONE_ARM_EXPONENT)
    checks = {}
    ok = True
    for u in (1.0, 1.5, 2.0):
        mine = bounds.generating_fn_bound(u, 16, d=2, alpha=alpha, c2=1.0)
        ref = _independent_series(u, 2, alpha, 1.0)
        rel = abs(mine - ref) / ref
        checks[f"series_rel_err_u{u}"] = rel
        ok &= rel < 1e-9
    # exponential-series identity
    u, c2v = 1.7, 1.3
    total, term, k = 0.0, 1.0, 0
    while term > 1e-20:
        total += term
        k += 1
        term = term * (u * u / c2v) / k
    rel = abs(total - math.exp(u * u / c2v)) / math.exp(u * u / c2v)
    checks["exp_identity_rel_err"] = rel
    ok &= rel < 1e-9
    sup_mult, arg_mult = bounds.multinomial_sweep(ctx.profile.sweep_kmax, 2)
    sup_pow, arg_pow = bounds.power_product_sweep(ctx.profile.sweep_kmax, 2)
    checks["multinomial_sup"] = sup_mult
    checks["multinomial_argmax"] = arg_mult
    checks["power_product_sup"] = sup_pow
    checks["power_product_argmax"] = arg_pow
    ok &= math.isfinite(sup_mult) and math.isfinite(sup_pow)
    return ok, f"series_ok mult_sup={sup_mult:.3f} pow_sup={sup_pow:.3f}", checks


def _c15_determinism(ctx: VerifyContext, *_) -> Outcome:
    indices = ctx.profile.determinism_criteria
    blobs_bytes = []
    for workers in DETERMINISM_WORKERS:
        with tempfile.TemporaryDirectory() as tmp:
            sub = VerifyContext(ctx.master_seed, workers, QUICK)
            results = [run_criterion(i, sub) for i in indices]
            files = write_results(Path(tmp), results, "determinism-check", "both")
            blobs_bytes.append({f.name: f.read_bytes() for f in files})
    ok = blobs_bytes[0] == blobs_bytes[1]
    return (
        ok,
        f"criteria={list(indices)} workers={list(DETERMINISM_WORKERS)} identical={ok}",
        {"criteria": list(indices), "workers": list(DETERMINISM_WORKERS), "identical": ok},
    )


_CRITERIA = {
    1: ("bond-self-dual-crossing", _self_dual_crossing, Z2_BOND),
    2: ("triangular-self-dual-crossing", _self_dual_crossing, TRIANGULAR),
    3: ("arm-exponent-window", _c3_arm_exponent, TRIANGULAR),
    4: ("quasi-multiplicativity", _c4_quasi_mult, TRIANGULAR),
    5: ("single-linkage-mst-oracle", _c5_growth_oracle, None),
    6: ("ordered-radius-bound", _c6_radius_bound, None),
    7: ("shell-disjointness", _c7_shell_disjoint, None),
    8: ("upper-tail-shape", _c8_upper_tail_shape, TRIANGULAR),
    9: ("lower-tail-construction", _c9_lower_tail_construction, TRIANGULAR),
    10: ("mean-long-arm-floor", _c10_mean_vn_floor, TRIANGULAR),
    11: ("fkg-positive-association", _c11_fkg, TRIANGULAR),
    12: ("moment-constant-stability", _c12_moment_stability, TRIANGULAR),
    13: ("cluster-labels-vs-bfs", _c13_bfs_oracle, None),
    14: ("bound-kit-numerics", _c14_bound_numerics, None),
    15: ("worker-count-determinism", _c15_determinism, None),
}


def check_criteria(name: str, indices) -> None:
    """Reject anything but a nonempty list of distinct integers that each name a criterion."""
    if not isinstance(indices, list) or not indices or any(
        type(i) is not int or i not in _CRITERIA for i in indices
    ) or len(set(indices)) < len(indices):
        raise ValueError(
            f"{name} must be a nonempty list of distinct criteria in 1..{len(_CRITERIA)}, got {indices!r}"
        )


def run_criterion(index: int, ctx: VerifyContext) -> CriterionResult:
    if index not in _CRITERIA:
        raise ValueError(f"no criterion {index}")
    name, criterion, lattice = _CRITERIA[index]
    p = None if lattice is None else estimators.default_p(lattice)
    return CriterionResult(index, name, *criterion(ctx, lattice, p))


def write_results(
    out_dir: Path, results: list[CriterionResult], spec_digest: str, fmt: str
) -> list[Path]:
    """The ``verify_<hash>`` files of ``results`` in format ``fmt`` (csv, json or both)."""
    rows = [(r.index, r.name, "pass" if r.passed else "fail", r.detail) for r in results]
    payload = {"results": [asdict(r) for r in results]}
    return reports.write_results(
        out_dir, "verify", spec_digest, ("index", "name", "status", "detail"), rows, payload, fmt
    )


def run_verify(
    master_seed: int, workers: int, profile: VerifyProfile, indices: list[int] | None
) -> tuple[list[CriterionResult], int]:
    """Run ``indices`` (every criterion when None), printing each line; exit code 1 on a failure."""
    if indices is None:
        indices = sorted(_CRITERIA)
    check_criteria("criteria", indices)
    ctx = VerifyContext(master_seed, workers, profile)
    results = []
    for i in indices:
        res = run_criterion(i, ctx)
        print(res.line())
        results.append(res)
    failed = sum(not r.passed for r in results)
    return results, (1 if failed else 0)
