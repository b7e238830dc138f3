"""Command-line experiment runner.

Usage: ``percolab <subcommand> [--spec FILE] [--seed N] [--workers N]
[--out DIR] [--format csv|json|both]``.

The spec file is YAML (plain key-value with nesting; grammar documented in
the README).  Outputs are named ``<subcommand>_<spec-hash>.<ext>`` where the
hash digests the effective spec (after any --seed or --points override), so
identical specs yield identical file names and bytes, independent of worker
count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import yaml

from . import __version__, bounds, estimators, growth, lowerbound, reports
from .bounds import BoundParams
from .estimators import build_pi_table, vn_sample
from .lattice import LatticeKind, LatticeSpec
from .verify import FULL, QUICK, TAIL_US, check_criteria, run_verify, write_results


# The spec schema: a rule is called with a value's dotted name and the value, and
# raises ValueError naming it.
@dataclass(frozen=True)
class Number:
    """A finite number in [lo, hi], or in (lo, hi] when ``above``; an integer when ``integer``."""

    lo: float = -math.inf
    hi: float = math.inf
    above: bool = False
    integer: bool = False
    null: bool = False  # null means the default

    def __call__(self, name: str, value) -> None:
        if value is None and self.null:
            return
        # bool is an int subclass; a spec's true/false is never a number
        kind = int if self.integer else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind) or not -math.inf < value < math.inf:
            what = "an integer" if self.integer else "a finite number"
            raise ValueError(f"{name} must be {what}, got {value!r}")
        if not self.lo <= value <= self.hi or (self.above and value == self.lo):
            upper = f" and <= {self.hi}" if self.hi < math.inf else ""
            raise ValueError(f"{name} must be {'>' if self.above else '>='} {self.lo}{upper}")


@dataclass(frozen=True)
class OneOf:
    """One of ``choices``, of the same type: true is not 1."""

    choices: tuple

    def __call__(self, name: str, value) -> None:
        if not any(value == c and type(value) is type(c) for c in self.choices):
            raise ValueError(f"{name} must be one of {list(self.choices)}, got {value!r}")


@dataclass(frozen=True)
class ListOf:
    """A nonempty list (of ``length`` items, if given), each item checked by ``item``."""

    item: Callable
    length: int | None = None

    def __call__(self, name: str, values) -> None:
        if not isinstance(values, list) or not values or self.length not in (None, len(values)):
            size = "a nonempty list" if self.length is None else f"a list of {self.length}"
            raise ValueError(f"{name} must be {size}, got {values!r}")
        for i, v in enumerate(values):
            self.item(f"{name}[{i}]", v)


@dataclass(frozen=True)
class Mapping:
    """Only the keys of ``rules``, each value checked by its rule; ``required`` keys not null."""

    rules: dict
    required: tuple[str, ...] = ()
    nulls: bool = True  # a null value means the default and is not checked

    def __call__(self, name: str, value) -> None:
        label = name or "spec"  # top-level keys are named bare
        if not isinstance(value, dict) or any(value.get(k) is None for k in self.required):
            need = f" with {', '.join(self.required)}" if self.required else ""
            raise ValueError(f"{label} must be a mapping{need}, got {value!r}")
        unknown = set(value) - self.rules.keys()
        if unknown:
            raise ValueError(f"unknown {label} keys: {sorted(unknown, key=str)}")
        for key, v in value.items():
            if v is not None or not self.nulls:
                self.rules[key](f"{name}.{key}" if name else key, v)


INTEGER = Number(integer=True)
COUNT = Number(1, integer=True)
POSITIVE = Number(0, above=True)  # alpha (its upper end, d, is BoundParams' check), C2, C12
RECT = Mapping({"widths": ListOf(INTEGER, 2), "axis": OneOf((0, 1))}, required=("widths",))
# the domain of every spec value; each section holds only the keys its
# subcommand reads, and any other key is a typo
SPEC = Mapping(
    {
        "master_seed": INTEGER,
        "lattice": OneOf(tuple(k.value for k in LatticeKind)),
        "d": Number(2, integer=True),
        "p": Number(0, 1, null=True),
        "samples": COUNT,
        "workers": COUNT,
        "sizes": ListOf(COUNT),
        "u_grid": ListOf(Number(1)),
        "pi": Mapping({"scales": ListOf(ListOf(COUNT, 2))}),
        "tail": Mapping(
            {"statistic": OneOf(("largest_cluster", "long_arm")), "sizes": ListOf(COUNT),
             "distribution": OneOf((False, True))}
        ),
        "blob": Mapping(
            {"points": ListOf(ListOf(INTEGER)), "n": INTEGER, "alpha": POSITIVE,
             "C3": Number(0), "C4": Number(0)}
        ),
        "bounds": Mapping({"alpha": POSITIVE, "C2": POSITIVE, "sweep_kmax": Number(2, integer=True)}),
        "lower": Mapping(
            {"n": Number(2, integer=True), "u": Number(2, integer=True), "conditioned": COUNT,
             "stop_after_violations": COUNT, "max_attempts": COUNT, "c12_grid": ListOf(POSITIVE)}
        ),
        "crossing": Mapping({"rects": ListOf(RECT)}),
        "verify": Mapping({"profile": OneOf(("full", "quick")), "criteria": check_criteria}),
    },
    nulls=False,
)


def _opt(section: dict, key: str, default=None):
    """A section value; an absent key and a null value both give the default."""
    value = section.get(key)
    return default if value is None else value


@dataclass
class ExperimentSpec:
    """Validated, round-trippable experiment description."""

    master_seed: int = 42
    lattice: str = "triangular_site"
    d: int = 2
    p: float | None = None
    samples: int = 1000
    workers: int = 1
    sizes: list = field(default_factory=lambda: [8, 16, 32])
    u_grid: list = field(default_factory=lambda: list(TAIL_US))
    pi: dict = field(default_factory=dict)
    tail: dict = field(default_factory=dict)
    blob: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    lower: dict = field(default_factory=dict)
    crossing: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        SPEC("", vars(self))

    @classmethod
    def from_file(cls, path: Path) -> "ExperimentSpec":
        raw = yaml.safe_load(Path(path).read_text())
        raw = {} if raw is None else raw
        SPEC("", raw)
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)

    def lattice_spec(self) -> LatticeSpec:
        if self.lattice == LatticeKind.TRIANGULAR_SITE.value and self.d != 2:
            raise ValueError(f"d must be 2 on lattice {self.lattice}, got {self.d}")
        return LatticeSpec(LatticeKind(self.lattice), self.d)

    def effective_p(self) -> float:
        if self.p is not None:
            return self.p
        return estimators.default_p(self.lattice_spec())


def _distinct(name: str, values: list) -> None:
    """Raise naming the first item of the list ``name`` that repeats an earlier one."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{name}[{i}] must be distinct from {name}[{values.index(v)}], got {v!r}")


def _load_spec(args) -> tuple[ExperimentSpec, str]:
    spec = ExperimentSpec.from_file(args.spec) if args.spec else ExperimentSpec()
    overrides = {"master_seed": args.seed, "workers": args.workers}
    if getattr(args, "points", None):
        # blob --points names the experiment as much as blob.points does
        overrides["blob"] = {**spec.blob, "points": json.loads(args.points)}
    spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    # workers is an execution parameter, not experiment identity: results are
    # worker-invariant, so the digest must be too
    payload = {k: v for k, v in spec.to_dict().items() if k != "workers"}
    digest = reports.spec_hash(payload)
    return spec, digest


def _emit(args, spec_digest: str, stem: str, header, rows, payload: dict) -> None:
    written = reports.write_results(args.out, stem, spec_digest, header, rows, payload, args.format)
    for path in written:
        print(f"wrote {path}")


def _cmd_pi(args) -> int:
    spec, digest = _load_spec(args)
    lattice, p = spec.lattice_spec(), spec.effective_p()
    if spec.pi.get("scales") is None:
        _distinct("sizes", spec.sizes)  # one row (1, n) per size
    scales = _opt(spec.pi, "scales", [[1, n] for n in spec.sizes])
    for i, (m, n) in enumerate(scales):
        if m > n:
            raise ValueError(f"pi.scales[{i}] must be a pair [m, n] with m <= n, got {[m, n]}")
    _distinct("pi.scales", scales)
    scales = [tuple(s) for s in scales]
    table = build_pi_table(lattice, p, scales, spec.samples, spec.master_seed, spec.workers)
    rows = reports.pi_table_rows(table)
    payload = {"pi_table": [dict(zip(reports.PI_HEADER, r)) for r in rows]}
    _emit(args, digest, "pi", reports.PI_HEADER, rows, payload)
    return 0


def _cmd_crossing(args) -> int:
    spec, digest = _load_spec(args)
    lattice, p = spec.lattice_spec(), spec.effective_p()
    rects = _opt(spec.crossing, "rects")
    if rects is None:
        _distinct("sizes", spec.sizes)  # one rectangle per size
        rects = [(*estimators.self_dual_widths(lattice, n), 0) for n in spec.sizes]
    else:
        rects = [(*r["widths"], _opt(r, "axis", 0)) for r in rects]
        _distinct("crossing.rects", rects)
    header = ("lattice", "p", "w0", "w1", "axis", "samples", "successes", "estimate", "stderr")
    rows = []
    for w0, w1, axis in rects:
        est = estimators.estimate_crossing(
            lattice, p, (w0, w1), axis, spec.samples, spec.master_seed, spec.workers
        )
        rows.append((lattice.kind.value, p, w0, w1, axis, est.samples, est.successes, est.point, est.stderr))
    payload = {"crossings": [dict(zip(header, r)) for r in rows]}
    _emit(args, digest, "crossing", header, rows, payload)
    return 0


def _cmd_tail(args) -> int:
    spec, digest = _load_spec(args)
    lattice, p = spec.lattice_spec(), spec.effective_p()
    statistic = _opt(spec.tail, "statistic", "largest_cluster")
    sizes = _opt(spec.tail, "sizes", spec.sizes)
    _distinct("sizes" if spec.tail.get("sizes") is None else "tail.sizes", sizes)
    _distinct("u_grid", spec.u_grid)
    scales = estimators.tail_scales(sizes, spec.u_grid)
    table = build_pi_table(lattice, p, scales, spec.samples, spec.master_seed, spec.workers)
    header = ("statistic", "n", "u", "threshold", "samples", "successes", "estimate", "stderr")
    rows = []
    c1 = {}
    kind = "c1" if statistic == "largest_cluster" else "vn"
    distribution = _opt(spec.tail, "distribution")
    reads = ("vn", "c1") if distribution and kind == "vn" else (kind,)
    for n in sizes:
        sample = vn_sample(lattice, p, n, spec.samples, spec.master_seed, spec.workers, reads=reads)
        c1[n] = sample.c1
        tail = estimators.upper_tail(getattr(sample, kind), n, spec.u_grid, table)
        for u, (t, est) in zip(spec.u_grid, tail):
            rows.append((statistic, n, u, t, est.samples, est.successes, est.point, est.stderr))
    payload = {"tail": [dict(zip(header, r)) for r in rows]}
    if distribution:
        payload["distributions"] = {}
        for n in sizes:
            dist = estimators.SizeDistribution.of(c1[n])
            hist = [(v, dist.counts[v]) for v in sorted(dist.counts)]
            hist_payload = {"distribution": [dict(zip(reports.DIST_HEADER, r)) for r in hist]}
            _emit(args, digest, f"dist_n{n}", reports.DIST_HEADER, hist, hist_payload)
            payload["distributions"][str(n)] = {
                "mean": dist.mean,
                "stderr": dist.stderr,
                "median": dist.quantile(0.5),
                "q90": dist.quantile(0.9),
            }
    _emit(args, digest, "tail", header, rows, payload)
    return 0


def _cmd_blob(args) -> int:
    spec, digest = _load_spec(args)
    pts = _opt(spec.blob, "points")
    if not pts:
        raise ValueError("blob needs points (--points JSON or blob.points in the spec)")
    points = [tuple(p) for p in pts]
    n = _opt(spec.blob, "n", max(abs(c) for p in points for c in p))
    record = growth.grow_tree(points)
    blob_list = growth.blobs(record, n)
    radius_bound = growth.check_radius_bound(record, n)
    radii = Counter(record.r2_sequence())
    d = len(points[0])
    c3 = _opt(spec.blob, "C3")
    alpha = _opt(spec.blob, "alpha")
    c4 = float(_opt(spec.blob, "C4", 1.0))
    bound_values = {
        "count_upper_bound": growth.count_upper_bound(radii, n, c4, d),
        "C4": c4,
    }
    if c3 is not None and alpha is not None:
        # a power-law arm probability, with pi(0) = 1 at n = 0 (one point at the origin)
        bound_values["prob_upper_bound"] = growth.prob_upper_bound(
            radii, n, lambda s: float(s) ** -alpha if s else 1.0, float(c3)
        )
        bound_values["C3"] = float(c3)
        bound_values["alpha"] = float(alpha)
    payload = {
        "points": [list(p) for p in record.points],
        "n": n,
        "edges": [{"u": list(e.u), "v": list(e.v), "r2": e.r2} for e in record.edges],
        "merge_radii_doubled": sorted(radii.elements()),
        "ordering_count": growth.ordering_count(radii),
        "bounds": bound_values,
        "blobs": [
            {
                "members": sorted(list(m) for m in b.members),
                "b2": b.b2,
                "d2": b.d2,
                "is_root": b.is_root,
                "region_size": int(growth.blob_region_mask(b, n)[0].sum()),
            }
            for b in blob_list
        ],
        "radius_bound": {
            "violations": list(radius_bound.violations),
            "equalities": list(radius_bound.equalities),
        },
    }
    header = ("u", "v", "r2")
    rows = [(str(e.u), str(e.v), e.r2) for e in record.edges]
    _emit(args, digest, "blob", header, rows, payload)
    return 0


def _cmd_bounds(args) -> int:
    spec, digest = _load_spec(args)
    cfg = spec.bounds
    if spec.d != 2 and cfg.get("alpha") is None:
        raise ValueError(f"bounds.alpha must be given at d = {spec.d}; the default is the d = 2 exponent")
    params = BoundParams(
        d=spec.d,
        alpha=_opt(cfg, "alpha", float(bounds.ONE_ARM_EXPONENT) if spec.d == 2 else None),
        C2=_opt(cfg, "C2", 1.0),
    )
    kmax = _opt(cfg, "sweep_kmax", 10_000)
    sup_mult, arg_mult = bounds.multinomial_sweep(kmax, spec.d)
    sup_pow, arg_pow = bounds.power_product_sweep(kmax, spec.d)
    n = max(spec.sizes)
    grid = [u for u in (1.0 + 0.25 * i for i in range(13)) if u <= n]  # 1.0..4.0, stopped at n
    series = {repr(u): bounds.generating_fn_bound(u, n, params) for u in grid}
    payload = {
        "params": {"d": spec.d, "alpha": params.alpha, "C2": params.C2},
        "sweeps": {
            "kmax": kmax,
            "multinomial_sup": sup_mult,
            "multinomial_argmax": arg_mult,
            "power_product_sup": sup_pow,
            "power_product_argmax": arg_pow,
        },
        "generating_fn_series": series,
    }
    header = ("quantity", "value")
    rows = [(k, v) for k, v in payload["sweeps"].items() if k != "kmax"]
    _emit(args, digest, "bounds", header, rows, payload)
    return 0


def _cmd_lower(args) -> int:
    spec, digest = _load_spec(args)
    lattice, p = spec.lattice_spec(), spec.effective_p()
    cfg = spec.lower
    n = _opt(cfg, "n", 32)
    u = _opt(cfg, "u", 2)
    if not 2 <= u <= n:
        raise ValueError(f"lower.u must lie in [2, lower.n], got u={u} n={n}")
    npr = n // u

    def sample(m: int, kind: str):  # the V_n family at m, labelled for one observable
        return vn_sample(lattice, p, m, spec.samples, spec.master_seed, spec.workers, reads=(kind,))

    scales = sorted({(1, npr), (1, 3 * npr), (1, n)})
    table = build_pi_table(lattice, p, scales, spec.samples, spec.master_seed, spec.workers)
    report = lowerbound.lower_construction(
        p, u, table, sample(npr, "vn"), sample(n, "c1"), spec.master_seed, spec.workers,
        _opt(cfg, "c12_grid", lowerbound.C12_GRID),
        conditioned=_opt(cfg, "conditioned", 200),
        stop_after_violations=_opt(cfg, "stop_after_violations", 25),
        max_attempts=_opt(cfg, "max_attempts", 2_000_000),
    )
    rsw, low, campaign, tail = report.rsw, report.constants, report.campaign, report.tail
    chain = lowerbound.dn_fkg_bound(campaign, lattice, p, spec.samples, spec.master_seed, spec.workers)
    payload = {
        "n": n,
        "u": u,
        "rsw": {"estimate": rsw.estimate.point, "C11": rsw.c11},
        "c12_grid": list(low.c12_grid),
        "c13_fits": list(low.c13_fits),
        "mean_vn": low.mean_vn,
        "mean_floor": low.floor_value,
        "campaign": {
            "attempts": campaign.attempts,
            "conditioned": campaign.conditioned,
            "holds": campaign.holds,
            "violated": campaign.violated,
            "violated_one_cluster": campaign.violated_one_cluster,
            "violated_sum": campaign.violated_sum,
            "acceptance_rate": campaign.acceptance_rate,
        },
        "lower_tail": {
            "direct": tail.direct.point,
            "stderr": tail.direct.stderr,
            "implied_bound": tail.implied_bound,
            "threshold": tail.threshold,
        },
        "fkg_chain": {
            "d_estimate": chain.d_estimate.point,
            "h_estimate": chain.h_estimate.point,
            "v_estimate": chain.v_estimate.point,
            "chained_bound": chain.chained_bound,
            "holds_within_3sigma": chain.holds_within_3sigma,
        },
    }
    header = ("quantity", "value")
    rows = [
        ("C11", rsw.c11),
        ("conditioned", campaign.conditioned),
        ("violated", campaign.violated),
        ("acceptance_rate", campaign.acceptance_rate),
        ("direct_lower_tail", tail.direct.point),
        ("implied_bound", tail.implied_bound),
    ]
    _emit(args, digest, "lower", header, rows, payload)
    return 0


def _cmd_verify(args) -> int:
    spec, digest = _load_spec(args)
    profile = QUICK if (args.quick or spec.verify.get("profile") == "quick") else FULL
    results, code = run_verify(spec.master_seed, spec.workers, profile, spec.verify.get("criteria"))
    write_results(args.out, results, digest, args.format)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="percolab",
        description="Critical percolation cluster-statistics laboratory",
    )
    parser.add_argument("--version", action="version", version=f"percolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", type=Path, default=None, help="YAML experiment spec")
    common.add_argument("--seed", type=int, default=None, help="override master seed")
    common.add_argument("--workers", type=int, default=None, help="worker processes")
    common.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    common.add_argument("--format", choices=("csv", "json", "both"), default="both")

    for name, run, text in (
        ("pi", _cmd_pi, "arm-probability table"),
        ("crossing", _cmd_crossing, "rectangle crossing probabilities"),
        ("tail", _cmd_tail, "largest-cluster / long-arm tail sweeps"),
        ("blob", _cmd_blob, "growth process on a point set"),
        ("bounds", _cmd_bounds, "bound evaluators and sweeps"),
        ("lower", _cmd_lower, "lower-bound construction suite"),
        ("verify", _cmd_verify, "run the acceptance suite"),
    ):
        sub.add_parser(name, parents=[common], help=text).set_defaults(run=run)
    sub.choices["blob"].add_argument(
        "--points", type=str, default=None, help="JSON list of coordinate pairs"
    )
    sub.choices["verify"].add_argument("--quick", action="store_true", help="reduced-size profile")

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, yaml.YAMLError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
