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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import yaml

from . import __version__, bounds, estimators, growth, lowerbound, reports
from .bounds import BoundParams
from .estimators import build_pi_table, vn_sample
from .lattice import LatticeKind, LatticeSpec
from .verify import FULL, QUICK, check_criteria, run_verify, write_results


def _require_int(name: str, value) -> None:
    # bool is an int subclass; a spec's true/false is never a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _require_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def _one_of(*choices):
    def check(name: str, value) -> None:
        if value not in choices:
            raise ValueError(f"{name} must be one of {list(choices)}, got {value!r}")

    return check


def _list_of(check, length: int | None = None):
    def check_list(name: str, values) -> None:
        if not isinstance(values, list) or not values or length not in (None, len(values)):
            size = "a nonempty list" if length is None else f"a list of {length}"
            raise ValueError(f"{name} must be {size}, got {values!r}")
        for i, v in enumerate(values):
            check(f"{name}[{i}]", v)

    return check_list


def _require_criteria(name: str, values) -> None:
    _list_of(_require_int)(name, values)
    check_criteria(name, values)


def _require_rect(name: str, value) -> None:
    if not isinstance(value, dict) or "widths" not in value or set(value) - {"widths", "axis"}:
        raise ValueError(f"{name} must be a mapping of widths and optional axis, got {value!r}")
    _list_of(_require_int, 2)(f"{name}.widths", value["widths"])
    axis = value.get("axis", 0)
    _require_int(f"{name}.axis", axis)
    _one_of(0, 1)(f"{name}.axis", axis)


# the keys each section's subcommand reads, with the check of each value;
# any other key is a typo, and a null value means the default
SECTION_KEYS = {
    "pi": {"scales": _list_of(_list_of(_require_int, 2))},
    "tail": {
        "statistic": _one_of("largest_cluster", "long_arm"),
        "sizes": _list_of(_require_int),
        "distribution": _require_bool,
    },
    "blob": {
        "points": _list_of(_list_of(_require_int)),
        "n": _require_int,
        "alpha": _require_number,
        "C3": _require_number,
        "C4": _require_number,
    },
    "bounds": {
        **dict.fromkeys(("alpha", "C2"), _require_number),
        "sweep_kmax": _require_int,
    },
    "lower": {
        **dict.fromkeys(
            ("n", "u", "conditioned", "stop_after_violations", "max_attempts"), _require_int
        ),
        "c12_grid": _list_of(_require_number),
    },
    "crossing": {"rects": _list_of(_require_rect)},
    "verify": {"profile": _one_of("full", "quick"), "criteria": _require_criteria},
}


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
    u_grid: list = field(default_factory=lambda: [1.0, 1.5, 2.0, 3.0])
    k_grid: list = field(default_factory=lambda: [1, 2, 3])
    pi: dict = field(default_factory=dict)
    tail: dict = field(default_factory=dict)
    blob: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    lower: dict = field(default_factory=dict)
    crossing: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        LatticeKind(self.lattice)
        for name in ("master_seed", "samples", "workers", "d"):
            _require_int(name, getattr(self, name))
        for name in ("sizes", "k_grid"):
            _list_of(_require_int)(name, getattr(self, name))
        _list_of(_require_number)("u_grid", self.u_grid)
        if self.p is not None:
            _require_number("p", self.p)
        for name, checks in SECTION_KEYS.items():
            section = getattr(self, name)
            if not isinstance(section, dict):
                raise ValueError(f"{name} must be a mapping, got {section!r}")
            unknown = set(section) - checks.keys()
            if unknown:
                raise ValueError(f"unknown {name} keys: {sorted(unknown, key=str)}")
            for key, value in section.items():
                if value is not None:
                    checks[key](f"{name}.{key}", value)
        if self.p is not None and not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be >= 1")
        if any(u < 1 for u in self.u_grid):
            raise ValueError("u grid values must be >= 1")
        if any(k < 1 for k in self.k_grid):
            raise ValueError("k grid values must be >= 1")

    @classmethod
    def from_file(cls, path: Path) -> "ExperimentSpec":
        raw = yaml.safe_load(Path(path).read_text()) or {}
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)

    def lattice_spec(self) -> LatticeSpec:
        return LatticeSpec(LatticeKind(self.lattice), self.d)

    def effective_p(self) -> float:
        if self.p is not None:
            return self.p
        return estimators.default_p(self.lattice_spec())


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
    scales = [tuple(s) for s in _opt(spec.pi, "scales", [[1, n] for n in spec.sizes])]
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
        rects = [{"widths": estimators.self_dual_widths(lattice, n)} for n in spec.sizes]
    header = ("lattice", "p", "w0", "w1", "axis", "samples", "successes", "estimate", "stderr")
    rows = []
    for r in rects:
        w0, w1 = r["widths"]
        axis = r.get("axis", 0)
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
        bound_values["prob_upper_bound"] = growth.prob_upper_bound(
            radii, n, lambda s: float(s) ** -alpha, float(c3)
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
    params = BoundParams(
        d=spec.d,
        alpha=_opt(cfg, "alpha", float(bounds.ONE_ARM_EXPONENT) if spec.d == 2 else None),
        C2=_opt(cfg, "C2", 1.0),
    )
    kmax = _opt(cfg, "sweep_kmax", 10_000)
    sup_mult, arg_mult = bounds.multinomial_sweep(kmax, spec.d)
    sup_pow, arg_pow = bounds.power_product_sweep(kmax, spec.d)
    grid = [1.0 + 0.25 * i for i in range(13)]
    series = {repr(u): bounds.generating_fn_bound(u, max(spec.sizes), params)[0] for u in grid}
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
        _opt(cfg, "c12_grid", [0.1, 0.2, 0.5]),
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
        "c13_fits": [x if math.isfinite(x) else None for x in low.c13_fits],
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

    sub.add_parser("pi", parents=[common], help="arm-probability table")
    sub.add_parser("crossing", parents=[common], help="rectangle crossing probabilities")
    sub.add_parser("tail", parents=[common], help="largest-cluster / long-arm tail sweeps")
    blob = sub.add_parser("blob", parents=[common], help="growth process on a point set")
    blob.add_argument("--points", type=str, default=None, help="JSON list of coordinate pairs")
    sub.add_parser("bounds", parents=[common], help="bound evaluators and sweeps")
    sub.add_parser("lower", parents=[common], help="lower-bound construction suite")
    ver = sub.add_parser("verify", parents=[common], help="run the acceptance suite")
    ver.add_argument("--quick", action="store_true", help="reduced-size profile")

    args = parser.parse_args(argv)
    commands = {
        "pi": _cmd_pi,
        "crossing": _cmd_crossing,
        "tail": _cmd_tail,
        "blob": _cmd_blob,
        "bounds": _cmd_bounds,
        "lower": _cmd_lower,
        "verify": _cmd_verify,
    }
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
