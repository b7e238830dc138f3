"""percolab benchmark: one workload per run, timed, traced and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` times whole units of the workload with tracing off
and prints the end-to-end metrics; ``--trace 1`` runs a single-process traced
pass beside untraced ones and prints the per-layer metrics.  The last line of
standard output is one JSON object (correct, attempted, failed, metrics);
``attempted``/``failed`` count the output checks.  Run records and span files
go to ``.perfbench_out/``.  See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup probes measure from here

import argparse
import json
import multiprocessing.pool
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
MIN_UNITS = 3


def _import_program():
    src = ROOT / "src"
    if not (src / "percolab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no percolab sources under {src}")
    sys.path.insert(0, str(src))
    import percolab

    if Path(percolab.__file__).resolve().parent != (src / "percolab").resolve():
        sys.exit(f"perfbench: percolab imported from {percolab.__file__}, not {src}")


_import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from percolab import estimators  # noqa: E402
from percolab.lattice import TRIANGULAR, Z2_BOND  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, digest, unit_seed  # noqa: E402

# The traced per-size probe: estimate_pi(lattice, 1/2, m=1, n) with (n, replicas)
# on both lattices, which is the per-replica layer table of the roadmap.
PROBE = ((8, 512), (32, 256), (128, 118))
PROBE_LATTICES = (TRIANGULAR, Z2_BOND)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(name: str, seed: int) -> list[float]:
    """Fresh interpreters: import, then a few replicas over every raster size."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


@contextmanager
def counting_pools():
    """Count worker pools started while the block runs."""
    box = [0]
    orig = multiprocessing.pool.Pool.__init__

    def init(self, *args, **kwargs):
        box[0] += 1
        orig(self, *args, **kwargs)

    multiprocessing.pool.Pool.__init__ = init
    try:
        yield box
    finally:
        multiprocessing.pool.Pool.__init__ = orig


def timed(fn, *args):
    t = time.perf_counter()
    res = fn(*args)
    return res, time.perf_counter() - t


class Checks:
    """Output checks of one run; pooled counts feed the statistical checks."""

    def __init__(self, w: workloads.Workload):
        self.w = w
        self.pooled: dict = {}
        self.failures: list[str] = []
        self.run = 0

    def add(self, results) -> None:
        for what, ok in results:
            self.run += 1
            if not ok:
                self.failures.append(what)

    def unit(self, inp, result) -> None:
        self.add(self.w.unit_checks(inp, result))
        self.w.pool(self.pooled, result)

    def finish(self) -> None:
        self.add(self.w.pooled_checks(self.pooled))


def warm_up(w, seed: int, checks: Checks, record: dict) -> None:
    """Unit 0 fills caches; it is checked and digested but not timed."""
    inp = w.inputs(unit_seed(w.name, seed, 0))
    res = w.run(inp, w.workers)
    record["digest"] = digest(w.counters(res))
    checks.unit(inp, res)


def end_to_end(w, seed: int, seconds: float, checks: Checks, record: dict) -> dict:
    setup = setup_seconds(w.name, seed)
    warm_up(w, seed, checks, record)
    times = []
    start = time.perf_counter()
    while len(times) < MIN_UNITS or time.perf_counter() - start < seconds:
        inp = w.inputs(unit_seed(w.name, seed, len(times) + 1))
        res, t = timed(w.run, inp, w.workers)
        times.append(t)
        checks.unit(inp, res)
    checks.finish()
    wall = statistics.median(times)
    record.update(setup_s=setup, unit_s=times)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "replicas_per_s": (w.replicas() / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced(w, seed: int, seconds: float, checks: Checks, record: dict) -> dict:
    tracer = spans.Tracer(w.name)
    warm_up(w, seed, checks, record)
    rounds, counted = [], {}  # counted: traced units only, the base of the ratios
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        i = len(rounds) + 1
        inp = w.inputs(unit_seed(w.name, seed, i))
        with counting_pools() as pools:
            res_w, t_w = timed(w.run, inp, w.workers)
        if i % 2:  # alternate which single-worker pass runs first
            res_1, t_1 = (res_w, t_w) if w.workers == 1 else timed(w.run, inp, 1)
        with tracer.installed(), tracer.span("unit", unit=i) as root:
            res_t = w.run(inp, 1)
        if not i % 2:
            res_1, t_1 = timed(w.run, inp, 1)
        digests = {digest(w.counters(r)) for r in (res_w, res_1, res_t)}
        checks.add([(f"same counters at {w.workers} and 1 workers, traced or not", len(digests) == 1)])
        checks.unit(inp, res_t)
        w.pool(counted, res_t)
        rounds.append({"t_w": t_w, "t_1": t_1, "t_traced": root.seconds, "pools": pools[0]})
    checks.finish()
    with tracer.installed():
        for lattice in PROBE_LATTICES:
            for n, reps in PROBE:
                with tracer.span(f"probe.{lattice.kind.value}.n{n}", n=n, replicas=reps):
                    estimators.estimate_pi(lattice, 0.5, 1, n, reps, unit_seed(w.name, seed, -n), 1)
    path = OUT / f"spans-{w.name}-seed{seed}.jsonl"
    tracer.write(path)
    record.update(rounds=rounds, spans_file=str(path.relative_to(ROOT)))
    return layer_metrics(w, tracer, rounds, counted)


def _layer_seconds(tracer, root) -> dict:
    tot: dict = {}
    for sp in tracer.under(root):
        tot[sp.layer] = tot.get(sp.layer, 0.0) + sp.seconds
    return tot


def layer_metrics(w, tracer, rounds, pooled) -> dict:
    us, n_units = 1e6, len(rounds)
    units = tracer.roots("unit")
    asked = w.replicas() * n_units
    mc = w.monte_carlo
    lay: dict = {}
    sampled = cells = rect_labels = 0
    shell_cells = shell_root = 0.0
    for root in units:
        below = tracer.under(root)
        for key, val in _layer_seconds(tracer, root).items():
            lay[key] = lay.get(key, 0.0) + val
        crops = {sp.id for sp in below if sp.layer == "crop"}
        for sp in below:
            if sp.layer == spans.SAMPLE:
                sampled += sp.counts["replicas"]
            elif sp.layer == spans.LABEL:
                cells += sp.counts["replicas"] * sp.counts["cells"]
                rect_labels += sp.counts["replicas"] if sp.parent in crops else 0
            elif sp.layer == "shell":
                shell_cells += sp.counts["cells"]
                shell_root += sp.seconds if sp.counts["root"] else 0.0
    kernel = sum(root.seconds for root in units) if mc else 0.0
    sample, label, reduce = (lay.get(k, 0.0) for k in (spans.SAMPLE, spans.LABEL, spans.REDUCE))
    t_w = sum(r["t_w"] for r in rounds)
    m = {
        "sampler.us_per_replica": (sample / asked * us, "us"),
        "sampler.replicas": (sampled / n_units, "count"),
        "grid.label_us_per_replica": (label / asked * us, "us"),
        "grid.cells_labeled_per_replica": (cells / asked, "count"),
        "grid.crop_label_us_per_replica": (lay.get("crop", 0.0) / asked * us, "us"),
        "grid.reduce_us_per_replica": (reduce / asked * us, "us"),
        "estimators.kernel_us_per_replica": (kernel / asked * us, "us"),
        "estimators.self_us_per_replica": ((kernel - sample - label - reduce) / asked * us if mc else 0.0, "us"),
        "parallel.scaling_eff": (statistics.median(r["t_1"] / (w.workers * r["t_w"]) for r in rounds), "ratio"),
        "parallel.pools": (sum(r["pools"] for r in rounds) / n_units, "count"),
    }
    for lattice in PROBE_LATTICES:
        for n, reps in PROBE:
            (probe,) = tracer.roots(f"probe.{lattice.kind.value}.n{n}")
            tot = _layer_seconds(tracer, probe)
            for key, layer in (("sampler.us_per_replica", spans.SAMPLE),
                               ("grid.label_us_per_replica", spans.LABEL),
                               ("grid.reduce_us_per_replica", spans.REDUCE)):
                m[f"{key}.{lattice.kind.value}.n{n}"] = (tot.get(layer, 0.0) / reps * us, "us")
    attempts, cond = pooled.get("attempts", 0), pooled.get("conditioned", 0)
    m.update({
        "lowerbound.attempts": (attempts, "count"),
        "lowerbound.conditioned": (cond, "count"),
        "lowerbound.acceptance": (cond / attempts if attempts else 0.0, "ratio"),
        "lowerbound.rect_labels_per_attempt": (rect_labels / attempts if attempts else 0.0, "count"),
        "lowerbound.check_ms_per_conditioned": (lay.get("check", 0.0) / cond * 1e3 if cond else 0.0, "ms"),
        "lowerbound.violated_share": (pooled.get("violated", 0) / cond if cond else 0.0, "ratio"),
        "lowerbound.conditioned_per_s": (cond / t_w if attempts else 0.0, "1/s"),
    })
    growth = isinstance(w, workloads.GrowthShells)
    blobs = w.blobs() * n_units if growth else 0
    shell = lay.get("shell", 0.0)
    m.update({
        "growth.tree_us_per_instance": (lay.get("tree", 0.0) / asked * us if growth else 0.0, "us"),
        "growth.shell_us_per_blob": (shell / blobs * us if blobs else 0.0, "us"),
        "growth.root_shell_share": (shell_root / shell if shell else 0.0, "ratio"),
        "growth.cells_per_blob": (shell_cells / blobs if blobs else 0.0, "count"),
        "growth.blobs_per_s": (blobs / t_w if blobs else 0.0, "1/s"),
        "bounds.sweep_s": (lay.get("sweep", 0.0) / n_units, "s"),
        "trace.overhead": (statistics.median(r["t_traced"] / r["t_1"] - 1.0 for r in rounds), "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.setup_probe:
        w.warm(unit_seed(w.name, args.seed, 0))
        print(time.perf_counter() - _T0)
        return 0
    checks = Checks(w)
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "env": environment()}
    run = traced if args.trace else end_to_end
    metrics = run(w, args.seed, args.seconds, checks, record)
    record.update(checks_run=checks.run, checks_failed=checks.failures,
                  metrics={k: v for k, (v, _) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    env = record["env"]
    print(f"# {w.name} seed={args.seed} trace={args.trace} workers={w.workers} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    print(f"# digest {record['digest']}")
    print(f"# checks_failed {len(checks.failures)}/{checks.run}" +
          "".join(f"\n#   FAILED {f}" for f in checks.failures))
    for key, (val, unit) in metrics.items():
        print(f"# {key} = {val:.6g} {unit}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.run,
        "failed": len(checks.failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
