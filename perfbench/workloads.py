"""The four benchmark workloads, cut from the slowest acceptance criteria.

Each workload builds one unit of work from a master seed, runs it through
percolab's public functions (``run``), and checks the outputs.  Checks on
exact invariants run per unit; checks of a statistical tolerance run once per
run, on counts pooled over all its units, so that one run carries one
false-alarm chance per check (3 sigma: 0.27%) whatever its length.

Every workload calls the program through module attributes (``estimators.
build_pi_table``, ``growth.grow_tree``), so the traced pass sees each call.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from percolab import bounds, estimators, growth, lowerbound
from percolab.lattice import TRIANGULAR, Z2_BOND


def unit_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of unit ``index`` of a run; the benchmark's own derivation."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def digest(counters) -> str:
    blob = json.dumps(counters, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Workload:
    name = ""
    workers = 1
    monte_carlo = True

    def inputs(self, master_seed: int):
        return master_seed

    def run(self, inp, workers: int):
        raise NotImplementedError

    def replicas(self) -> int:
        """Replicas (or instances) the caller asks for in one unit."""
        raise NotImplementedError

    def counters(self, result) -> dict:
        raise NotImplementedError

    def unit_checks(self, inp, result) -> list[tuple[str, bool]]:
        return []

    def pool(self, acc: dict, result) -> None:
        pass

    def pooled_checks(self, acc: dict) -> list[tuple[str, bool]]:
        return []

    def warm(self, master_seed: int) -> None:
        """A few replicas over every raster size the workload uses."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


def _arm_scales() -> list[tuple[int, int]]:
    scales = {(1, n) for n in (8, 16, 32, 64, 128)}
    dyadic = (2, 4, 8, 16, 32, 64)
    for i, m in enumerate(dyadic):
        for n in dyadic[i + 1 :]:
            scales.add((m, n))
    return sorted(scales)


class TriArmTable(Workload):
    """Criteria 3/4: the arm table on triangular_site at p = 1/2, 2 workers."""

    name = "tri_arm_table"
    workers = 2
    scales = _arm_scales()
    arm_ns = (8, 16, 32, 64, 128)
    dyadic = (2, 4, 8, 16, 32, 64)
    samples = 2000

    def run(self, master_seed, workers):
        return estimators.build_pi_table(
            TRIANGULAR, 0.5, self.scales, self.samples, master_seed, workers
        )

    def replicas(self):
        return self.samples * len({n for _, n in self.scales})

    def counters(self, table):
        return {f"{m},{n}": row.successes for (m, n), row in sorted(table.rows.items())}

    def unit_checks(self, inp, table):
        rows_ok = sorted(table.rows) == self.scales and all(
            0 <= r.successes <= r.samples == self.samples for r in table.rows.values()
        )
        return [("every requested row, successes within [0, samples]", rows_ok)]

    def pool(self, acc, table):
        acc["samples"] = acc.get("samples", 0) + self.samples
        hits = acc.setdefault("hits", {})
        for key, row in table.rows.items():
            hits[key] = hits.get(key, 0) + row.successes

    def pooled_checks(self, acc):
        table = estimators.PiTable(TRIANGULAR, 0.5)
        samples = acc["samples"]
        for (m, n), hits in sorted(acc["hits"].items()):
            est = estimators.event_estimate(hits, samples)
            table.add(estimators.PiRow(m, n, samples, hits, est.point, est.stderr))
        alpha, _ = estimators.fit_arm_exponent(table, list(self.arm_ns))
        ds = self.dyadic
        triples = [
            (k, l, m) for i, k in enumerate(ds) for j, l in enumerate(ds[i:], start=i) for m in ds[j:]
        ]
        qm = estimators.check_quasi_mult(table, triples).max_ratio
        return [
            (f"alpha_hat={alpha:.4f} in [0.05, 0.20]", 0.05 <= alpha <= 0.20),
            (f"max quasi-mult ratio={qm:.3f} <= 5", math.isfinite(qm) and qm <= 5.0),
        ]

    def warm(self, master_seed):
        estimators.build_pi_table(TRIANGULAR, 0.5, self.scales, 4, master_seed, self.workers)


class BondClusterStats(Workload):
    """Criteria 8/10/12 statistics on z_bond (the csgraph path) plus criterion 1."""

    name = "bond_cluster_stats"
    workers = 1
    n = 32
    vn_samples = 500
    crossing_samples = 2000
    c1_thresholds = (256.0, 512.0, 1024.0, 2048.0)
    vn_thresholds = (128.0, 256.0, 512.0)
    moment_ks = (1, 2, 3, 4, 5)

    def run(self, master_seed, workers):
        stats = estimators.vn_statistics(
            Z2_BOND, 0.5, self.n, self.vn_samples, master_seed, workers,
            self.c1_thresholds, self.vn_thresholds, self.moment_ks, True,
        )
        cross = estimators.estimate_crossing(
            Z2_BOND, 0.5, (self.n, self.n - 1), 0, self.crossing_samples, master_seed, workers
        )
        return stats, cross

    def replicas(self):
        return self.vn_samples + self.crossing_samples

    def counters(self, result):
        stats, cross = result
        out = {k: v for k, v in stats.items() if k != "hist"}
        out["hist"] = {str(k): v for k, v in sorted(stats["hist"].items())}
        out["crossing_hits"] = cross.successes
        return out

    def unit_checks(self, inp, result):
        stats, _ = result
        return [
            ("msum:1 == vsum", stats["msum:1"] == stats["vsum"]),
            ("histogram counts every replica", sum(stats["hist"].values()) == self.vn_samples),
        ]

    def pool(self, acc, result):
        _, cross = result
        acc["hits"] = acc.get("hits", 0) + cross.successes
        acc["samples"] = acc.get("samples", 0) + self.crossing_samples

    def pooled_checks(self, acc):
        est = estimators.event_estimate(acc["hits"], acc["samples"])
        dev = abs(est.point - 0.5)
        return [(f"crossing {est.point:.4f}: |dev|={dev:.4f} <= 3 sigma", dev <= 3 * est.stderr)]

    def warm(self, master_seed):
        estimators.vn_statistics(
            Z2_BOND, 0.5, self.n, 2, master_seed, 1,
            self.c1_thresholds, self.vn_thresholds, self.moment_ks, True,
        )
        estimators.estimate_crossing(Z2_BOND, 0.5, (self.n, self.n - 1), 0, 2, master_seed, 1)


class TriGluing(Workload):
    """Criterion 9's gluing campaign over a fixed budget of whole stages.

    The campaign never stops on violations and no check asks for zero of them:
    criterion 9's known defect stays visible as ``lowerbound.violated_share``.
    """

    name = "tri_gluing"
    workers = 2
    n = 32
    u = 2
    budget = 8000
    stage = 4000

    def run(self, master_seed, workers):
        # target == budget: conditioned <= attempts, so the budget always binds
        return lowerbound.gluing_campaign(
            TRIANGULAR, 0.5, self.n, self.u, self.budget, master_seed, workers,
            stage_size=self.stage, max_attempts=self.budget, stop_after_violations=None,
        )

    def replicas(self):
        return self.budget

    def counters(self, rep):
        return {
            "attempts": rep.attempts,
            "conditioned": rep.conditioned,
            "holds": rep.holds,
            "violated": rep.violated,
            "violated_one_cluster": rep.violated_one_cluster,
            "violated_sum": rep.violated_sum,
        }

    def unit_checks(self, inp, rep):
        vi, vii = rep.violated_one_cluster, rep.violated_sum
        return [
            ("attempts == budget", rep.attempts == self.budget),
            ("holds + violated == conditioned", rep.holds + rep.violated == rep.conditioned),
            ("max(one-cluster, sum) <= violated <= their total", max(vi, vii) <= rep.violated <= vi + vii),
        ]

    def pool(self, acc, rep):
        for key, val in self.counters(rep).items():
            acc[key] = acc.get(key, 0) + val

    def warm(self, master_seed):
        lowerbound.gluing_campaign(
            TRIANGULAR, 0.5, self.n, self.u, 64, master_seed, self.workers,
            stage_size=32, max_attempts=64, stop_after_violations=None,
        )


def _mst_r2(points: tuple) -> list[int]:
    """Chebyshev MST edge lengths from scipy, independent of percolab.growth."""
    if len(points) == 1:
        return []
    arr = np.array(points, dtype=np.int64)
    dist = np.abs(arr[:, None, :] - arr[None, :, :]).max(axis=2)
    iu = np.triu_indices(len(points), 1)
    tree = minimum_spanning_tree(coo_matrix((dist[iu].astype(float), iu), shape=dist.shape))
    return sorted(int(round(w)) for w in tree.data)


class GrowthShells(Workload):
    """Criteria 5-7 and 14: growth trees, every blob's shell, the bound sweeps.

    Each unit holds ``rounds`` point sets of every size k = 1..16 (criteria 5-7
    draw k uniformly from the same range), so units differ in point positions
    but not in their mix of sizes.
    """

    name = "growth_shells"
    monte_carlo = False
    box = 100
    kmax = 16
    rounds = 2
    sweep_kmax = 10_000

    def inputs(self, master_seed):
        rng = np.random.default_rng(master_seed)
        sets = []
        for k in list(range(1, self.kmax + 1)) * self.rounds:
            pts: set[tuple[int, int]] = set()
            while len(pts) < k:
                pts.add(tuple(int(c) for c in rng.integers(-self.box, self.box + 1, 2)))
            sets.append(tuple(sorted(pts)))
        return sets

    def run(self, sets, workers):
        shells = []
        for pts in sets:
            rec = growth.grow_tree(pts)
            masks = [growth.blob_region_mask(b, self.box) for b in growth.blobs(rec, self.box)]
            shells.append((rec, masks))
        sweeps = (
            bounds.multinomial_sweep(self.sweep_kmax, 2),
            bounds.power_product_sweep(self.sweep_kmax, 2),
        )
        return shells, sweeps

    def replicas(self):
        return self.kmax * self.rounds

    def blobs(self) -> int:
        return sum(2 * k - 1 for k in range(1, self.kmax + 1)) * self.rounds

    def counters(self, result):
        shells, sweeps = result
        return {
            "r2": [list(rec.r2_sequence()) for rec, _ in shells],
            "shell_cells": [[int(m.sum()) for m, _ in masks] for _, masks in shells],
            "sweeps": [[float(s), int(a)] for s, a in sweeps],
        }

    def unit_checks(self, sets, result):
        shells, sweeps = result
        side = 2 * (2 * self.box + 1) + 1
        origin0 = -(2 * self.box + 1)
        mst = radius = disjoint = 0
        for pts, (rec, masks) in zip(sets, shells):
            mst += sorted(rec.r2_sequence()) == _mst_r2(pts)
            radius += growth.check_radius_bound(rec, self.box).ok
            canvas = np.zeros((side, side), dtype=np.int16)
            for mask, origin in masks:
                sl = tuple(slice(o - origin0, o - origin0 + s) for o, s in zip(origin, mask.shape))
                canvas[sl] += mask
            disjoint += not (canvas > 1).any()
        total = len(sets)
        return [
            (f"merge radii == scipy MST oracle ({mst}/{total})", mst == total),
            (f"shells pairwise disjoint ({disjoint}/{total})", disjoint == total),
            (f"ordered radius bound ({radius}/{total})", radius == total),
            ("sweep sups finite", all(math.isfinite(s) for s, _ in sweeps)),
        ]

    def warm(self, master_seed):
        self.run(self.inputs(master_seed)[-1:], 1)


WORKLOADS = {w.name: w for w in (TriArmTable(), BondClusterStats(), TriGluing(), GrowthShells())}
