"""In-memory span recording around percolab's public layer functions.

Spans are recorded only inside ``Tracer.installed()``, which puts wrappers in
place of the layer functions in every loaded ``percolab`` module (so ``from
.sampler import site_open_batch`` call sites are covered too) and restores
the originals on exit.  Nothing in the program itself changes.

A span holds its name, layer, start, end, parent span and workload, plus the
counts read off the wrapped call: ``replicas`` (the result's leading batch
axis), ``cells`` (raster cells per replica) and, for shells, ``root``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Layer classes used by the per-layer decomposition; every other span is
# bookkeeping whose time counts as the caller's self time.
SAMPLE, LABEL, REDUCE = "sample", "label", "reduce"


def _batch_counts(args, result) -> dict:
    """Leading batch axis and cells per replica of an array or list of arrays."""
    arr = result[0] if isinstance(result, (list, tuple)) else result
    return {"replicas": int(arr.shape[0]), "cells": int(arr[0].size)}


def _mask_counts(args, result) -> dict:
    mask, _origin = result
    return {"cells": int(mask.size), "root": int(args[0].is_root)}


# (module, attribute, span name, layer, counts read off the result).  Missing
# attributes are skipped, so the same table serves later layouts of the code.
TARGETS = (
    ("sampler", "site_open_batch", "sampler.site_open_batch", SAMPLE, _batch_counts),
    ("sampler", "edge_open_batch", "sampler.edge_open_batch", SAMPLE, _batch_counts),
    ("grid", "label_sites_batch", "grid.label_sites_batch", LABEL, _batch_counts),
    ("grid", "label_bonds_batch", "grid.label_bonds_batch", LABEL, _batch_counts),
    ("grid", "connect_through", "grid.connect_through", REDUCE, _batch_counts),
    ("grid", "count_connected_to", "grid.count_connected_to", REDUCE, _batch_counts),
    ("grid", "largest_count", "grid.largest_count", REDUCE, _batch_counts),
    ("estimators", "_crop_labels", "grid.crop_labels", "crop", _batch_counts),
    ("parallel", "run_counters", "parallel.run_counters", "parallel", None),
    ("lowerbound", "_gluing_violations", "lowerbound.gluing_check", "check", None),
    ("growth", "grow_tree", "growth.grow_tree", "tree", None),
    ("growth", "blobs", "growth.blobs", "tree", None),
    ("growth", "blob_region_mask", "growth.blob_region_mask", "shell", _mask_counts),
    ("bounds", "multinomial_sweep", "bounds.multinomial_sweep", "sweep", None),
    ("bounds", "power_product_sweep", "bounds.power_product_sweep", "sweep", None),
)


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "counts", "extra")

    def __init__(self, sid, name, layer, parent):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict = {}
        self.extra: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store for one workload; spans stay in memory until ``write``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str = "root", **extra):
        sp = Span(len(self.spans), name, layer, self._stack[-1] if self._stack else None)
        sp.extra = extra
        self.spans.append(sp)
        self._stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, layer, counts):
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                sp.counts = counts(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every reference to a target function in loaded percolab modules."""
        mods = {k: m for k, m in sys.modules.items() if k == "percolab" or k.startswith("percolab.")}
        undo = []
        for modname, attr, name, layer, counts in TARGETS:
            home = mods.get(f"percolab.{modname}")
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, layer, counts)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        undo.append((vars(mod), key, fn))
                        vars(mod)[key] = wrapper
        try:
            yield
        finally:
            for namespace, key, fn in reversed(undo):
                namespace[key] = fn

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w") as fh:
            for sp in self.spans:
                rec = {
                    "id": sp.id,
                    "name": sp.name,
                    "layer": sp.layer,
                    "start": sp.start - t0,
                    "end": sp.end - t0,
                    "parent": sp.parent,
                    "workload": self.workload,
                    **sp.counts,
                    **sp.extra,
                }
                fh.write(json.dumps(rec) + "\n")

    # -- analysis ---------------------------------------------------------

    def roots(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.parent is None and sp.name == name]

    def under(self, root: Span) -> list[Span]:
        """Every span below ``root`` (spans are stored in start order)."""
        out, inside = [], {root.id}
        for sp in self.spans[root.id + 1 :]:
            if sp.parent in inside:
                inside.add(sp.id)
                out.append(sp)
            elif sp.start >= root.end:
                break
        return out
