"""The benchmark's span targets name functions that exist and are called.

``perfbench/spans.py`` wraps percolab functions by (module, attribute) and
skips a name that does not resolve, so a rename would drop its span without
a word; a kernel path that stops calling a target zeroes its metric the same
way.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from percolab.estimators import build_pi_table, estimate_crossing, vn_sample
from percolab.lattice import TRIANGULAR, Z2_BOND
from percolab.lowerbound import EventSpec, fkg_check, gluing_campaign

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# gone since bond configurations became decorated site grids
KNOWN_MISSING = {("grid", "label_bonds_batch")}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _targets():
    return [(module, attr) for module, attr, *_ in _load_spans().TARGETS]


def test_span_targets_resolve():
    targets = _targets()
    missing = {
        (module, attr)
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"percolab.{module}"), attr, None))
    }
    assert missing <= KNOWN_MISSING
    assert ("parallel", "run_counters") in targets


def _trace(spans, call) -> list:
    tracer = spans.Tracer("coverage")
    with tracer.installed():
        call()
    return tracer.spans


def _span_names(spans, call) -> set[str]:
    return {sp.name for sp in _trace(spans, call)}


POOL, SITES, BONDS = "parallel.run_counters", "sampler.site_open_batch", "sampler.edge_open_batch"
LABEL, CROP = "grid.label_sites_batch", "grid.crop_labels"
ARM, VN, C1 = "grid.connect_through", "grid.count_connected_to", "grid.largest_count"

EVENT_SPANS = {
    "h_crossing": (EventSpec("h_crossing", corner=(-2, -2), widths=(4, 3)), {CROP}),
    "v_crossing": (EventSpec("v_crossing", corner=(-2, -2), widths=(4, 3)), {CROP}),
    "arm": (EventSpec("arm", m=1, n=3), {ARM}),
    "vn_ge": (EventSpec("vn_ge", n=1, threshold=1.0), {VN}),
    "c1_ge": (EventSpec("c1_ge", n=2, threshold=3.0), {CROP, C1}),
}


def test_kernel_paths_emit_their_layer_spans():
    # a span that is no longer called zeroes its per-layer metric without a word
    spans = _load_spans()
    base = {POOL, SITES, LABEL}
    assert _span_names(spans, lambda: build_pi_table(TRIANGULAR, 0.5, [(1, 3), (2, 3)], 4, 1)) == base | {ARM}
    assert _span_names(spans, lambda: vn_sample(Z2_BOND, 0.5, 2, 4, 1)) == {POOL, BONDS, LABEL, VN, CROP, C1}
    assert _span_names(spans, lambda: estimate_crossing(TRIANGULAR, 0.5, (3, 2), 0, 4, 1)) == base | {CROP}
    for kind, (ev, extra) in EVENT_SPANS.items():
        assert _span_names(spans, lambda: fkg_check(TRIANGULAR, 0.5, ev, ev, 4, 1)) == base | extra, kind
    reports = []
    glue = _span_names(
        spans, lambda: reports.append(gluing_campaign(TRIANGULAR, 0.7, 4, 2, 1, 3, stage_size=16))
    )
    assert reports[0].conditioned > 0
    # the sum check counts each local long-arm set with the V_n reduction
    assert glue == base | {CROP, VN, C1, "lowerbound.gluing_check"}


def test_gluing_labels_run_under_crop_or_check_spans():
    # lowerbound.rect_labels_per_attempt counts the label spans under crop spans; a
    # rectangle labelled outside _crop_labels would drop out of it without a word
    traced = _trace(_load_spans(), lambda: gluing_campaign(TRIANGULAR, 0.7, 4, 2, 1, 3, stage_size=16))
    names = {sp.id: sp.name for sp in traced}
    parents = [names.get(sp.parent) for sp in traced if sp.name == LABEL]
    assert CROP in parents and "lowerbound.gluing_check" in parents
    assert set(parents) <= {CROP, "lowerbound.gluing_check"}
