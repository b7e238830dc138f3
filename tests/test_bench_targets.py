"""The benchmark's span targets name functions that exist.

``perfbench/spans.py`` wraps percolab functions by (module, attribute) and
skips a name that does not resolve, so a rename would drop its span without
a word.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# gone since bond configurations became decorated site grids
KNOWN_MISSING = {("grid", "label_bonds_batch")}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(module, attr) for module, attr, *_ in mod.TARGETS]


def test_span_targets_resolve():
    targets = _targets()
    missing = {
        (module, attr)
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"percolab.{module}"), attr, None))
    }
    assert missing <= KNOWN_MISSING
    assert ("parallel", "run_counters") in targets
