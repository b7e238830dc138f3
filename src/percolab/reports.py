"""Deterministic result files: CSV and JSON with embedded spec hash.

Output bytes are a pure function of the effective experiment spec and the
results; no timestamps, hostnames or worker counts appear, so replays are
byte-identical.  Every file carries the spec hash and the tool version: CSV
as a leading ``#``-comment line, JSON as a ``meta`` object.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Sequence

from . import __version__
from .estimators import PiTable


def spec_hash(spec_payload: dict) -> str:
    text = json.dumps(spec_payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence], meta: dict) -> Path:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())), ",".join(header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _finite_or_null(value):
    """``value`` with every NaN and +-inf float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path: Path, payload: dict, meta: dict) -> Path:
    """Strict JSON: a non-finite result (an infinite fit, an undefined slope) is null."""
    doc = {"meta": meta, **_finite_or_null(payload)}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return path


def write_results(
    out_dir: Path, stem: str, spec_digest: str, header: Sequence[str], rows: Sequence[Sequence],
    payload: dict, fmt: str,
) -> list[Path]:
    """Write ``<stem>_<hash>.csv`` (the rows) and/or ``.json`` (the payload).

    ``fmt`` is ``csv``, ``json`` or ``both``.  The CLI subcommands and the verify
    suite write their result tables here.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"spec_hash": spec_digest, "version": __version__}
    name = f"{stem}_{spec_digest[:12]}"
    written = []
    if fmt in ("csv", "both"):
        written.append(write_csv(out_dir / f"{name}.csv", header, rows, meta))
    if fmt in ("json", "both"):
        written.append(write_json(out_dir / f"{name}.json", payload, meta))
    return written


# ---------------------------------------------------------------------------
# Arm-probability table persistence

PI_HEADER = ("lattice", "p", "m", "n", "samples", "successes", "estimate", "stderr")


def pi_table_rows(table: PiTable) -> list[tuple]:
    return [
        (table.lattice.kind.value, table.p, r.m, r.n, r.samples, r.successes, r.estimate, r.stderr)
        for r in table.sorted_rows()
    ]


DIST_HEADER = ("value", "count")
