"""Deterministic result files: CSV and JSON with embedded spec hash.

Output bytes are a pure function of the effective experiment spec and the
results; no timestamps, hostnames or worker counts appear, so replays are
byte-identical.  Every file carries the spec hash and the tool version: CSV
as a leading ``#``-comment line, JSON as a ``meta`` object.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

from . import __version__
from .estimators import PiTable


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)


def spec_hash(spec_payload: dict) -> str:
    return hashlib.sha256(canonical_json(spec_payload).encode()).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(
    path: Path,
    header: Sequence[str],
    rows: Sequence[Sequence],
    meta: dict,
) -> Path:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path: Path, payload: dict, meta: dict) -> Path:
    doc = {"meta": dict(sorted(meta.items())), **payload}
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def file_meta(spec_digest: str) -> dict:
    return {"spec_hash": spec_digest, "version": __version__}


def write_results(
    out_dir: Path, stem: str, spec_digest: str, header: Sequence[str], rows: Sequence[Sequence],
    payload: dict, fmt: str,
) -> list[Path]:
    """Write ``<stem>_<hash>.csv`` (the rows) and/or ``.json`` (the payload).

    ``fmt`` is ``csv``, ``json`` or ``both``.  The CLI subcommands and the verify
    suite write their result tables here.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = file_meta(spec_digest)
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
