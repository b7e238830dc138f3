"""The README's quick tour runs as written, so a removed or renamed name fails here."""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The first python block under the README's "Quick tour" heading, verbatim."""
    section = README.read_text().split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_runs_as_written():
    namespace: dict = {}
    exec(compile(quick_tour(), str(README), "exec"), namespace)
    assert namespace["record"].r2_sequence() == (3, 4)
    radii = namespace["grow_tree"]([(0, 0), (4, 0), (4, 3)]).r2_sequence()
    assert Counter(radii) == Counter({3: 1, 4: 1})
    assert namespace["sample"].samples == 200 and 0 < namespace["alpha_hat"] < 1
