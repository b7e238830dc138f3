"""Strip labelling, and the replica-batch loop's kept buffers.

Every labelling call lays its grids side by side in one strip; each crop
labelled alone is the reference.  ``ndimage.label`` is called once in the
package, on a strip.  The kernel keeps its batch arrays across calls, so every
array a public call returns is checked against later calls.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from percolab import estimators as E
from percolab import grid
from percolab.estimators import build_pi_table, estimate_crossing, read_config, vn_sample
from percolab.lattice import TRIANGULAR, Z2_BOND, box_with_boundary, rect_region, site_structure
from percolab.lowerbound import gluing_campaign
from percolab.sampler import derive_stream, open_cells_batch, sample_config

# (corner, widths) over box(5) plus boundary: zero widths, one row or column, the whole box
RECTS = [
    ((-3, -2), (4, 3)),
    ((-5, -5), (10, 10)),
    ((0, -4), (0, 6)),
    ((-4, 1), (7, 0)),
    ((2, 2), (0, 0)),
    ((-1, -5), (1, 9)),
]


def _partition(labels: np.ndarray) -> set:
    """(site, first site of its cluster) pairs: equal for equal clusters, whatever their labels."""
    sites, values = np.argwhere(labels > 0), labels[labels > 0]
    _, first = np.unique(values, return_index=True)
    head = dict(zip(values[first].tolist(), map(tuple, sites[first].tolist())))
    return {(tuple(s), head[v]) for s, v in zip(sites.tolist(), values.tolist())}


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["triangular_site", "z_bond"])
@pytest.mark.parametrize("p", [0.0, 0.45, 0.6, 1.0])
def test_strip_crossings_match_stacked_labels(lattice, p):
    carrier = box_with_boundary(lattice, 5)
    batch = open_cells_batch(lattice, carrier.mask, p, [derive_stream(91, i) for i in range(24)])
    kept = grid.Buffers(kept=True)
    kept.empty("labels", (4096,), np.int32).fill(-5)  # stale values a strip must overwrite
    kept.empty("strip", (4096,), bool).fill(True)
    survivors = [slice(None), np.arange(24), np.array([7]), np.array([], dtype=np.intp),
                 np.array([0, 3, 4, 11, 23])]
    hits = set()
    for corner, widths in RECTS:
        sl = rect_region(corner, widths).slices_in(carrier)
        for rows in survivors:
            # label values of separately labelled crops repeat across replicas, so
            # each crop's crossings are read alone
            crops = batch[(rows,) + grid.cell_slices(lattice, sl)]
            alone = [ndimage.label(c, site_structure(lattice))[0][grid.vertex_cells(lattice)] for c in crops]
            for buffers in (grid.FRESH, kept):
                strip = E._crop_labels(lattice, batch, sl, rows, buffers=buffers)
                assert len(strip) == len(alone)
                for axis in (0, 1):
                    want = [bool(grid.crossing(a[None], axis)[0]) for a in alone]
                    assert grid.crossing(strip, axis).tolist() == want, (corner, widths, axis)
                    hits.update(want)
                for a, b in zip(alone, strip):
                    assert a.shape == b.shape and _partition(a) == _partition(b)
    if 0 < p < 1:
        assert hits == {False, True}


def test_strip_view_skips_separators():
    # the per-grid view drops the separator columns of site and decorated strips alike
    crops = np.ones((3, 5, 7), dtype=bool)
    for lattice, shape in ((TRIANGULAR, (3, 5, 7)), (Z2_BOND, (3, 3, 4))):
        labels = grid.label_sites_batch(grid.strip_cells(crops), lattice)
        assert labels.shape == shape
        assert [np.unique(block).tolist() for block in labels] == [[1], [2], [3]]


def _ndimage_label_uses(source: Path):
    """(module, enclosing function, structure argument) of each ``ndimage.label`` in ``source``."""
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "ndimage" in (node.module or ""):
                yield path.stem, "import", [alias.name for alias in node.names]
            if isinstance(node, ast.Attribute) and node.attr == "label" and ast.unparse(node.value) == "ndimage":
                call = fn = parents[node]
                while fn in parents and not isinstance(fn, ast.FunctionDef):
                    fn = parents[fn]
                keywords = call.keywords if isinstance(call, ast.Call) else []
                structure = [ast.unparse(k.value) for k in keywords if k.arg == "structure"]
                yield path.stem, getattr(fn, "name", None), structure


def test_one_labelling_call_under_the_lattice_structure():
    # a second labelling layout would need a second call or a second structure
    uses = list(_ndimage_label_uses(Path(grid.__file__).parent))
    assert uses == [("grid", "label_sites_batch", ["site_structure(lattice)"])]


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND], ids=["triangular_site", "z_bond"])
def test_gathered_strip_is_the_strip_of_its_crops(lattice):
    # each replica gets its own crop, a transposed one read with its axes swapped;
    # the reference lays the sliced crops side by side with strip_cells
    carrier = box_with_boundary(lattice, 5)
    batch = open_cells_batch(lattice, carrier.mask, 0.5, [derive_stream(92, i) for i in range(9)])
    places = [((-4, -3), (2, 5), False), ((1, -5), (5, 2), True), ((-6, 0), (2, 5), False),
              ((-1, 1), (5, 2), True)]  # on the raster's edges too
    crops = grid.StripCrops(
        lattice, carrier.shape, [(rect_region(c, w).slices_in(carrier), t) for c, w, t in places]
    )
    replicas, kinds = np.array([0, 2, 3, 3, 8]), np.array([1, 0, 3, 2, 1])
    want = []
    for b, k in zip(replicas, kinds):
        corner, widths, transposed = places[k]
        crop = batch[b][grid.cell_slices(lattice, rect_region(corner, widths).slices_in(carrier))]
        want.append(crop.T if transposed else crop)
    kept = grid.Buffers(kept=True)
    kept.empty("strip", (4096,), bool).fill(True)  # stale separators a gather must close
    strip = crops.gather(batch, replicas, kinds, kept)
    assert np.array_equal(strip, grid.strip_cells(np.stack(want)))
    tall = rect_region((0, 0), (2, 5)).slices_in(carrier)
    with pytest.raises(ValueError, match="one cell shape"):
        grid.StripCrops(lattice, carrier.shape, [(tall, False), (tall, True)])


def _results(seed: int) -> list[np.ndarray]:
    """Arrays returned by the public sample, label and read calls and by two kernel calls."""
    cfg = sample_config(Z2_BOND, box_with_boundary(Z2_BOND, 6), 0.5, seed)
    mask = box_with_boundary(TRIANGULAR, 7).mask
    cells = open_cells_batch(TRIANGULAR, mask, 0.5, [derive_stream(seed, i) for i in range(5)])
    out = [cfg.cells, cells, grid.label_sites_batch(grid.strip_cells(cells), TRIANGULAR)]
    out += [read_config(cfg, ("arm", ((1, 3), (2, 5)))), read_config(cfg, ("dn", 3, 2))]
    obs = (("arm", ((1, 4), (3, 9))), ("vn", 4), ("c1", 4), ("crossing", (-3, -3), (6, 4), 0))
    out += E._observe((TRIANGULAR, 0.5, box_with_boundary(TRIANGULAR, 9), obs, seed), 0, 200)
    bond_obs = (("crossing", (0, 0), (5, 4), 1),)
    out += E._observe((Z2_BOND, 0.6, rect_region((0, 0), (5, 4)), bond_obs, seed), 0, 50)
    return out


def test_kept_buffers_never_escape():
    # the same calls on other seeds write the same buffers at the same places, and calls
    # of other shapes write them again; no array a call returned may change
    _results(1)  # the buffers grow to these sizes first, so later requests reuse them
    kept = _results(2)
    before = [np.array(a, copy=True) for a in kept]
    _results(3)
    build_pi_table(TRIANGULAR, 0.5, [(1, 6), (2, 9)], 300, 11)
    vn_sample(Z2_BOND, 0.5, 4, 70, 12)
    estimate_crossing(TRIANGULAR, 0.55, (7, 3), 1, 400, 13)
    estimate_crossing(Z2_BOND, 0.5, (2, 9), 0, 90, 14)
    gluing_campaign(TRIANGULAR, 0.7, 4, 2, 1, 15, stage_size=40)
    for i, (a, b) in enumerate(zip(kept, before, strict=True)):
        assert np.array_equal(a, b), i


def test_threads_keep_their_own_buffers():
    # each thread samples into its own buffers; shared ones would mix the threads' batches
    tasks = [
        (TRIANGULAR, 0.5, box_with_boundary(TRIANGULAR, 6), (("vn", 3), ("c1", 3)), 31),
        (Z2_BOND, 0.55, rect_region((0, 0), (7, 5)), (("crossing", (0, 0), (7, 5), 0),), 32),
    ]
    calls = [lambda: E._observe(tasks[0], 0, 60), lambda: E._observe(tasks[1], 0, 90)]
    want = [call() for call in calls]
    got: dict = {}

    def work(i):
        got[i] = [calls[i % 2]() for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, results in got.items():
        for result in results:
            assert all(np.array_equal(a, b) for a, b in zip(result, want[i % 2], strict=True)), i
    assert sorted(got) == [0, 1, 2, 3]
