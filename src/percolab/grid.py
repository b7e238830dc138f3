"""Rasterized lattice geometry and the batched labeling kernel.

Everything Monte-Carlo-hot runs through this module.  A configuration's raster
is its carrier, a ``lattice.Region``: the carrier's bounding box, in which its
mask marks the carrier's sites.  Rings, boxes and rectangles are placed in it
with the region's ``mask_in`` and ``slices_in``, which raise when they do not
fit.  A configuration is stored as a grid of open *cells*, and one kernel,
``scipy.ndimage.label``, labels the cells of both lattice kinds:

* site mode: the cells are the sites, labeled under the lattice adjacency;
* bond mode: the cells form the decorated grid.  A raster of side L becomes
  side 2L - 1 in every axis.  Vertex cells sit at all-even coordinates and
  hold the carrier mask; the edge cell between u and u + e_a sits at
  2u + e_a and is open when that edge is open.  Nearest-neighbour labeling
  of the cells joins exactly the vertices that open edges join.

Vertex labels are read back as the stride-``s`` view of the cell labels, with
``s = 1`` (site) or ``s = 2`` (bond), so every reduction works in site
coordinates.  Site-space masks and slices map to cell space through the same
stride: the site slice ``[start, stop)`` becomes the cell slice
``[s*start, s*(stop-1) + 1)``, which ends on vertex cells, so edges leaving a
crop drop out of it.

Every labelling call labels a *strip*: a batch of grids lies side by side
along the last axis, each followed by one closed separator column, and the
strip is labeled as one grid under the lattice structure, with ONE call.
``ndimage.label`` pays per line as well as per cell, and a strip of B grids of
h rows has h long lines where a stack of them would have B h short ones.  No
path crosses a separator, so label values are unique per grid, and flag
lookups over label ids pool labels across the batch without cross-talk.  A
grid of odd cell width (every decorated grid) plus its separator spans an
even number of columns, so each grid starts on a vertex column and the
stride-2 vertex view skips the separators.  ``strip_cells`` lays out a stack of
grids; ``StripCrops`` gathers a strip in which each replica has its own crop,
out of K crops of one cell shape at fixed places: each strip row is a run of
the replica's cells, a row segment of an upright crop or a column segment of
a transposed one, read through a strided view.

The replica-batch loop keeps its largest arrays across calls in a ``Buffers``
and hands them to the sample and label layers; every caller that does not
pass one gets fresh arrays (``FRESH``), so nothing a public call returns is
shared.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .lattice import LatticeSpec, site_structure


# ---------------------------------------------------------------------------
# Cell geometry: with the sampler, the only code that tells the lattice kinds apart


def stride(lattice: LatticeSpec) -> int:
    """Cell distance between neighbouring vertices: 1 (site) or 2 (bond)."""
    return 1 if lattice.site_mode else 2


def vertex_cells(lattice: LatticeSpec) -> tuple[slice, ...]:
    """Index of the vertex cells of a cell grid (one slice per lattice axis)."""
    return (slice(None, None, stride(lattice)),) * lattice.d


def edge_ends(d: int, axis: int, end: int) -> tuple[slice, ...]:
    """Site index of the tails u (end 0) or heads u + e_axis (end 1) of axis edges."""
    return tuple(slice(end, end - 1 or None) if a == axis else slice(None) for a in range(d))


def edge_cells(d: int, axis: int) -> tuple[slice, ...]:
    """Index of the edge cells along ``axis`` of a decorated grid."""
    return tuple(slice(1, None, 2) if a == axis else slice(None, None, 2) for a in range(d))


def cell_shape(lattice: LatticeSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    s = stride(lattice)
    return tuple(s * (n - 1) + 1 for n in shape)


def cell_slices(lattice: LatticeSpec, sl: tuple[slice, ...]) -> tuple[slice, ...]:
    """Site-space slices (step 1) to the cell slices that end on vertex cells."""
    s = stride(lattice)
    return tuple(slice(s * x.start, s * (x.stop - 1) + 1) for x in sl)


def cell_mask(lattice: LatticeSpec, mask: np.ndarray) -> np.ndarray:
    """Site-space mask to cell space: an edge cell is in when both ends are."""
    if lattice.site_mode:
        return mask
    d = mask.ndim
    out = np.zeros(cell_shape(lattice, mask.shape), dtype=bool)
    out[vertex_cells(lattice)] = mask
    for a in range(d):
        out[edge_cells(d, a)] = mask[edge_ends(d, a, 0)] & mask[edge_ends(d, a, 1)]
    return out


def edge_arrays(cells: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    """Per-axis site-space view of a decorated grid: ``[a][u]`` is cell 2u + e_a.

    Edges that would leave the raster read False.
    """
    out = []
    for a in range(d):
        e = np.zeros(tuple((n + 1) // 2 for n in cells.shape), dtype=bool)
        e[edge_ends(d, a, 0)] = cells[edge_cells(d, a)]
        out.append(e)
    return tuple(out)


def element_grid(lattice: LatticeSpec, cells: np.ndarray) -> np.ndarray:
    """A cell grid in element layout: its C order is the sampler's element order.

    Sites: the grid itself.  Bonds: raster x axis, ``[u, a]`` is the edge cell
    ``2u + e_a`` (site-major, axis ascending); edges leaving the raster read
    False.  ``element_grid(lattice, cell_mask(lattice, carrier))`` is the mask
    of the sampled elements.
    """
    if lattice.site_mode:
        return cells
    return np.stack(edge_arrays(cells, lattice.d), axis=-1)


# ---------------------------------------------------------------------------
# Batched labeling


class Buffers:
    """Named arrays for the sample and label layers.

    ``Buffers()`` allocates every array anew.  ``Buffers(kept=True)`` keeps one
    byte array per name, grown to the largest request and never shrunk, and
    hands out views of it: a request overwrites whatever the last request of
    the same name returned.
    """

    def __init__(self, kept: bool = False):
        self._kept: dict[str, np.ndarray] | None = {} if kept else None

    def empty(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        if self._kept is None:
            return np.empty(shape, dtype)
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = self._kept.get(name)
        if buf is None or buf.size < size:
            buf = self._kept[name] = np.empty(size, dtype=np.uint8)
        return buf[:size].view(dtype).reshape(shape)


FRESH = Buffers()


def strip_cells(crops: np.ndarray, buffers: Buffers = FRESH) -> np.ndarray:
    """A (B, ..., W) stack of cell grids laid side by side: (..., B, W + 1), separators closed."""
    *lead, width = crops.shape[1:]
    strip = buffers.empty("strip", (*lead, len(crops), width + 1), bool)
    strip[..., width] = False
    strip[..., :width] = crops.transpose(*range(1, crops.ndim - 1), 0, crops.ndim - 1)
    return strip


class StripCrops:
    """K crops of one cell shape (h, w) at fixed places of a 2-D cell grid, gathered into strips.

    ``crops`` holds (site slices, transposed) pairs; a transposed crop is read
    with its axes swapped, so its cell (i, j) is cell (j, i) of its slices.
    Row i of crop k is the run of w cells from flat cell ``row_start[i, k]``
    of a grid of site ``shape``: consecutive cells, or cells one grid row
    apart when the crop is transposed.
    """

    def __init__(self, lattice: LatticeSpec, shape: tuple[int, int], crops):
        self.grid_width = cell_shape(lattice, shape)[1]
        starts, transposed, shapes = [], [], set()
        for sl, flip in crops:
            x, y = cell_slices(lattice, sl)
            starts.append(x.start * self.grid_width + y.start)
            transposed.append(flip)
            extents = (x.stop - x.start, y.stop - y.start)
            shapes.add(extents[::-1] if flip else extents)
        if len(shapes) != 1:
            raise ValueError(f"crops of one strip need one cell shape, got {sorted(shapes)}")
        ((self.h, self.w),) = shapes
        self.transposed = np.array(transposed, dtype=bool)
        row_step = np.where(self.transposed, 1, self.grid_width)
        self.row_start = np.array(starts, dtype=np.intp) + np.arange(self.h)[:, None] * row_step
        for array in (self.transposed, self.row_start):
            array.flags.writeable = False

    def gather(
        self, cells: np.ndarray, replicas: np.ndarray, kinds: np.ndarray, buffers: Buffers = FRESH
    ) -> np.ndarray:
        """The ``strip_cells`` strip of crop ``kinds[b]`` of grid ``replicas[b]`` of a (B, ...) stack.

        Each strip row is one run of the flat cells, read through a view
        whose rows are the runs of one orientation: tall crops copy whole
        row segments, transposed ones column segments.
        """
        flat = cells.reshape(-1)
        starts = self.row_start.take(kinds, axis=1)
        starts += replicas * cells[0].size
        strip = buffers.empty("strip", (self.h, len(replicas), self.w + 1), bool)
        transposed = self.transposed[kinds]
        for pick, step in ((~transposed, 1), (transposed, self.grid_width)):
            pick = np.flatnonzero(pick)
            if pick.size:
                count = flat.size - (self.w - 1) * step  # the runs that fit in the stack
                runs = np.ndarray((count, self.w), bool, flat, 0, (1, step))
                strip[:, pick, : self.w] = runs[starts[:, pick]]
        strip[..., -1] = False
        return strip


def label_sites_batch(strip: np.ndarray, lattice: LatticeSpec, buffers: Buffers = FRESH) -> np.ndarray:
    """Vertex labels of each grid of a ``strip_cells`` strip; 0 = not open.

    The strip is labeled as one grid into the int32 ``labels`` array of
    ``buffers``.  The result is a (B, ...) view of each grid's vertices in
    site coordinates (stride 2 on a decorated grid), separators dropped.
    """
    *lead, n_grids, width = strip.shape
    cells = strip.reshape(*lead, n_grids * width)
    labels = buffers.empty("labels", cells.shape, np.int32)
    ndimage.label(cells, structure=site_structure(lattice), output=labels)
    s = stride(lattice)
    vertex = labels[vertex_cells(lattice)]
    blocks = vertex.reshape(*vertex.shape[:-1], n_grids, -(-width // s))[..., : (width - 2) // s + 1]
    return blocks.transpose(len(lead), *range(len(lead)), len(lead) + 1)


# ---------------------------------------------------------------------------
# Per-sample reductions on batch labels


def _flags(la: np.ndarray) -> np.ndarray:
    """Lookup over label values: True for the positive labels of ``la``."""
    flags = np.zeros(int(la.max(initial=0)) + 2, dtype=bool)  # the last flag stands for every id above
    flags[la] = True
    flags[0] = False
    return flags


def _hits(flags: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Per-sample: does a flagged label occur in ``lb``? (B,) bool."""
    hit = flags.take(lb, mode="clip")
    return hit.any(axis=tuple(range(1, hit.ndim)))


def _joined(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Per-sample: does a positive label of ``la`` recur in ``lb``? (B,) bool."""
    return _hits(_flags(la), lb)


def connect_through(labels: np.ndarray, sites, pairs) -> np.ndarray:
    """Per sample and pair (a, b): does some cluster touch ``sites[a]`` and ``sites[b]``?

    (B, len(pairs)) bool.  ``sites[i]`` indexes a site set as ``np.nonzero``
    of its mask does.  Each set's labels are gathered once, and the first set
    of a pair flags its clusters once for all of its pairs: label values are
    unique per sample, so one flag table serves the whole batch.
    """
    gathered = {i: labels[(slice(None), *sites[i])] for i in {i for pair in pairs for i in pair}}
    flags = {a: _flags(gathered[a]) for a in {a for a, _ in pairs}}
    out = np.empty((len(labels), len(pairs)), dtype=bool)
    for j, (a, b) in enumerate(pairs):
        out[:, j] = _hits(flags[a], gathered[b])
    return out


def crossing(labels: np.ndarray, axis: int) -> np.ndarray:
    """Per-sample: do the first and last slabs along ``axis`` share a cluster?"""
    first = (slice(None),) * (axis + 1)
    return _joined(labels[first + (0,)], labels[first + (-1,)])


def count_connected_to(labels: np.ndarray, seeds, sites) -> np.ndarray:
    """Per-sample count of ``sites`` sharing a cluster with ``seeds``.

    Both index a site set as ``np.nonzero`` of its mask does.
    """
    flags = _flags(labels[(slice(None), *seeds)])
    return flags.take(labels[(slice(None), *sites)], mode="clip").sum(axis=1, dtype=np.int64)


def largest_count(labels: np.ndarray) -> np.ndarray:
    """Per-sample size of the largest cluster of labels whose values are unique per sample.

    A sample's clusters lie in it, so each sample is counted alone: its copy
    and int64 cast stay one sample's size, where a count over a whole C_1
    batch would take about 12 bytes per vertex beyond the batch budget.
    """
    return np.array([np.bincount(g.ravel())[1:].max(initial=0) for g in labels], dtype=np.int64)
