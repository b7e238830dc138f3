"""Deterministic seeded sampling of percolation configurations.

Element order
-------------
Site mode: carrier sites in lexicographic coordinate order (equal to C-order
of the bounding-box raster restricted to the carrier mask).

Bond mode: pairs ``(u, axis)`` where ``u`` is the lexicographically smaller
endpoint and the edge runs to ``u + e_axis``; pairs ordered site-major, axis
ascending.  Only edges with both endpoints in the carrier are elements.

Storage
-------
A configuration, and every batch of them, is a grid of open cells (see the
``grid`` module).  Site configurations are their open-site rasters.  Bond
configurations are decorated grids: carrier vertices are open cells, and the
bit of element ``(u, axis)`` lands on the edge cell ``2u + e_axis``.  The
storage changes nothing upstream of it: element order and bits are the same
as for per-axis edge arrays, and ``Config.edge_open`` still reads them so.

Bits reach the cells through the element grid (``grid.element_grid``): the
raster for sites, raster x axis for bonds, whose C order is the element
order.  Each run of consecutive elements in it is one slice copy of the batch
of bit streams; a bond batch then fills its decorated grid with one strided
copy per axis.

Randomness
----------
Replica seeds come from ``derive_stream`` (the SplitMix64 sequence of the
master seed, a platform-independent bijective 64-bit mix); ``derive_streams``
computes a range of them at once in numpy uint64, bit for bit the same.  Each
configuration reads the stream of
``numpy.random.Generator(numpy.random.Philox(key=seed))``:
one block of uniform doubles compared against ``p``, or, when ``p == 0.5``
exactly, one block of uint8 draws expanded to bits (bit ``k`` of the stream is
element ``k``, MSB-first within each byte).  numpy's ``Philox`` is the
generator; the sample layer reads its raw 64-bit words (``random_raw``) and
maps them as the ``Generator`` does:

* the uint8 draws are the little-endian bytes of the words, so one
  ``np.unpackbits`` expands a whole batch;
* the double of word ``w`` is ``(w >> 11) * 2**-53``, which is below ``p``
  exactly when ``w >> 11 < ceil(p * 2**53)``, an integer comparison.

One ``Philox`` serves a whole batch: for each seed its ``state`` is set to
key ``(seed, 0)``, a zero counter and an empty buffer, the state a fresh
``Philox(key=seed)`` starts in.  The bits are deterministic in
``(lattice, region, p, seed)``, bit for bit, across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import grid
from .lattice import TRIANGULAR, LatticeKind, LatticeSpec, Region

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def derive_stream(master_seed: int, replica_index: int) -> int:
    """Seed for replica ``replica_index``: SplitMix64 stream of the master seed."""
    if replica_index < 0:
        raise ValueError("replica_index must be >= 0")
    x = (master_seed + (replica_index + 1) * _GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_streams(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_stream(master_seed, i)`` for i in [start, stop), as uint64 in one pass.

    The SplitMix64 mix in numpy uint64, whose arithmetic wraps mod 2**64.
    """
    if start < 0:
        raise ValueError("replica_index must be >= 0")
    x = np.arange(start + 1, stop + 1, dtype=np.uint64)
    x *= np.uint64(_GAMMA)
    x += np.uint64(master_seed & _MASK64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@dataclass(frozen=True, eq=False)
class Config:
    """One sampled (or hand-built) configuration over a finite carrier.

    ``cells`` is the open-cell grid over the raster of ``region`` (see the module doc).
    Configurations compare by value; the NaN ``p`` of hand-built ones equals itself.
    """

    lattice: LatticeSpec
    region: Region
    p: float
    seed: int | None
    cells: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Config):
            return False
        same_p = self.p == other.p or (math.isnan(self.p) and math.isnan(other.p))
        same = (self.lattice, self.region, self.seed) == (other.lattice, other.region, other.seed)
        return same and same_p and np.array_equal(self.cells, other.cells)

    @property
    def site_open(self) -> np.ndarray | None:
        """Open sites over the raster (site mode only)."""
        return self.cells if self.lattice.site_mode else None

    @property
    def edge_open(self) -> tuple[np.ndarray, ...] | None:
        """Per-axis open edges (bond mode only): ``[a][u]`` is the edge u -- u + e_a."""
        return None if self.lattice.site_mode else grid.edge_arrays(self.cells, self.lattice.d)


def sample_config(lattice: LatticeSpec, region: Region, p: float, seed: int) -> Config:
    """Product-measure sample: each element open independently with probability p."""
    cells = open_cells_batch(lattice, region.mask, p, [seed])[0]
    return Config(lattice, region, p, seed, cells)


# ---------------------------------------------------------------------------
# Fast batch generation (estimator kernels; bypasses Config objects)


def _bits_batch(
    p: float, count: int, seeds: Sequence[int], buffers: grid.Buffers = grid.FRESH
) -> np.ndarray:
    """(B, count) bool: row i is the bit stream of ``seeds[i]`` (see the module doc)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    bitgen = np.random.Philox(key=0)
    state = bitgen.state  # zero counter, empty buffer; only the key changes
    key = state["state"]["key"]

    def raw_words(n: int):
        for seed in seeds:
            key[0] = seed & _MASK64
            bitgen.state = state
            yield bitgen.random_raw(n)

    if p == 0.5:
        raw = buffers.empty("raw", (len(seeds), (count + 63) // 64), "<u8")
        for i, words in enumerate(raw_words(raw.shape[1])):
            raw[i] = words
        return np.unpackbits(raw.view(np.uint8), axis=1, count=count).view(bool)
    out = np.empty((len(seeds), count), dtype=bool)
    threshold = np.uint64(math.ceil(p * 2.0**53))
    for i, words in enumerate(raw_words(count)):
        words >>= 11
        np.less(words, threshold, out=out[i])
    return out


def _element_layout(
    elements: np.ndarray, p: float, seeds: Sequence[int], out: np.ndarray, buffers: grid.Buffers
) -> np.ndarray:
    """``out``, (B,) + elements.shape bool: each seed's bits on the True entries, in C order."""
    edges = np.flatnonzero(np.diff(elements.ravel(), prepend=False, append=False))
    starts, stops = edges[0::2].tolist(), edges[1::2].tolist()
    bits = _bits_batch(p, sum(stops) - sum(starts), seeds, buffers)
    flat = out.reshape(len(seeds), -1)
    k = end = 0
    for a, b in zip(starts, stops):  # one slice copy per run of elements, the gaps closed
        flat[:, end:a] = False
        flat[:, a:b] = bits[:, k : k + b - a]
        k, end = k + b - a, b
    flat[:, end:] = False
    return out


def _cells_batch(
    lattice: LatticeSpec, carrier_mask: np.ndarray, p: float, seeds: Sequence[int],
    buffers: grid.Buffers,
) -> np.ndarray:
    elements = grid.element_grid(lattice, grid.cell_mask(lattice, carrier_mask))
    shape = (len(seeds),) + elements.shape
    if lattice.site_mode:
        return _element_layout(elements, p, seeds, buffers.empty("cells", shape, bool), buffers)
    # the element layout is dead before the batch is labeled, so it borrows the label buffer
    layout = _element_layout(elements, p, seeds, buffers.empty("labels", shape, bool), buffers)
    d = lattice.d
    out = buffers.empty("cells", (len(seeds),) + grid.cell_shape(lattice, carrier_mask.shape), bool)
    out.fill(False)
    out[(slice(None),) + grid.vertex_cells(lattice)] = carrier_mask
    for a in range(d):
        out[(slice(None),) + grid.edge_cells(d, a)] = layout[
            (slice(None),) + grid.edge_ends(d, a, 0) + (a,)
        ]
    return out


def site_open_batch(
    carrier_mask: np.ndarray, p: float, seeds: Sequence[int], buffers: grid.Buffers = grid.FRESH
) -> np.ndarray:
    """Stack of site-mode open grids, one per seed; identical to sample_config."""
    return _cells_batch(TRIANGULAR, carrier_mask, p, seeds, buffers)  # the one site lattice


def edge_open_batch(
    carrier_mask: np.ndarray, d: int, p: float, seeds: Sequence[int],
    buffers: grid.Buffers = grid.FRESH,
) -> np.ndarray:
    """Stack of bond-mode decorated grids, one per seed; identical to sample_config."""
    return _cells_batch(LatticeSpec(LatticeKind.Z_BOND, d), carrier_mask, p, seeds, buffers)


def open_cells_batch(
    lattice: LatticeSpec, carrier_mask: np.ndarray, p: float, seeds: Sequence[int],
    buffers: grid.Buffers = grid.FRESH,
) -> np.ndarray:
    """Stack of open-cell grids of either lattice kind, one per seed.

    Goes through the per-kind entry points, the sample layer's public names.
    Kept ``buffers`` hold the stack, its raw words and a bond stack's element
    layout; the next batch sampled through them overwrites all of them.
    """
    if lattice.site_mode:
        return site_open_batch(carrier_mask, p, seeds, buffers)
    return edge_open_batch(carrier_mask, lattice.d, p, seeds, buffers)
