"""Lattice geometry: boxes, outer boundaries, adjacency, Chebyshev distance.

Two lattice kinds are supported:

* ``Z_BOND`` -- bond percolation on Z^d (d >= 2), nearest-neighbour adjacency.
* ``TRIANGULAR_SITE`` -- site percolation on the triangular lattice, realised
  as Z^2 with six neighbours: (+-1, 0), (0, +-1), (1, 1) and (-1, -1).

Sites are plain tuples of ints.  A region, a finite set of sites, is a value
``Region(origin, mask)``: a read-only boolean mask over the region's bounding
box, whose cell ``i`` is the site ``origin + i``.  Boxes and rectangles are
full masks, a boundary (``boundary``, ``ring`` of a mask) is one dilation by
the lattice adjacency, and subset tests are mask operations.  Any region can
serve as a raster: ``mask_in`` and ``slices_in`` place another region in its
bounding box and raise ``ValueError`` when it does not fit.  A region iterates
its sites in lexicographic order.  All distances used by the growth process are
L-infinity (Chebyshev), independent of the lattice kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np
from scipy import ndimage

Site = tuple[int, ...]


class LatticeKind(str, Enum):
    Z_BOND = "z_bond"
    TRIANGULAR_SITE = "triangular_site"


_TRI_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice kind plus ambient dimension."""

    kind: LatticeKind
    d: int = 2

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if self.kind == LatticeKind.TRIANGULAR_SITE and self.d != 2:
            raise ValueError("triangular site lattice is two-dimensional")

    @property
    def site_mode(self) -> bool:
        return self.kind == LatticeKind.TRIANGULAR_SITE

    def neighbor_offsets(self) -> tuple[Site, ...]:
        if self.kind == LatticeKind.TRIANGULAR_SITE:
            return _TRI_OFFSETS
        offsets = []
        for axis in range(self.d):
            for sign in (1, -1):
                off = [0] * self.d
                off[axis] = sign
                offsets.append(tuple(off))
        return tuple(offsets)


TRIANGULAR = LatticeSpec(LatticeKind.TRIANGULAR_SITE, 2)
Z2_BOND = LatticeSpec(LatticeKind.Z_BOND, 2)


@dataclass(frozen=True, eq=False)
class Region:
    """A finite set of sites: cell ``i`` of the boolean ``mask`` is the site ``origin + i``.

    The mask is trimmed to the bounding box of its sites and stored read-only,
    so two regions are equal when their sites are.  An empty region has an
    empty mask at the zero origin and keeps its dimension.
    """

    origin: Site
    mask: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        d = mask.ndim
        if d != len(self.origin):
            raise ValueError("origin and mask must share one dimension")
        if mask.any():
            hits = [np.flatnonzero(mask.any(axis=tuple(b for b in range(d) if b != a))) for a in range(d)]
            box = tuple(slice(int(h[0]), int(h[-1]) + 1) for h in hits)
            origin = tuple(int(o) + s.start for o, s in zip(self.origin, box))
            mask = mask[box].copy()
        else:
            origin, mask = (0,) * d, np.zeros((0,) * d, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "mask", mask)

    @property
    def d(self) -> int:
        return len(self.origin)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mask.shape

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __contains__(self, site: Site) -> bool:
        return len(site) == self.d and box_sites(site, 0) <= self

    def __iter__(self):
        return map(tuple, self.to_json())

    def __eq__(self, other: object) -> bool:
        same_box = isinstance(other, Region) and self.origin == other.origin
        return same_box and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash((self.origin, self.shape, self.mask.tobytes()))

    def __le__(self, other: Region) -> bool:
        """Subset test."""
        try:
            return not (self.mask_in(other) & ~other.mask).any()
        except ValueError:
            return False

    def slices_in(self, raster: Region) -> tuple[slice, ...]:
        """The region's bounding box as slices of the bounding box of ``raster``, which must hold it."""
        lo = tuple(a - b for a, b in zip(self.origin, raster.origin))
        if self.mask.size and any(l < 0 or l + s > n for l, s, n in zip(lo, self.shape, raster.shape)):
            raise ValueError("region escapes the raster bounding box")
        return tuple(slice(l, l + s) for l, s in zip(lo, self.shape))

    def mask_in(self, raster: Region) -> np.ndarray:
        """The region as a mask over the bounding box of ``raster``, which must hold it."""
        out = np.zeros(raster.shape, dtype=bool)
        out[self.slices_in(raster)] = self.mask
        return out

    def to_json(self) -> list[list[int]]:
        """Sorted site list (C order of the mask is lexicographic site order)."""
        return (np.argwhere(self.mask) + np.array(self.origin, dtype=np.int64)).tolist()


@cache
def site_structure(lattice: LatticeSpec) -> np.ndarray:
    """ndimage structuring element realizing the lattice adjacency; built once, read-only."""
    s = np.zeros((3,) * lattice.d, dtype=bool)
    s[(1,) * lattice.d] = True
    for off in lattice.neighbor_offsets():
        s[tuple(1 + o for o in off)] = True
    s.flags.writeable = False
    return s


def ring(mask: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """Cells outside ``mask`` adjacent to one of its cells (within the grid)."""
    return ndimage.binary_dilation(mask, structure=site_structure(lattice)) & ~mask


def boundary(region: Region, lattice: LatticeSpec) -> Region:
    """The outer vertex boundary of ``region``: the sites outside it adjacent to one of its sites."""
    mask = np.pad(region.mask, 1)
    return Region(tuple(o - 1 for o in region.origin), ring(mask, lattice))


def box_sites(center: Site, n: int) -> Region:
    """All sites within L-infinity distance ``n`` of ``center``."""
    if n < 0:
        raise ValueError(f"box radius must be >= 0, got {n}")
    return Region(tuple(c - n for c in center), np.ones((2 * n + 1,) * len(center), dtype=bool))


def rect_region(corner: Site, widths: tuple[int, ...]) -> Region:
    """Axis-aligned rectangle: ``corner + [0, w_a]`` per axis, inclusive."""
    if len(widths) != len(corner):
        raise ValueError("corner and widths must have equal length")
    if any(w < 0 for w in widths):
        raise ValueError(f"rectangle extents must be >= 0, got {tuple(widths)}")
    return Region(tuple(corner), np.ones(tuple(w + 1 for w in widths), dtype=bool))


def linf_distance(u: Site, v: Site) -> int:
    """Chebyshev distance max_a |u_a - v_a|."""
    if len(u) != len(v):
        raise ValueError("sites must share one dimension")
    return max(abs(a - b) for a, b in zip(u, v))


def box_with_boundary(lattice: LatticeSpec, n: int) -> Region:
    """The box of radius ``n`` together with its outer boundary.

    This is the standard carrier for experiments that look at arms from inside
    the box to its boundary.
    """
    box = box_sites((0,) * lattice.d, n)
    outer = boundary(box, lattice)
    return Region(outer.origin, outer.mask | box.mask_in(outer))
