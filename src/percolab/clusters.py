"""Connectivity analytics on a configuration.

Conventions (site mode): a path is open iff every vertex on it is open,
endpoints included; an arm from a box boundary needs an open vertex on that
boundary.  Bond mode: a path is open iff every edge is open; every site
participates, so singletons count as clusters of size 1.

Arm and crossing events confine paths to the stated region closure; any path
reaching the outer boundary must cross it, so the confinement loses no
generality.

Each query labels its configuration as a batch of one with the batched
kernel of the ``grid`` module, so both lattice kinds share every code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid
from .lattice import LatticeSpec, Region, Site, box_with_boundary
from .sampler import Config


@dataclass(frozen=True)
class ClusterLabels:
    """Cluster labels over a region; 0 marks non-participating positions."""

    lattice: LatticeSpec
    origin: tuple[int, ...]
    label_grid: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    def label_of(self, site: Site) -> int:
        idx = tuple(c - o for c, o in zip(site, self.origin))
        return int(self.label_grid[idx])

    def n_clusters(self) -> int:
        return len(self.sizes)


def _require_subregion(config: Config, region: Region) -> None:
    if not region.sites <= config.region.sites:
        raise ValueError("region escapes the configuration carrier")


def _labels_on_mask(config: Config, mask: np.ndarray) -> np.ndarray:
    """Vertex labels, as a batch of one, for paths confined to ``mask``."""
    cells = config.cells & grid.cell_mask(config.lattice, mask)
    return grid.label_sites_batch(cells[None], config.lattice)


def label_clusters(config: Config, region: Region) -> ClusterLabels:
    """Connected clusters with paths confined to ``region``."""
    _require_subregion(config, region)
    lab = _labels_on_mask(config, config.raster.mask_of_region(region))[0]
    sizes = grid.cluster_sizes_single(lab)
    return ClusterLabels(config.lattice, config.raster.origin, lab, sizes)


def ith_largest_size(labels: ClusterLabels, i: int) -> int:
    """Size of the i-th largest cluster; 0 if there are fewer than i."""
    if i < 1:
        raise ValueError("i must be >= 1")
    if i > len(labels.sizes):
        return 0
    return int(labels.sizes[i - 1])


def long_arm_set(config: Config, n: int) -> Region:
    """Sites of the inner box connected to the boundary of the doubled box.

    Paths are confined to box(2n) plus its outer boundary; the carrier must
    cover that set.
    """
    lattice = config.lattice
    needed = box_with_boundary(lattice, 2 * n)
    if not needed.sites <= config.region.sites:
        raise ValueError("carrier too small: need box(2n) plus boundary")
    raster = config.raster
    center = (0,) * lattice.d
    lab = _labels_on_mask(config, raster.mask_of_region(needed))
    flags = grid.seed_flags(lab, raster.boundary_mask(center, 2 * n))
    coords = np.argwhere(flags[lab[0]] & raster.box_mask(center, n))
    sites = frozenset(tuple(int(c + o) for c, o in zip(row, raster.origin)) for row in coords)
    return Region(sites, dim=lattice.d)


def arm_event(config: Config, m: int, n: int) -> bool:
    """Open path from the boundary of box(m) to the boundary of box(n).

    Paths confined to box(n) plus its outer boundary.  By convention the
    event is True when m == n.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m} n={n}")
    if m == n:
        return True
    lattice = config.lattice
    needed = box_with_boundary(lattice, n)
    if not needed.sites <= config.region.sites:
        raise ValueError("carrier too small: need box(n) plus boundary")
    raster = config.raster
    center = (0,) * lattice.d
    lab = _labels_on_mask(config, raster.mask_of_region(needed))
    a = raster.boundary_mask(center, m)
    b = raster.boundary_mask(center, n)
    return bool(grid.connect_through(lab, a, b)[0])


def _crossing(config: Config, rect: Region, axis: int) -> bool:
    if rect.shape != "rect" or rect.origin is None or rect.extent is None:
        raise ValueError("crossing events need a rectangle region")
    if config.lattice.d != 2:
        raise ValueError("crossing events are two-dimensional")
    _require_subregion(config, rect)
    sl = grid.cell_slices(config.lattice, config.raster.rect_slices(rect.origin, rect.extent))
    lab = grid.label_sites_batch(config.cells[sl][None], config.lattice)
    return bool(grid.crossing(lab, axis)[0])


def horizontal_crossing(config: Config, rect: Region) -> bool:
    """Left edge column connected to right edge column inside the rectangle."""
    return _crossing(config, rect, axis=0)


def vertical_crossing(config: Config, rect: Region) -> bool:
    """Bottom edge row connected to top edge row inside the rectangle."""
    return _crossing(config, rect, axis=1)


def connected_in(config: Config, s: Region, a: Region, b: Region) -> bool:
    """Some a in A joined to some b in B by an open path inside S."""
    _require_subregion(config, s)
    mask = config.raster.mask_of_region(s)
    lab = _labels_on_mask(config, mask)
    am = config.raster.mask_of_region(a) & mask
    bm = config.raster.mask_of_region(b) & mask
    return bool(grid.connect_through(lab, am, bm)[0])
