"""Connectivity analytics on a configuration.

Conventions (site mode): a path is open iff every vertex on it is open,
endpoints included; an arm from a box boundary needs an open vertex on that
boundary.  Bond mode: a path is open iff every edge is open; every site
participates, so singletons count as clusters of size 1.

Arm and crossing events confine paths to the stated region closure; any path
reaching the outer boundary must cross it, so the confinement loses no
generality.  They read the configuration through the kernel's readers
(``estimators.read_config``): a crossing labels its rectangle, an arm event the
whole raster, as a path from box(m) meets the boundary of box(n) before leaving.

Each query labels its configuration as a batch of one with the batched
kernel of the ``grid`` module, so both lattice kinds share every code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid
from .estimators import read_config
from .lattice import LatticeSpec, Region, box_with_boundary
from .sampler import Config


@dataclass(frozen=True)
class ClusterLabels:
    """Cluster labels over a region; 0 marks non-participating positions."""

    lattice: LatticeSpec
    origin: tuple[int, ...]
    label_grid: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)


def _carrier_part(config: Config, region: Region, error="region escapes the carrier") -> np.ndarray:
    """``region`` as a mask over the configuration's raster; it must lie in the carrier."""
    if not region <= config.region:
        raise ValueError(error)
    return region.mask_in(config.region.origin, config.region.shape)


def _labels_on_mask(config: Config, mask: np.ndarray) -> np.ndarray:
    """Vertex labels, as a batch of one, for paths confined to ``mask``."""
    cells = config.cells & grid.cell_mask(config.lattice, mask)
    return grid.label_sites_batch(grid.strip_cells(cells[None]), config.lattice)


def label_clusters(config: Config, region: Region) -> ClusterLabels:
    """Connected clusters with paths confined to ``region``."""
    lab = _labels_on_mask(config, _carrier_part(config, region))[0]
    sizes = grid.cluster_sizes_single(lab)
    return ClusterLabels(config.lattice, config.region.origin, lab, sizes)


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
    needed = box_with_boundary(config.lattice, 2 * n)
    mask = _carrier_part(config, needed, "carrier too small: need box(2n) plus boundary")
    raster = config.raster
    center = (0,) * config.lattice.d
    lab = _labels_on_mask(config, mask)
    flags = grid._flags(lab[:, raster.boundary_mask(center, 2 * n)])
    return Region(raster.origin, flags.take(lab[0], mode="clip") & raster.box_mask(center, n))


def arm_event(config: Config, m: int, n: int) -> bool:
    """Open path from the boundary of box(m) to the boundary of box(n).

    Paths confined to box(n) plus its outer boundary.  By convention the
    event is True when m == n.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m} n={n}")
    if m == n:
        return True
    needed = box_with_boundary(config.lattice, n)
    _carrier_part(config, needed, "carrier too small: need box(n) plus boundary")
    return bool(read_config(config, ("arm", ((m, n),)))[0])


def _crossing(config: Config, rect: Region, axis: int) -> bool:
    if not (rect.mask.size and rect.mask.all()):
        raise ValueError("crossing events need a rectangle region")
    if config.lattice.d != 2:
        raise ValueError("crossing events are two-dimensional")
    _carrier_part(config, rect)
    widths = tuple(n - 1 for n in rect.shape)
    return bool(read_config(config, ("crossing", rect.origin, widths, axis)))


def horizontal_crossing(config: Config, rect: Region) -> bool:
    """Left edge column connected to right edge column inside the rectangle."""
    return _crossing(config, rect, axis=0)


def vertical_crossing(config: Config, rect: Region) -> bool:
    """Bottom edge row connected to top edge row inside the rectangle."""
    return _crossing(config, rect, axis=1)


def connected_in(config: Config, s: Region, a: Region, b: Region) -> bool:
    """Some a in A joined to some b in B by an open path inside S."""
    mask = _carrier_part(config, s)
    lab = _labels_on_mask(config, mask)
    frame = config.region.origin, config.region.shape
    ends = [np.nonzero(a.mask_in(*frame) & mask), np.nonzero(b.mask_in(*frame) & mask)]
    return bool(grid.connect_through(lab, ends, [(0, 1)])[0, 0])
