"""Cluster labels of one configuration, with paths confined to a region.

Conventions (site mode): a path is open iff every vertex on it is open,
endpoints included.  Bond mode: a path is open iff every edge is open; every
site participates, so singletons count as clusters of size 1.

A configuration is labelled as a batch of one with the batched kernel of the
``grid`` module, so both lattice kinds share every code path.  Arm, crossing,
V_n and D(n, u) events of one configuration are the kernel's observables,
read with ``estimators.read_config``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid
from .lattice import LatticeSpec, Region
from .sampler import Config


@dataclass(frozen=True)
class ClusterLabels:
    """Cluster labels over a region; 0 marks non-participating positions."""

    lattice: LatticeSpec
    origin: tuple[int, ...]
    label_grid: np.ndarray = field(repr=False)


def label_clusters(config: Config, region: Region) -> ClusterLabels:
    """Connected clusters with paths confined to ``region``, which must lie in the carrier."""
    if not region <= config.region:
        raise ValueError("region escapes the carrier")
    mask = region.mask_in(config.region.origin, config.region.shape)
    cells = config.cells & grid.cell_mask(config.lattice, mask)
    lab = grid.label_sites_batch(grid.strip_cells(cells[None]), config.lattice)[0]
    return ClusterLabels(config.lattice, config.region.origin, lab)
