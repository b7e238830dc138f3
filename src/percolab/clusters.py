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

import numpy as np

from . import grid
from .lattice import Region
from .sampler import Config


def label_clusters(config: Config, region: Region) -> np.ndarray:
    """Labels of the connected clusters with paths confined to ``region``, over the carrier's raster.

    ``region`` must lie in the carrier; 0 marks non-participating positions.
    """
    if not region <= config.region:
        raise ValueError("region escapes the carrier")
    mask = region.mask_in(config.region.origin, config.region.shape)
    cells = config.cells & grid.cell_mask(config.lattice, mask)
    return grid.label_sites_batch(grid.strip_cells(cells[None]), config.lattice)[0]
