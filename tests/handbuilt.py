"""Hand-built regions and configurations for tests: chosen sites, open sites or open edges.

Also a configuration's flat states in element order and its JSON record, which the golden pins
hash, and its cluster labels with paths confined to a region.
"""

from __future__ import annotations

import numpy as np

from percolab import grid
from percolab.lattice import LatticeSpec, Region
from percolab.sampler import Config


def region_from_sites(sites, dim: int | None = None) -> Region:
    """The region of the given sites; ``dim`` is required when there are none."""
    pts = {tuple(int(c) for c in s) for s in sites}
    dims = {len(s) for s in pts} | ({dim} if dim is not None else set())
    if len(dims) != 1:
        raise ValueError("sites must share one dimension (an empty region needs dim)")
    if not pts:
        return Region((0,) * dim, np.zeros((0,) * dim, dtype=bool))
    coords = np.array(list(pts), dtype=np.int64)
    lo = coords.min(axis=0)
    mask = np.zeros(tuple(coords.max(axis=0) - lo + 1), dtype=bool)
    mask[tuple((coords - lo).T)] = True
    return Region(tuple(lo.tolist()), mask)


def config_from_sites(lattice: LatticeSpec, region: Region, open_sites) -> Config:
    """Site-mode configuration whose open sites are ``open_sites``."""
    if not lattice.site_mode:
        raise ValueError("config_from_sites requires a site-percolation lattice")
    opened = region_from_sites(open_sites, lattice.d)
    if not opened <= region:
        raise ValueError("open sites outside region")
    return Config(lattice, region, opened.mask_in(region))


def config_from_edges(lattice: LatticeSpec, region: Region, open_edges) -> Config:
    """Bond-mode configuration whose open edges are the ``(u, v)`` pairs of ``open_edges``."""
    if lattice.site_mode:
        raise ValueError("config_from_edges requires a bond-percolation lattice")
    cells = np.zeros(grid.cell_shape(lattice, region.shape), dtype=bool)
    cells[grid.vertex_cells(lattice)] = region.mask
    for u, v in open_edges:
        if sum(abs(b - a) for a, b in zip(u, v)) != 1:
            raise ValueError(f"not a lattice edge: {u}-{v}")
        if u not in region or v not in region:
            raise ValueError(f"edge {u}-{v} outside region")
        cells[tuple(a + b - 2 * o for a, b, o in zip(u, v, region.origin))] = True
    return Config(lattice, region, cells)


def confined_labels(config: Config, region: Region) -> np.ndarray:
    """Labels of the clusters of ``config`` with paths inside ``region``, over the carrier's raster.

    The region's cells are masked, laid out as a strip of one and labelled in
    one kernel call; 0 marks positions that do not participate.  ``region``
    must lie in the carrier's bounding box.
    """
    cells = config.cells & grid.cell_mask(config.lattice, region.mask_in(config.region))
    return grid.label_sites_batch(grid.strip_cells(cells[None]), config.lattice)[0]


def element_states(config: Config) -> np.ndarray:
    """Flat open/closed states of ``config`` in the sampler's element order."""
    elements = grid.element_grid(config.lattice, grid.cell_mask(config.lattice, config.region.mask))
    return grid.element_grid(config.lattice, config.cells)[elements]


def config_json(config: Config, p: float, seed: int) -> dict:
    """The JSON record of ``config``, sampled at ``p`` and ``seed``: lattice, raster corners, p,
    seed and packed states."""
    lo = config.region.origin
    return {
        "lattice": {"kind": config.lattice.kind.value, "d": config.lattice.d},
        "region": {
            "n_sites": len(config.region),
            "lo": list(lo),
            "hi": [o + n - 1 for o, n in zip(lo, config.region.shape)],
        },
        "p": p,
        "seed": seed,
        "states_hex": np.packbits(element_states(config)).tobytes().hex(),
    }
