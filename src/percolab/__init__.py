"""percolab: a desk-scale laboratory for critical percolation cluster statistics."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    LatticeKind,
    LatticeSpec,
    Region,
    Site,
    TRIANGULAR,
    Z2_BOND,
    box_sites,
    box_with_boundary,
    linf_distance,
    rect_region,
)
from .sampler import Config, derive_stream, sample_config  # noqa: F401
from .growth import (  # noqa: F401
    Blob,
    GrowthRecord,
    blobs,
    check_radius_bound,
    count_upper_bound,
    grow_tree,
    merge_radii,
    ordering_count,
    prob_upper_bound,
)
from .estimators import (  # noqa: F401
    Estimate,
    PiTable,
    build_pi_table,
    check_quasi_mult,
    estimate_pi,
    fit_arm_exponent,
    vn_sample,
)
from .bounds import (  # noqa: F401
    BoundParams,
    generating_fn_bound,
    multinomial_constant,
)
from .lowerbound import (  # noqa: F401
    EventSpec,
    estimate_rsw_constant,
    fkg_check,
    lower_construction,
    lower_tail_estimate,
    vn_lower_constants,
)
