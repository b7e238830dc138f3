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
    neighbors,
    outer_boundary,
    rect_region,
)
from .sampler import Config, derive_stream, sample_config  # noqa: F401
from .clusters import (  # noqa: F401
    ClusterLabels,
    arm_event,
    connected_in,
    horizontal_crossing,
    ith_largest_size,
    label_clusters,
    long_arm_set,
    vertical_crossing,
)
from .growth import (  # noqa: F401
    Blob,
    GrowthRecord,
    blob_boundaries,
    blob_region,
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
    bcks_bound,
    generating_fn_bound,
    main_bounds,
    markov_threshold_bound,
    moment_bound,
    multinomial_constant,
    power_product_constant,
    sum_pi_bound,
    triangular_tail,
)
from .lowerbound import (  # noqa: F401
    EventSpec,
    GluingOutcome,
    dn_event,
    estimate_rsw_constant,
    fkg_check,
    gluing_check,
    lower_construction,
    lower_tail_estimate,
    vn_lower_constants,
)
