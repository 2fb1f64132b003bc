"""quiverlab: exact-arithmetic toolkit for symmetric quiver varieties.

Quiver surgeries (loop addition/removal, doubled-leg replacement, framing
absorption), rational moment-map algebra, sign-definite GIT stability,
torus fixed-point candidates and chamber/face weight combinatorics.
"""

from .exactlinalg import Mat, charpoly, frac
from .quiver import Arrow, ArrowSplit, DimData, Quiver, check_symmetric, node_key
from .surgery import (
    AuxResult,
    CBResult,
    build_add,
    build_aux,
    build_rem,
    crawley_boevey,
    default_delta,
    dim_quiver_variety,
    dim_universal_nakajima,
    half_quiver,
    hgamma_data,
    lift_stability,
)
from .reps import (
    FlagReport,
    Representation,
    TauPoint,
    check_compare_moment,
    flag_check,
    gauge_transform,
    leg_stable,
    moment_map,
    p_map,
    tau_charpoly,
    zero_representation,
)
from .stability import (
    MixedSignTheta,
    SubrepWitness,
    TransferReport,
    check_stability_transfer,
    cogenerated_core,
    destabilizer_search,
    generated_closure,
    stability_report,
    verify_witness,
)
from .torus import (
    FixedCandidate,
    TorusAction,
    fixed_components,
    fixed_self_dual_check,
    self_dual_check,
)
from .envelopes import (
    Chamber,
    Face,
    WallError,
    chambers,
    faces,
    feasible_interior,
    split_N,
    stab_degree_table,
    torus_roots,
    triangle_split_check,
)

__version__ = "0.1.0"
