"""Exact secant-plane and flow-limit computations for rank-2 twisted Higgs
bundles on odd hyperelliptic curves.

Everything is exact rational arithmetic; nothing here uses floating point.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .curve import (  # noqa: F401
    CurveFunction,
    CurvePoint,
    Divisor,
    HyperellipticCurve,
    INF,
    JetVector,
    SectionSpace,
    h1_dim,
    jet,
    make_curve,
    riemann_roch_space,
    standard_curve,
    valuation,
    vanishing_order,
)
from .localmodel import (  # noqa: F401
    LocalMatrix,
    LocalScalar,
    conjugated_higgs,
    flow_limit,
    gauge_factors,
    limit_vanishing_order,
    multi_point_limit,
    product_smoothness,
    trivialization_check,
    u_exponents,
)
from .morse import (  # noqa: F401
    CriticalSet,
    ModuliParams,
    critical_dim,
    critical_range,
    fibre_dim_crosscheck,
    morse_index,
    smale_check,
    strat_poset,
    stratum_codim,
    unstable_fibre_dim,
)
from .polynomials import Poly  # noqa: F401
from .resolution import (  # noqa: F401
    ChainRecord,
    CriticalPointData,
    FlowLinePoint,
    G_map,
    P_morse,
    P_sec,
    commuting_check,
    downward_limit,
    enumerate_chains,
    flow_line_point,
    make_critical_point,
    section_order,
    upward_targets,
)
from .secant import (  # noqa: F401
    BundlePair,
    DualClass,
    SecantPlane,
    StratumResult,
    embedding_matrix,
    plane_intersection,
    plane_membership,
    point_class,
    pool_divisors,
    secant_plane,
    stratum_membership,
    twist_section_space,
)
