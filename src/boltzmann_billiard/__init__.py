"""Billiard of a Kepler-attracted particle bouncing on a flat wall.

The particle moves in an attracting inverse-square field (units chosen so
mass, coupling and wall height are all 1) and reflects elastically off the
line x2 = 1.  Collisions preserve the energy E and a second integral
D = L^2 - 2*A2 built from angular momentum and the eccentricity vector
(A1, A2), so the collision map t restricts to the (D, E) level set, a real
form of an elliptic curve.  This package classifies those level sets,
uniformizes them by Jacobi elliptic functions, computes the rotation
number of t in closed form, and verifies the all-or-nothing (Poncelet)
periodicity numerically.
"""

from .elliptic import (
    carlson_rf,
    complete_K,
    complete_Kp,
    complete_Kpp,
    jacobi_sn_cn_dn,
    legendre_F,
    legendre_F_phi,
)
from .errors import (
    ArcUnsupportedError,
    BilliardError,
    ClassChangeError,
    DomainError,
    EmptyLocusError,
    EndpointSingularityError,
    NearDegenerateError,
    OrbitAbort,
    PoleError,
)
from .grid import rotation_grid
from .kepler import (
    ConservedSet,
    PhaseState,
    conserved_quantities,
    phase_from_config,
    reflect_at_wall,
    trajectory_arc,
)
from .levelset import (
    BOUNDARY_TOL,
    ConfigPoint,
    LevelSetParams,
    RealLocusClass,
    derive_params,
    implied_invariants,
    is_nonempty,
    level_set_residual,
    other_wall_root,
    project_onto_level_set,
)
from .periods import (
    PeriodReport,
    detect_period_direct,
    empirical_rotation,
    find_periodic_locus,
    period3_residual,
    poncelet_check,
    predict_period,
    smallest_period,
)
from .poincare import (
    Orbit,
    component_curve,
    i_fixed_point,
    involution_i,
    involution_j,
    iterate_orbit,
    map_t,
    sample_level_set,
)
from .uniformize import (
    AngleCoord,
    RotationData,
    angle_of,
    dalpha_dD,
    rotation_number,
    uniformize,
)

__version__ = "0.1.0"

__all__ = [
    "AngleCoord",
    "ArcUnsupportedError",
    "BilliardError",
    "BOUNDARY_TOL",
    "ClassChangeError",
    "ConfigPoint",
    "ConservedSet",
    "DomainError",
    "EmptyLocusError",
    "EndpointSingularityError",
    "LevelSetParams",
    "NearDegenerateError",
    "Orbit",
    "OrbitAbort",
    "PeriodReport",
    "PhaseState",
    "PoleError",
    "RealLocusClass",
    "RotationData",
    "angle_of",
    "carlson_rf",
    "complete_K",
    "complete_Kp",
    "complete_Kpp",
    "component_curve",
    "conserved_quantities",
    "dalpha_dD",
    "derive_params",
    "detect_period_direct",
    "empirical_rotation",
    "find_periodic_locus",
    "i_fixed_point",
    "implied_invariants",
    "involution_i",
    "involution_j",
    "is_nonempty",
    "iterate_orbit",
    "jacobi_sn_cn_dn",
    "legendre_F",
    "legendre_F_phi",
    "level_set_residual",
    "map_t",
    "other_wall_root",
    "period3_residual",
    "phase_from_config",
    "poncelet_check",
    "predict_period",
    "project_onto_level_set",
    "reflect_at_wall",
    "rotation_grid",
    "rotation_number",
    "sample_level_set",
    "smallest_period",
    "trajectory_arc",
    "uniformize",
]
