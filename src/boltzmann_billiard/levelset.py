"""Joint level sets of the energy and the second integral, in wall coordinates.

A collision is recorded as a configuration point: the wall abscissa x of
the bounce point (x, 1) together with the eccentricity vector (A1, A2) of
the Kepler conic the particle leaves on.  For fixed integrals (D, E) these
points satisfy two equations,

    circle:  A1^2 + A2^2 - 4 E A2 = 1 + 2 D E
    wall:    x^2 + 1 = (A2 + D - A1 x)^2

which cut out a genus-one curve.  This module derives the curve data
(radius R, squared modulus k2, branch value s0, scale C, period lattice)
and classifies the shape of the real locus.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .elliptic import complete_K, complete_Kp, complete_Kpp
from .errors import DomainError, PoleError

BOUNDARY_TOL = 1e-9  # absolute tolerance on D^2-4, R^2, D+2E, D+4E+2R


class RealLocusClass(enum.Enum):
    """Shape of the real locus of a level set."""

    I = "I"                          # |D| < 2: one component
    II_PLUS = "IIplus"               # D > 2: two components, swapped by the map
    II_MINUS = "IIminus"             # D < -2: two components, each preserved
    EMPTY = "Empty"
    DEGENERATE_TANGENT = "DegenerateTangent"          # D + 2E = 0
    NODAL_D = "NodalD"                                # D^2 = 4
    NODAL_R = "NodalR"                                # R^2 = 0
    NEGATIVE_SIDE = "NegativeAngularMomentumSide"     # D + 2E < 0, sign-mapped


NONDEGENERATE = frozenset(
    {RealLocusClass.I, RealLocusClass.II_PLUS, RealLocusClass.II_MINUS}
)


@dataclass(frozen=True)
class LatticeData:
    """Period lattice of the uniformizing plane.

    One-component sets have the rhombic generators 2K + 2iK'' and its
    negated conjugate; two-component sets have the rectangular generators
    4K and 2iK'.  Unused quarter periods are None.
    """

    K: float
    Kp: float | None
    Kpp: float | None


@dataclass(frozen=True)
class ConfigPoint:
    """A wall collision: abscissa x of the bounce point and conic (A1, A2)."""

    x: float
    A1: float
    A2: float

    def z(self, params: "LevelSetParams") -> float:
        """Linearized wall coordinate (1 - A1^2) x + A1 (A2 + D).

        Its square equals A1^2 + (A2+D)^2 - 1 on the level set, and it is
        sqrt(D + 2E) times the angular momentum of the outgoing branch.
        """
        return (1.0 - self.A1 * self.A1) * self.x + self.A1 * (self.A2 + params.D)

    def L(self, params: "LevelSetParams") -> float:
        """Angular momentum of the outgoing branch at this point."""
        s = params.D + 2.0 * params.E
        if s <= 0.0:
            raise DomainError("L accessor needs D + 2E > 0")
        return self.z(params) / math.sqrt(s)


@dataclass(frozen=True)
class LevelSetParams:
    """Derived data of a level set X(D, E).

    Degenerate classes carry NaN in fields that are not defined for them.
    """

    D: float
    E: float
    cls: RealLocusClass
    R: float
    k2: float
    s0: float
    s0_inv: float
    C2: float
    C: float
    lattice: LatticeData | None = None

    @property
    def mirror(self) -> "LevelSetParams | None":
        """Parameters of the sign-mapped point (-D, -E) when D + 2E < 0, else None.

        Derived on access, so a point whose mirror cannot be derived still
        classifies.
        """
        if self.cls is RealLocusClass.NEGATIVE_SIDE:
            return derive_params(-self.D, -self.E)
        return None

    @property
    def nondegenerate(self) -> bool:
        return self.cls in NONDEGENERATE

    @property
    def ell(self) -> float:
        if not self.k2 < 0.0:
            raise DomainError("ell is defined for k2 < 0 only")
        return math.sqrt(-self.k2)


def derive_params(D: float, E: float) -> LevelSetParams:
    """Classify (D, E) and derive the level-set curve data.

    Boundary bands of width BOUNDARY_TOL (absolute, on D+2E, R^2, |D|-2 and
    D+4E+2R) classify as the corresponding degenerate class.  For
    D + 2E < 0 the sign symmetry (D, E, A) -> (-D, -E, -A) applies; the
    mapped parameters are the mirror property.
    """
    D = float(D)
    E = float(E)
    if not (math.isfinite(D) and math.isfinite(E)):
        raise DomainError(f"D and E must be finite (got D={D!r}, E={E!r})")
    nan = float("nan")
    s = D + 2.0 * E
    if abs(s) < BOUNDARY_TOL:
        return LevelSetParams(D, E, RealLocusClass.DEGENERATE_TANGENT,
                              nan, nan, nan, nan, nan, nan)
    if s < 0.0:
        return LevelSetParams(D, E, RealLocusClass.NEGATIVE_SIDE,
                              nan, nan, nan, nan, nan, nan)
    R2 = 1.0 + 2.0 * D * E + 4.0 * E * E
    if abs(R2) < BOUNDARY_TOL:
        return LevelSetParams(D, E, RealLocusClass.NODAL_R,
                              0.0, nan, nan, nan, nan, nan)
    if R2 < 0.0:
        return LevelSetParams(D, E, RealLocusClass.EMPTY,
                              nan, nan, nan, nan, nan, nan)
    R = math.sqrt(R2)
    if abs(abs(D) - 2.0) < BOUNDARY_TOL:
        return LevelSetParams(D, E, RealLocusClass.NODAL_D,
                              R, nan, nan, nan, nan, nan)
    den = D + 4.0 * E + 2.0 * R
    if abs(den) < BOUNDARY_TOL:
        # den = 0 forces D^2 = 4, so this band is the nodal one as well
        return LevelSetParams(D, E, RealLocusClass.NODAL_D,
                              R, nan, nan, nan, nan, nan)
    if den < 0.0:
        return LevelSetParams(D, E, RealLocusClass.EMPTY,
                              R, nan, nan, nan, nan, nan)
    k2 = (D + 4.0 * E - 2.0 * R) / den
    s0_inv = (s - R) / (s + R)
    s0 = math.inf if s0_inv == 0.0 else 1.0 / s0_inv
    C2 = s * den
    C = math.sqrt(C2)
    if abs(D) < 2.0:
        cls = RealLocusClass.I
        K = complete_K(k2)
        Kpp = complete_Kpp(k2)
        lattice = LatticeData(K, None, Kpp)
    else:
        cls = RealLocusClass.II_PLUS if D > 2.0 else RealLocusClass.II_MINUS
        K = complete_K(k2)
        Kp = complete_Kp(k2)
        lattice = LatticeData(K, Kp, None)
    return LevelSetParams(D, E, cls, R, k2, s0, s0_inv, C2, C, lattice=lattice)


def is_nonempty(params: LevelSetParams) -> bool:
    """Whether the real locus is non-empty: D + 4E + 2R > 0.

    Assumes R > 0 and D + 2E > 0 (automatic for D < 2 or E >= 0).
    """
    if not (params.R > 0.0 and params.D + 2.0 * params.E > 0.0):
        raise DomainError("emptiness test assumes R > 0 and D + 2E > 0")
    return params.D + 4.0 * params.E + 2.0 * params.R > 0.0


def circle_residual(c: ConfigPoint, params: LevelSetParams) -> float:
    """Absolute defect of the eccentricity-circle equation."""
    return abs(c.A1 * c.A1 + c.A2 * c.A2 - 4.0 * params.E * c.A2
               - 1.0 - 2.0 * params.D * params.E)


def wall_residual(c: ConfigPoint, params: LevelSetParams) -> float:
    """Relative defect of the wall equation (scaled so large x stays fair)."""
    w = c.A2 + params.D - c.A1 * c.x
    num = abs(c.x * c.x + 1.0 - w * w)
    return num / max(1.0, c.x * c.x + 1.0, w * w)


def level_set_residual(c: ConfigPoint, params: LevelSetParams) -> float:
    return max(circle_residual(c, params), wall_residual(c, params))


def implied_invariants(c: ConfigPoint, params: LevelSetParams) -> tuple[float, float]:
    """Recompute (D, E) from the point alone, via the wall and circle equations.

    The wall equation is quadratic in D (two sheets for hyperbolic conics);
    the sheet is resolved toward the reference parameters, so the returned
    values measure drift, not sheet jumps.
    """
    r = math.hypot(c.x, 1.0)
    w_ref = c.A2 + params.D - c.A1 * c.x
    D_impl = math.copysign(r, w_ref) + c.A1 * c.x - c.A2
    L2 = params.D + 2.0 * c.A2
    if abs(L2) < 1e-15:
        return D_impl, math.nan
    E_impl = (c.A1 * c.A1 + c.A2 * c.A2 - 1.0) / (2.0 * L2)
    return D_impl, E_impl


def other_wall_root(x: float, A1: float, A2: float, D: float) -> float:
    """The second root of the wall equation for the same conic.

    The roots satisfy sum = -2 A1 (A2+D)/(1-A1^2) and product
    (1 - (A2+D)^2)/(1-A1^2); whichever form is better conditioned for the
    root being computed is used.  A1^2 = 1 puts the second root at
    infinity (conic axis parallel to the wall) and raises PoleError.
    """
    w = A2 + D
    den = 1.0 - A1 * A1
    if den == 0.0:
        raise PoleError("second wall intersection at infinity (A1^2 = 1)")
    ssum = -2.0 * w * A1 / den
    if not math.isfinite(ssum):
        raise PoleError("second wall intersection at infinity (A1^2 = 1)")
    if x != 0.0 and abs(x) > 0.5 * abs(ssum):
        return (1.0 - w * w) / den / x
    return ssum - x


def _reflect(x, A1, A2, E):
    """(A1, A2) of the conic reflected at wall abscissa x.

    This is the involution j of the collision map.  Plain arithmetic only,
    so it serves floats and numpy arrays alike.
    """
    q = x * x + 1.0
    co = (x * x - 1.0) / q
    si = 2.0 * x / q
    e4 = 4.0 * E * x / q
    return co * A1 - si * A2 + e4, -si * A1 - co * A2 + e4 * x


def wall_abscissa_from_z(z: float, A1: float, A2: float, D: float) -> float:
    """Invert the linear relation z = (1 - A1^2) x + A1 (A2 + D) for x."""
    den = 1.0 - A1 * A1
    if abs(den) < 1e-12:
        raise PoleError("wall abscissa at infinity (A1^2 = 1)")
    return (z - A1 * (A2 + D)) / den


def project_onto_level_set(c: ConfigPoint, params: LevelSetParams,
                           max_steps: int = 2) -> ConfigPoint:
    """Gauss-Newton projection onto the circle and wall equations.

    Takes the minimum-norm correction in (x, A1, A2); one step is already
    quadratically accurate, a second mops up rounding.
    """
    x, A1, A2 = c.x, c.A1, c.A2
    D, E = params.D, params.E
    for _ in range(max_steps):
        f1 = A1 * A1 + A2 * A2 - 4.0 * E * A2 - 1.0 - 2.0 * D * E
        w = A2 + D - A1 * x
        f2 = x * x + 1.0 - w * w
        if abs(f1) + abs(f2) < 1e-15:
            break
        # rows of the Jacobian of (f1, f2) in (x, A1, A2)
        j1 = (0.0, 2.0 * A1, 2.0 * A2 - 4.0 * E)
        j2 = (2.0 * x + 2.0 * w * A1, 2.0 * w * x, -2.0 * w)
        g11 = sum(v * v for v in j1)
        g12 = sum(a * b for a, b in zip(j1, j2))
        g22 = sum(v * v for v in j2)
        det = g11 * g22 - g12 * g12
        if det == 0.0:
            break
        l1 = (f1 * g22 - f2 * g12) / det
        l2 = (f2 * g11 - f1 * g12) / det
        x -= j1[0] * l1 + j2[0] * l2
        A1 -= j1[1] * l1 + j2[1] * l2
        A2 -= j1[2] * l1 + j2[2] * l2
    return ConfigPoint(x, A1, A2)
