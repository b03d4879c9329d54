"""Joint level sets of the energy and the second integral, in wall coordinates.

A collision is recorded as a configuration point: the wall abscissa x of
the bounce point (x, 1) together with the eccentricity vector (A1, A2) of
the Kepler conic the particle leaves on.  For fixed integrals (D, E) these
points satisfy two equations,

    circle:  A1^2 + A2^2 - 4 E A2 = 1 + 2 D E
    wall:    x^2 + 1 = (A2 + D - A1 x)^2

which cut out a genus-one curve.  This module classifies the real locus
by one class table and derives the curve data (radius R, squared modulus
k2, branch value s0, scale C), shared by points and grids as plain
arithmetic on floats or numpy arrays; it computes no elliptic integral.
The residual of the two equations (each defect relative to the size of
its terms, so that it reads rounding at any x and E), the projection
onto them and the invariants a point implies are array kernels; the
single-point functions call them with one-element arrays.  Dekker's
exact product of two doubles (_two_product) lives here too, at the base
of the package, for the CSV formatter and the orbit's translated angles.

The class table is nine tests tried in a fixed order (_class_tests), each
band before the classes it separates; the first test that holds gives the
class, and IIminus is the class where none holds.  The bands have width
BOUNDARY_TOL around D + 2E = 0, R^2 = 0, |D| = 2 and D + 4E + 2R = 0.
Read in the (A1, A2) plane, the table is the relative position of the
circle C (centre (0, 2E), radius R) and the unit circle K at (0, -D) that
every wall line touches: I where they intersect, IIplus where they are
disjoint, IIminus where K lies inside C, Empty where R^2 < 0 or C lies
inside K (the one emptiness test), NegativeAngularMomentumSide where
D + 2E < 0.  Only the class table reads the bands: a degenerate set's R
follows from its class (NaN for DegenerateTangent and
NegativeAngularMomentumSide, 0 for NodalR).  The quarter periods are
computed where they are used, so a command that needs one that diverges
fails there, with the one message of complete_Kp in classes II.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

from .errors import DomainError, PoleError

BOUNDARY_TOL = 1e-9  # absolute tolerance on D^2-4, R^2, D+2E, D+4E+2R
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter


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


def _curve_terms(D, E):
    """s = D + 2E, R^2, the radius R (NaN where R^2 < 0) and den = D + 4E + 2R."""
    s = D + 2.0 * E
    R2 = 1.0 + 2.0 * D * E + 4.0 * E * E
    R = np.sqrt(R2) if isinstance(R2, np.ndarray) else math.sqrt(R2) if R2 >= 0.0 else math.nan
    return s, R2, R, D + 4.0 * E + 2.0 * R


# the class table: the class of each test of _class_tests, tried in order; II_MINUS if none holds
_TABLE_CLASSES = (
    RealLocusClass.DEGENERATE_TANGENT, RealLocusClass.NEGATIVE_SIDE,  # D + 2E = 0, < 0
    RealLocusClass.NODAL_R, RealLocusClass.EMPTY,                     # R^2 = 0, < 0
    RealLocusClass.NODAL_D,                                           # |D| = 2
    RealLocusClass.NODAL_D, RealLocusClass.EMPTY,                     # D + 4E + 2R = 0, < 0
    RealLocusClass.I, RealLocusClass.II_PLUS,                         # |D| < 2, D > 2
)


def _class_tests(D, s, R2, den):
    """The tests of the class table, one per entry of _TABLE_CLASSES."""
    return (abs(s) < BOUNDARY_TOL, s < 0.0,
            abs(R2) < BOUNDARY_TOL, R2 < 0.0,
            abs(abs(D) - 2.0) < BOUNDARY_TOL,
            abs(den) < BOUNDARY_TOL, den < 0.0,  # den = 0 forces D^2 = 4
            abs(D) < 2.0, D > 2.0)


_CLASSES = np.array(list(RealLocusClass), dtype=object)  # class code -> class
_CODE = {cls: code for code, cls in enumerate(RealLocusClass)}
_NONDEGENERATE = np.array([cls in NONDEGENERATE for cls in RealLocusClass])  # by class code


def _classify(D, E):
    """Class codes of the arrays D, E by the class table, as positions in RealLocusClass.

    Returns the codes, a mask of the nondegenerate ones and the curve
    terms s, R, den.
    """
    s, R2, R, den = _curve_terms(D, E)
    code = np.select(_class_tests(D, s, R2, den), [_CODE[cls] for cls in _TABLE_CLASSES],
                     _CODE[RealLocusClass.II_MINUS])
    return code, _NONDEGENERATE[code], s, R, den


def _classes(code: np.ndarray) -> np.ndarray:
    """The RealLocusClass members of the class codes, as an object array of their shape."""
    # through 1-d: indexing with a 0-d code array would give a bare member, not an array
    return _CLASSES[code.ravel()].reshape(code.shape)


def _k2_s0_inv(D, E, s, R, den):
    """Squared modulus k2 and inverse branch value 1/s0 from _curve_terms.

    k2 = (D + 4E - 2R)/den is written as (D - 2)(D + 2)/den^2, since
    (D + 4E)^2 - 4R^2 = D^2 - 4: the difference cancels as |D| -> 2, the product does not.
    """
    return (D - 2.0) * (D + 2.0) / (den * den), (s - R) / (s + R)


def _den(A1):
    """den = 1 - A1^2, the leading coefficient of the wall equation in x for the conic A1.

    It vanishes where the conic's axis is parallel to the wall (A1^2 = 1),
    and the wall's second intersection goes to infinity.  Plain arithmetic,
    so it serves floats and numpy arrays alike; not the curve term
    D + 4E + 2R that _curve_terms also calls den.
    """
    return 1.0 - A1 * A1


def _two_product(a, b):
    """p = fl(a * b) and e = a * b - p exactly, by Dekker's split (barring over- and underflow)."""
    p = a * b
    ah, bh = a * _SPLIT, b * _SPLIT
    ah -= ah - a
    bh -= bh - b
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _z(x, A1, A2, D):
    """Linearized wall coordinate den x + A1 (A2 + D), with den = _den(A1).

    Its square equals A1^2 + (A2+D)^2 - 1 on the level set, and it is
    sqrt(D + 2E) times the angular momentum of the outgoing branch.
    """
    return _den(A1) * x + A1 * (A2 + D)


def _L(z, D, E):
    """Angular momentum z / sqrt(D + 2E) of the outgoing branch."""
    s = D + 2.0 * E
    if s <= 0.0:
        raise DomainError("L accessor needs D + 2E > 0")
    return z / math.sqrt(s)


@dataclass(frozen=True)
class ConfigPoint:
    """A wall collision: abscissa x of the bounce point and conic (A1, A2)."""

    x: float
    A1: float
    A2: float

    def z(self, params: "LevelSetParams") -> float:
        """Linearized wall coordinate _z at this point."""
        return _z(self.x, self.A1, self.A2, params.D)

    def L(self, params: "LevelSetParams") -> float:
        """Angular momentum of the outgoing branch at this point."""
        return _L(self.z(params), params.D, params.E)


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

    @property
    def nondegenerate(self) -> bool:
        return self.cls in NONDEGENERATE


# R of the degenerate classes with no circle (NaN) or a point circle (0); the others keep theirs
_DEGENERATE_R = {RealLocusClass.DEGENERATE_TANGENT: math.nan,
                 RealLocusClass.NEGATIVE_SIDE: math.nan, RealLocusClass.NODAL_R: 0.0}


def derive_params(D: float, E: float) -> LevelSetParams:
    """Classify (D, E) by the class table and derive the level-set curve data."""
    D, E = float(D), float(E)
    if not (math.isfinite(D) and math.isfinite(E)):
        raise DomainError(f"D and E must be finite (got D={D!r}, E={E!r})")
    s, R2, R, den = _curve_terms(D, E)
    cls = next(compress(_TABLE_CLASSES, _class_tests(D, s, R2, den)), RealLocusClass.II_MINUS)
    if cls not in NONDEGENERATE:
        R = _DEGENERATE_R.get(cls, R)
        return LevelSetParams(D, E, cls, R, *(math.nan,) * 5)
    k2, s0_inv = _k2_s0_inv(D, E, s, R, den)
    s0 = math.inf if s0_inv == 0.0 else 1.0 / s0_inv
    C2 = s * den
    if not all(map(math.isfinite, (R, k2, s0_inv, C2))):
        # R^2 or s * den overflowed: there are no curve data for the integrals
        raise DomainError(f"curve data are not finite at D={D!r}, E={E!r} "
                          f"(R^2={R2!r}, k2={k2!r}, C^2={C2!r})")
    return LevelSetParams(D, E, cls, R, k2, s0, s0_inv, C2, math.sqrt(C2))


def _require_nondegenerate(params: LevelSetParams):
    if not params.nondegenerate:
        raise DomainError(f"operation needs a nondegenerate level set (class {params.cls.value})")


def _columns(c: ConfigPoint) -> np.ndarray:
    """The point c as the one-element arrays x, A1, A2 (rows of one array)."""
    return np.array([[c.x], [c.A1], [c.A2]], dtype=float)


def level_set_residual_array(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                             params: LevelSetParams) -> np.ndarray:
    """Level-set residual at every point (x, A1, A2).

    The larger of the defects of the circle and the wall equations, each
    relative to the largest of 1 and the magnitudes of its terms (A1^2,
    A2^2, |4 E A2| and |2 D E|; x^2 + 1 and w^2), so that large x and
    large E read the rounding of their terms, not its absolute size.  A NaN
    defect (a coordinate not finite, or x^2 overflowing) reads as +inf.
    """
    D, E = params.D, params.E
    with np.errstate(all="ignore"):
        a1, a2, e4, de2 = A1 * A1, A2 * A2, 4.0 * E * A2, 2.0 * D * E
        # np.fmax skips a NaN as Python's max does, and a first term of at least 1 leaves no
        # NaN or signed-zero tie where the two differ; the wall's 1 is left out, as
        # q = x^2 + 1 >= 1 and a NaN q makes the defect NaN too
        scale = np.fmax(np.fmax(np.fmax(max(1.0, abs(de2)), a1), a2), np.abs(e4))
        circle = np.abs(a1 + a2 - e4 - 1.0 - de2) / scale
        w = A2 + D - A1 * x
        q = x * x + 1.0
        wall = np.abs(q - w * w) / np.fmax(q, w * w)
        res = np.maximum(circle, wall)  # both are >= +0.0 or NaN, and np.maximum keeps a NaN
        return np.where(np.isnan(res), math.inf, res)


def level_set_residual(c: ConfigPoint, params: LevelSetParams) -> float:
    """level_set_residual_array at the single point c."""
    return float(level_set_residual_array(*_columns(c), params)[0])


def implied_invariants_array(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                             params: LevelSetParams) -> tuple[np.ndarray, np.ndarray]:
    """(D, E) recomputed from every point (x, A1, A2) alone, via the wall and circle equations.

    The wall equation is quadratic in D (two sheets for hyperbolic conics);
    the sheet is resolved toward the reference parameters, so the returned
    values measure drift, not sheet jumps.  E is NaN where |D + 2 A2| < 1e-15.
    hypot(x, 1) is math's, mapped over the elements (elliptic._each says why).
    """
    D = params.D
    with np.errstate(all="ignore"):
        r = np.fromiter(map(math.hypot, x.tolist(), repeat(1.0)), float, x.size)
        a1x = A1 * x
        D_impl = np.copysign(r, A2 + D - a1x) + a1x - A2
        L2 = D + 2.0 * A2
        E_impl = np.where(np.abs(L2) < 1e-15, np.nan, (A1 * A1 + A2 * A2 - 1.0) / (2.0 * L2))
    return D_impl, E_impl


def implied_invariants(c: ConfigPoint, params: LevelSetParams) -> tuple[float, float]:
    """implied_invariants_array at the single point c."""
    return tuple(float(v[0]) for v in implied_invariants_array(*_columns(c), params))


_AT_INFINITY = "second wall intersection at infinity (A1^2 = 1)"  # PoleError of a step


def other_wall_root(x: float, A1: float, A2: float, D: float) -> float:
    """The second root of the wall equation for the same conic.

    The roots satisfy sum = -2 A1 (A2+D)/(1-A1^2) and product
    (1 - (A2+D)^2)/(1-A1^2); whichever form is better conditioned for the
    root being computed is used.  A1^2 = 1 puts the second root at
    infinity (conic axis parallel to the wall) and raises PoleError.
    """
    w = A2 + D
    den = _den(A1)
    if den == 0.0:
        raise PoleError(_AT_INFINITY)
    ssum = -2.0 * w * A1 / den
    if not math.isfinite(ssum):
        raise PoleError(_AT_INFINITY)
    if x != 0.0 and abs(x) > 0.5 * abs(ssum):
        return (1.0 - w * w) / den / x
    return ssum - x


def _reflect(x, A1, A2, E):
    """(A1, A2) of the conic reflected at wall abscissa x.

    This is the involution j of the collision map.  Plain arithmetic only,
    so it serves floats and numpy arrays alike.  nsi is -sin: (-2x)/q is
    -(2x/q) and a + (-b) is a - b, exactly, so the doubles are those of
    the reflection written with sin, save the sign of a NaN.
    """
    x2 = x * x
    q = x2 + 1.0
    co = (x2 - 1.0) / q
    nsi = -2.0 * x / q
    e4 = 4.0 * E * x / q
    return co * A1 + nsi * A2 + e4, nsi * A1 - co * A2 + e4 * x


def project_onto_level_set_array(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                                 params: LevelSetParams
                                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Newton projection of every point (x, A1, A2) onto the circle and wall equations.

    Takes the minimum-norm correction in (x, A1, A2); one step is already
    quadratically accurate, a second mops up rounding.  A point freezes
    once |f1| + |f2| < 1e-15, or on a singular normal matrix.
    """
    D, E = params.D, params.E
    go = np.ones(np.shape(x), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(2):
            f1 = A1 * A1 + A2 * A2 - 4.0 * E * A2 - 1.0 - 2.0 * D * E
            w = A2 + D - A1 * x
            f2 = x * x + 1.0 - w * w
            go &= ~(np.abs(f1) + np.abs(f2) < 1e-15)
            if not go.any():
                break
            # the Jacobian rows of (f1, f2) in (x, A1, A2) are (0, j11, j12)
            # and (j20, j21, j22); the products of full rows are summed from 0,
            # left to right, so an infinite j20 makes g12 NaN
            j11, j12 = 2.0 * A1, 2.0 * A2 - 4.0 * E
            j20, j21, j22 = 2.0 * x + 2.0 * w * A1, 2.0 * w * x, -2.0 * w
            g11 = 0.0 + j11 * j11 + j12 * j12
            g12 = 0.0 + 0.0 * j20 + j11 * j21 + j12 * j22
            g22 = 0.0 + j20 * j20 + j21 * j21 + j22 * j22
            det = g11 * g22 - g12 * g12
            go &= det != 0.0
            l1 = (f1 * g22 - f2 * g12) / det
            l2 = (f2 * g11 - f1 * g12) / det
            x = np.where(go, x - (0.0 * l1 + j20 * l2), x)
            A1 = np.where(go, A1 - (j11 * l1 + j21 * l2), A1)
            A2 = np.where(go, A2 - (j12 * l1 + j22 * l2), A2)
    return x, A1, A2


def project_onto_level_set(c: ConfigPoint, params: LevelSetParams) -> ConfigPoint:
    """project_onto_level_set_array at the single point c."""
    return ConfigPoint(*(float(v[0]) for v in project_onto_level_set_array(*_columns(c), params)))
