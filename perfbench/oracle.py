"""Independent reference values for the benchmark's correctness checks.

Nothing here imports the package.  Level-set classes follow the inequality
table of the README, and rotation numbers come from the closed form of the
paper evaluated with mpmath at 30 digits, so an error in the package's own
AGM / Carlson layer cannot hide itself.
"""

from __future__ import annotations

import math

import mpmath

BOUNDARY_TOL = 1e-9  # width of the degenerate bands, as documented by derive_params

NONDEGENERATE = ("I", "IIplus", "IIminus")


def classify(D: float, E: float) -> str:
    """Level-set class of (D, E) by the README table, boundary bands first."""
    s = D + 2.0 * E
    if abs(s) < BOUNDARY_TOL:
        return "DegenerateTangent"
    if s < 0.0:
        return "NegativeAngularMomentumSide"
    R2 = 1.0 + 2.0 * D * E + 4.0 * E * E
    if abs(R2) < BOUNDARY_TOL:
        return "NodalR"
    if R2 < 0.0:
        return "Empty"
    if abs(abs(D) - 2.0) < BOUNDARY_TOL:
        return "NodalD"
    den = D + 4.0 * E + 2.0 * math.sqrt(R2)
    if abs(den) < BOUNDARY_TOL:
        return "NodalD"
    if den < 0.0:  # real locus empty: D + 4E + 2R <= 0
        return "Empty"
    if abs(D) < 2.0:
        return "I"
    return "IIplus" if D > 2.0 else "IIminus"


def alpha(D: float, E: float) -> float:
    """Rotation number in [0, 1) of a nondegenerate level set.

    Class I:  alpha = -F(arccos(-1/s0) | kap2) / (4 K(kap2)),  kap2 = 1/(1-k2).
    Class II: alpha = +-F(arccos(1/|s0|) | 1/mc) / (2 sqrt(mc) K(mc)),  mc = 1-k2,
    with + on IIplus and - on IIminus (the orientation the package documents).
    """
    with mpmath.workdps(30):
        D = mpmath.mpf(D)
        E = mpmath.mpf(E)
        s = D + 2 * E
        R = mpmath.sqrt(1 + 2 * D * E + 4 * E * E)
        den = D + 4 * E + 2 * R
        k2 = (D + 4 * E - 2 * R) / den
        s0_inv = (s - R) / (s + R)
        if abs(D) < 2:
            kap2 = 1 / (1 - k2)
            a = -mpmath.ellipf(mpmath.acos(-s0_inv), kap2) / (4 * mpmath.ellipk(kap2))
        else:
            mc = 1 - k2
            seg = mpmath.ellipf(mpmath.acos(abs(s0_inv)), 1 / mc) / mpmath.sqrt(mc)
            a = (1 if D > 2 else -1) * seg / (2 * mpmath.ellipk(mc))
        return float(mpmath.re(a) % 1)


def circle_gap(a: float, b: float) -> float:
    """Distance between two rotation numbers on the circle R/Z."""
    return abs((a - b + 0.5) % 1.0 - 0.5)
