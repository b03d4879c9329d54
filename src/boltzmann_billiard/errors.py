"""Exception types shared across the package.

A degenerate level set, the empty one included, is refused with one
DomainError that names its class (levelset._require_nondegenerate).
"""


class BilliardError(Exception):
    """Base class for package-specific errors."""


class DomainError(BilliardError, ValueError):
    """Input outside the mathematical domain of an operation."""


class EndpointSingularityError(DomainError):
    """Incomplete elliptic integral evaluated at or beyond a singular endpoint."""


class PoleError(BilliardError):
    """Evaluation too close to a pole (wall point at infinity, Jacobi pole)."""


class NearDegenerateError(BilliardError):
    """Parameters too close to a degenerate locus for reliable evaluation."""


class ArcUnsupportedError(BilliardError):
    """Trajectory arc passes through infinity (only possible for E >= 0)."""


class OrbitAbort(BilliardError):
    """Orbit iteration stopped early.  Carries the valid prefix."""

    def __init__(self, message, orbit=None, step=None):
        super().__init__(message)
        self.orbit = orbit
        self.step = step
