"""Exception hierarchy for ellharm.

Two broad families: ValidationError for bad inputs / configuration, and
NumericalError for failures detected while computing.  The CLI maps these to
exit codes 2 and 3 respectively.
"""


class EllharmError(Exception):
    """Base class for all ellharm-specific errors."""


class ValidationError(EllharmError):
    """Invalid input, configuration, or precondition violation."""


class NumericalError(EllharmError):
    """A numerical procedure failed or produced an inconsistent result."""


# --- validation ---------------------------------------------------------

class DegenerateEllipsoid(ValidationError):
    """Semiaxes are not strictly ordered a > b > c > 0 (or two coincide)."""


class RangeViolation(ValidationError):
    """An ellipsoidal coordinate lies outside its admissible interval."""


class OrderOutOfRange(ValidationError):
    """Harmonic order p outside 1..2n+1 (or degree n negative / too large)."""


class OrderingViolation(ValidationError):
    """Field point not strictly exterior to the source point's confocal shell."""


class ChargeOutsideEllipsoid(ValidationError):
    """A point charge is not strictly inside the ellipsoid."""


class SingularLowerLimit(ValidationError):
    """Second-kind integral requested at or below the branch point lambda = k."""


class BranchPointDerivative(ValidationError):
    """Derivative requested at a point where it is unbounded (|s| = h or k, or s = 0
    for a function whose radial factor vanishes there)."""


# --- numerical ----------------------------------------------------------

class NonSymmetrizable(NumericalError):
    """Tridiagonal matrix cannot be symmetrized (some off-diagonal product <= 0)."""


class NonConvergence(NumericalError):
    """An iterative or order-doubling check failed to converge."""


class RoundTripFailure(NumericalError):
    """Cartesian -> ellipsoidal -> Cartesian round trip exceeded the 1e-6
    verification tolerance (known accuracy limit of the direct transform)."""


class SingularSystem(NumericalError):
    """The boundary-element system is singular."""
