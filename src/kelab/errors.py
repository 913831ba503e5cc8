"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
plain ValueError is reserved for programming errors (bad argument types,
out-of-range orders and the like).
"""


class KelabError(Exception):
    """Base class for all package-specific errors."""


class MembershipError(KelabError):
    """A point lies outside the domain it was used with."""


class EvaluationError(KelabError):
    """A function produced a non-finite or singular value.

    Carries the offending point in ``args`` so finite-difference stencils
    can report exactly where an evaluation broke down.
    """


class UnsupportedOrderError(KelabError):
    """A derivative order exceeds what a potential implements in closed form."""


class UnsupportedDomainError(KelabError):
    """An operation is not available for this domain kind."""


class UnsupportedPointError(KelabError):
    """A point is outside the slice or chart an operation is defined on."""


class SingularTransformError(KelabError):
    """A coordinate transform hit one of its singular points."""


class DegenerateMetricError(KelabError):
    """The complex Hessian of a potential failed to be positive definite."""


class NormalizationError(KelabError):
    """Two objects that must share a normalization (e.g. the Ricci constant)
    do not."""


class CertificateError(KelabError):
    """A constant-gradient-length certificate is missing or failed."""


class FlowExitError(KelabError):
    """An integrated trajectory left the domain; carries the exit time."""

    def __init__(self, message, time):
        super().__init__(message)
        self.time = time


class BracketingError(KelabError):
    """A shooting bracket does not straddle the target solution."""


class ResolutionError(KelabError):
    """A grid is too coarse for the requested extrapolation."""


class ConfigError(KelabError):
    """A verification-suite configuration is invalid."""
