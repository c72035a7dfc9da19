"""Exception types shared across the package."""


class WeierstrassError(Exception):
    """Base class for every error raised by this package."""


class ZeroLeadingCoefficient(WeierstrassError):
    """A polynomial cannot be normalized because its leading coefficient is zero."""


class DegreeTooSmall(WeierstrassError):
    """The method requires degree at least 2."""


class DegreeTooLarge(WeierstrassError):
    """Degree exceeds the overflow-safety cap, `DEFAULT_MAX_DEGREE`."""


class DuplicateRoots(WeierstrassError):
    """A root list contains a repeated value; only simple zeros are supported."""


class DistinctCoordinatesViolated(WeierstrassError):
    """Two coordinates of a point coincide (or are closer than the overflow floor)."""


class NonFiniteValue(WeierstrassError):
    """A computation overflowed to inf or produced nan."""


class InvalidExponent(WeierstrassError):
    """Norm exponent outside [1, inf]."""


class DomainViolation(WeierstrassError):
    """Argument outside the domain of a scalar function."""


class CertificateNotSatisfied(WeierstrassError):
    """An error bound was requested but the underlying certificate does not hold."""


class DegenerateDenominator(WeierstrassError):
    """An error-bound denominator is non-positive."""


class ConvergenceFailure(WeierstrassError):
    """An iterative scalar search exhausted its iteration cap."""


class NoSignChange(WeierstrassError):
    """Bisection was called on a bracket without a sign change."""


class ParseError(WeierstrassError):
    """A problem document is malformed."""
