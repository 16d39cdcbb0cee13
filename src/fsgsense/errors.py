"""Exception hierarchy shared across the package.

The CLI maps InfeasibleError to exit 2 and every other FsgSenseError to
exit 3.
"""


class FsgSenseError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FsgSenseError):
    """An argument lies outside the domain of an operation."""


class InfeasibleError(FsgSenseError):
    """No isothermal state exists for the requested photon budget."""


class NumericalError(FsgSenseError):
    """A computation has no usable result: a search did not converge, a
    Fisher matrix is singular or vanishes, a quantity is 0/0, or a
    covariance matrix is not physical."""
