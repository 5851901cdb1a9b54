"""Typed exceptions shared across the package."""


class CountpredError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CountpredError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(CountpredError):
    """A matrix that must be positive definite is numerically singular."""


class DivergenceError(CountpredError):
    """A linear predictor or a prediction interval overflowed.

    Raised when the exponential link overflows, or when an interval
    comes out with a non-finite bound or a negative variance.  A linear
    predictor above 700 comes from the data or from an extrapolation; it
    is the same in every column basis, so standardizing cannot prevent it.
    """


class NonConvergenceError(CountpredError):
    """An iteration exhausted its budget.

    Newton-Raphson carries its last iterate so callers can inspect it;
    the Poisson tail sum of ``special.poisson_cdf`` carries none.
    """

    def __init__(self, message, theta=None, iterations=None):
        super().__init__(message)
        self.theta = theta
        self.iterations = iterations


class DesignError(CountpredError):
    """The design matrix cannot be built as requested."""


class MomentFailure(CountpredError):
    """Gamma moment matching is unidentified: sample variance <= sample mean."""


class DiagnosticsError(CountpredError):
    """A residual contingency table has an expected cell count of zero."""


class DataError(CountpredError):
    """An input data file violates the expected layout.

    ``line`` is the 1-based line number of the offending row when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class AdjustmentError(CountpredError):
    """A recorded one-time adjustment is inconsistent with the series."""


class HorizonError(CountpredError):
    """Forecast target exceeds the configured maximum horizon."""
