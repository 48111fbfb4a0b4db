"""Exception hierarchy shared across the package."""


class HeavywalkError(Exception):
    """Base class for all package-specific errors."""


class PoleError(HeavywalkError):
    """Argument is (numerically) at a pole of a special function."""


class DomainError(HeavywalkError):
    """Arguments outside the stated validity range of an operation."""


class ConvergenceError(HeavywalkError):
    """Adaptive quadrature hit its subdivision limit."""


class DivergentError(HeavywalkError):
    """The requested expectation / integral does not converge."""


class NoRootError(HeavywalkError):
    """Root bracket has the same sign at both ends (transient side)."""


class InfeasibleDrift(HeavywalkError):
    """No valid light-component mean reproduces the drift target."""

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x


class InfeasibleWeight(HeavywalkError):
    """Mixture weights / tail constants cannot form a probability law."""


class InsufficientDataError(HeavywalkError):
    """Too few usable grid points for the survival regression."""


class ConfigError(HeavywalkError):
    """Invalid run configuration (CLI exit code 2)."""
