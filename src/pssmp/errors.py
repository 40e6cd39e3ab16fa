"""Exception hierarchy shared by all modules."""


class PssmpError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PssmpError, ValueError):
    """An argument or parameter set lies outside the supported domain."""


class ConvergenceError(PssmpError, RuntimeError):
    """A quadrature or series failed to reach its tolerance.

    Carries the best available estimate so callers can decide whether
    to accept it anyway.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class NumericError(PssmpError, RuntimeError):
    """An internally inconsistent numeric result (e.g. ill-conditioned matrix)."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class ConfigurationError(PssmpError, ValueError):
    """A required configuration value is missing or inconsistent."""


class BudgetError(PssmpError, RuntimeError):
    """A simulation exceeded its path/step budget."""


class WorkerError(PssmpError, RuntimeError):
    """A worker process that simulated part of a run failed or was lost."""
