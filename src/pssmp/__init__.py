"""Numerical toolkit for the exit laws of stable-process transforms.

Closed-form overshoot densities, extrema laws, scale functions, triple
first-passage laws, two-point hitting probabilities and exponential-
functional densities for the killed and conditioned transforms of a
strictly stable process — each cross-validated against an independent
quadrature, series, or Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    NumericError,
    PssmpError,
    WorkerError,
)
from .stable import Kind, StableParams

__all__ = [
    "__version__",
    "PssmpError",
    "DomainError",
    "ConvergenceError",
    "NumericError",
    "ConfigurationError",
    "BudgetError",
    "WorkerError",
    "StableParams",
    "Kind",
]
