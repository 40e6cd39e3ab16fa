"""Special functions, adaptive quadrature and controlled series summation.

Everything here is a pure function; the heavy lifting is delegated to
scipy where a mature routine meets the accuracy contract (log-gamma,
signed gamma, regularized incomplete beta, QUADPACK quadrature).  Series
summation with an alternating-tail truncation bound is implemented
directly since the stopping rule is part of the contract.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "QuadResult",
    "SeriesValue",
    "log_gamma",
    "gamma_signed",
    "integrate_adaptive",
    "reg_incomplete_beta",
    "sum_series",
]


@dataclass(frozen=True)
class QuadResult:
    """Value of a definite integral together with an error estimate."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not (self.error_estimate >= 0.0):
            raise ValueError("error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


@dataclass(frozen=True)
class SeriesValue:
    """Partial sum of a series with a bound on the omitted tail."""

    value: float
    tail_bound: float
    n_terms: int
    converged: bool

    def __post_init__(self):
        if not (self.tail_bound >= 0.0):
            raise ValueError("tail_bound must be nonnegative")
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return float(_special.gammaln(x))


def _log_expm1(x: float) -> float:
    """log(e^x - 1) for x > 0, finite wherever the result is.

    Above x = 1 it is x + log(1 - e^-x), which does not overflow at large
    x; below, e^x - 1 is formed by expm1 so small x keep their digits.
    """
    if x <= 1.0:
        return math.log(math.expm1(x))
    return x + math.log1p(-math.exp(-x))


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where it exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def gamma_signed(x: float) -> float:
    """Gamma function with correct sign for any non-pole real argument.

    Negative non-integer arguments are supported; the poles at
    0, -1, -2, ... are rejected.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma_signed requires finite x, got {x!r}")
    if x <= 0.0 and abs(x - round(x)) <= 1e-12:
        raise PoleError(f"gamma function pole at x = {x}")
    return float(_special.gamma(x))


def _quad(f, a, b, epsabs, epsrel):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _integrate.IntegrationWarning)
        value, err, info = _integrate.quad(
            f, a, b, epsabs=epsabs, epsrel=epsrel, full_output=True, limit=200
        )[:3]
    return value, err, info["neval"]


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> QuadResult:
    """Adaptive quadrature of f over [a, b]; b may be +inf.

    Integrable power-type endpoint singularities are supported.  Infinite
    upper limits are split at a finite point so the singular endpoint and
    the tail are handled by separate subdivisions.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("lower limit must be finite")

    epsabs = tol
    epsrel = max(tol, 1e-12)
    if math.isinf(b):
        split = a + 1.0
        v1, e1, n1 = _quad(f, a, split, epsabs / 2, epsrel)
        v2, e2, n2 = _quad(f, split, np.inf, epsabs / 2, epsrel)
        value, err, neval = v1 + v2, e1 + e2, n1 + n2
    else:
        value, err, neval = _quad(f, a, float(b), epsabs, epsrel)

    if not math.isfinite(value):
        raise ConvergenceError(
            "quadrature produced a non-finite value", best_estimate=value
        )
    # QUADPACK may report an error estimate modestly above epsabs for
    # singular integrands while still being accurate; only gross failures
    # are escalated, the estimate itself is always returned.
    if err > 100.0 * tol * max(1.0, abs(value)) and err > 1e-4 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}",
            best_estimate=value,
            error_estimate=err,
        )
    return QuadResult(value=value, error_estimate=err, evaluations=neval)


def reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError("shape parameters must be positive")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    return float(_special.betainc(a, b, x))


def sum_series(
    term: Callable[[int], float],
    tol: float = 1e-12,
    max_terms: int = 400,
    start: int = 0,
    tail_bound: Callable[[int], float] | None = None,
) -> SeriesValue:
    """Sum term(start) + term(start+1) + ... with truncation-error control.

    By default the tail bound after stopping at index n is |term(n+1)|,
    valid once the terms alternate in sign with decreasing magnitude; the
    sum only stops inside such an alternating regime (or when a caller
    supplied ``tail_bound`` function drops below ``tol``).  Returns
    ``converged=False`` if the bound never reaches ``tol`` within
    ``max_terms`` terms.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    if max_terms < 1:
        raise DomainError("max_terms must be >= 1")

    terms = []
    total = 0.0
    comp = 0.0  # Kahan compensation
    for k in range(max_terms):
        n = start + k
        t = float(term(n))
        terms.append(t)
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s

        if tail_bound is not None:
            bound = float(tail_bound(n))
            if bound <= tol:
                return SeriesValue(total, bound, k + 1, True)
            continue

        # Alternating-regime stop: last three terms alternate in sign with
        # decreasing magnitude, and the next term bounds the tail.
        if k >= 2:
            t0, t1, t2 = terms[-3], terms[-2], terms[-1]
            alternating = (t0 * t1 < 0.0 and t1 * t2 < 0.0) or t2 == 0.0
            decreasing = abs(t2) <= abs(t1) <= abs(t0)
            if alternating and decreasing and abs(t2) <= tol:
                return SeriesValue(total, abs(t2), k + 1, True)
        # Envelope-decay stop for series whose signs follow a longer
        # pattern (or carry rounding noise in place of exact zeros): when
        # the magnitude envelope over a block of terms halves from one
        # block to the next, the remaining tail is bounded by a geometric
        # sum of block envelopes.
        if k >= 11:
            m1 = max(abs(x) for x in terms[-6:])
            m0 = max(abs(x) for x in terms[-12:-6])
            if m1 <= 0.5 * m0 and 6.0 * m1 <= tol:
                return SeriesValue(total, 6.0 * m1, k + 1, True)
        if t == 0.0 and k == 0:
            return SeriesValue(total, 0.0, 1, True)

    last = abs(terms[-1]) if terms else 0.0
    return SeriesValue(total, last, len(terms), False)
