"""Special functions, adaptive quadrature and controlled series summation.

Everything here is a pure function; the heavy lifting is delegated to
scipy where a mature routine meets the accuracy contract (log-gamma,
QUADPACK quadrature).  Series
summation is implemented directly since its stopping rule and its bound
(truncation plus rounding) are part of the contract; every convergent
series in the package is formed, bounded and stopped there.  The one
exception, ``expfun.sup_survival_asymptotic``, sums two divergent
asymptotic expansions to their smallest term, a rule ``sum_series``
(which stops once its bound reaches a tolerance) does not have.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

from .errors import ConvergenceError, DomainError

_EPS = 2.0**-52  # double-precision machine epsilon

__all__ = [
    "QuadResult",
    "SeriesValue",
    "log_gamma",
    "integrate_adaptive",
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
            raise DomainError(
                f"error_estimate must be nonnegative, got {self.error_estimate}"
            )
        if self.evaluations < 1:
            raise DomainError(f"evaluations must be >= 1, got {self.evaluations}")


@dataclass(frozen=True)
class SeriesValue:
    """Partial sum of a series with a bound on the omitted tail."""

    value: float
    tail_bound: float
    n_terms: int
    converged: bool

    def __post_init__(self):
        if not (self.tail_bound >= 0.0):
            raise DomainError(f"tail_bound must be nonnegative, got {self.tail_bound}")
        if self.n_terms < 1:
            raise DomainError(f"n_terms must be >= 1, got {self.n_terms}")

    def scaled(self, k: float) -> SeriesValue:
        """The same sum multiplied by k: value times k, bound times |k|."""
        k = float(k)  # a numpy scalar would warn where the product overflows
        return SeriesValue(
            self.value * k, self.tail_bound * abs(k), self.n_terms, self.converged
        )


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0: -log x, to which it rounds,
    where gammaln overflows at tiny x; inf past the float range (x > ~2.56e305)."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    value = float(_special.gammaln(x))
    return -math.log(x) if value == math.inf and x < 1.0 else value


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


def sum_series(
    term: Callable[[int], tuple[float, Sequence[float]]],
    tol: float = 1e-12,
    start: int = 0,
) -> SeriesValue:
    """Sum the terms n = start, start+1, ... with truncation and rounding control.

    ``term(n)`` returns ``(factor, log_parts)``; the term is
    factor * exp(sum(log_parts)), formed here so that an exponent past the
    float range gives inf rather than an exception, and a non-finite term
    ends the sum as not converged.  Each term's rounding is estimated as
    eps |t| (sum |log_parts| + 4 + n): the exponent carries an absolute
    error of eps per unit of each part, the factor a few ulps and an angle
    growing with n.  The reported bound is the truncation bound plus these
    rounding estimates.

    The truncation bound after stopping at index n is |term(n)|, valid
    once the terms alternate in sign with decreasing magnitude; the sum
    only stops inside such an alternating regime, or once the magnitude
    envelope decays geometrically.  Returns ``converged=False`` if the
    bound never reaches ``tol`` within 400 terms.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")

    mags = []  # |term| of every term summed so far
    total = 0.0
    comp = 0.0  # Kahan compensation
    rounding = 0.0  # sum of the rounding estimates, in units of eps
    t0 = t1 = 0.0  # the two terms before t
    for k in range(400):
        n = start + k
        factor, parts = term(n)
        t = factor * _exp_or_inf(sum(parts))
        if not math.isfinite(t):
            return SeriesValue(total, math.inf, k + 1, False)
        m = abs(t)
        if m:
            rounding += m * (sum(map(abs, parts)) + 4.0 + n)
        mags.append(m)
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s

        # Alternating-regime stop: last three terms alternate in sign with
        # decreasing magnitude, and the next term bounds the tail.
        if k >= 2:
            alternating = (t0 * t1 < 0.0 and t1 * t < 0.0) or t == 0.0
            if alternating and m <= mags[-2] <= mags[-3] and m <= tol:
                return SeriesValue(total, m + _EPS * rounding, k + 1, True)
        t0, t1 = t1, t
        # Envelope-decay stop for series whose signs follow a longer
        # pattern (or carry rounding noise in place of exact zeros): when
        # the magnitude envelope over a block of terms halves from one
        # block to the next, the remaining tail is bounded by a geometric
        # sum of block envelopes.
        if k >= 11:
            m1 = max(mags[-6:])
            if m1 <= 0.5 * max(mags[-12:-6]) and 6.0 * m1 <= tol:
                return SeriesValue(total, 6.0 * m1 + _EPS * rounding, k + 1, True)
        if t == 0.0 and k == 0:
            return SeriesValue(total, 0.0, 1, True)

    return SeriesValue(total, mags[-1] + _EPS * rounding, len(mags), False)
