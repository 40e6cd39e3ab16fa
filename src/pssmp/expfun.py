"""Exponential functionals: moments, Laplace transform, series densities, tails.

Two explicit cases are covered.  For the conditioned-to-stay-positive
process with no positive jumps, the exponential functional is a positive
stable variable of index 1/alpha with Laplace transform
exp(-(lambda/c)^(1/alpha)); its density and the entrance-law density
derive from the classical subordinator power series.  For the killed
process with no negative jumps, the functional is a negative power of
the running supremum of a spectrally positive stable process, whose
series density is transformed accordingly.  Both take a
``scale.SpectralCase``: UP_NEG for I, and DOWN_POS for I*, since a process
with no negative jumps creeps down to 0, so conditioning it to hit 0
continuously changes nothing (h = 0).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, rgamma

from .errors import ConvergenceError, DomainError, NumericError
from .numerics import SeriesValue, _exp_or_inf, log_gamma, sum_series
from .scale import Case, SpectralCase

__all__ = [
    "neg_moment_I",
    "laplace_I",
    "density_I",
    "entrance_moment",
    "entrance_density",
    "density_I_star",
    "density_I_star_as_printed",
    "sup_density_spectrally_positive",
    "sup_cdf",
    "sup_survival_asymptotic",
    "cdf_I_star",
    "left_mass_bound",
    "fit_loglog_slope",
    "tail_exponent_check",
]


def _require(model: SpectralCase, case: Case, what: str):
    if model.case is not case:
        raise DomainError(f"{what} is defined for the {case.value} case only")


def _moment_in_range(name: str, k: int, scale: float, log_value: float) -> float:
    """scale * e^log_value, or NumericError naming k where that is not a
    finite float (past k ~ 2.6e305 the log itself is inf or inf - inf)."""
    value = scale * _exp_or_inf(log_value)
    if not math.isfinite(value):
        raise NumericError(f"{name} at k={k:.6g} exceeds the float range")
    return value


def neg_moment_I(model: SpectralCase, k: int) -> float:
    """E(I^-k) = alpha m^k Gamma(k alpha) / (Gamma(alpha)^k (k-1)!)."""
    _require(model, Case.UP_NEG, "neg_moment_I")
    if k < 1 or int(k) != k:
        raise DomainError("k must be a positive integer")
    a, m = model.alpha, model.m
    log_value = k * math.log(m) + log_gamma(k * a) - k * log_gamma(a) - log_gamma(k)
    return _moment_in_range("E(I^-k)", k, a, log_value)


def laplace_I(model: SpectralCase, lam: float) -> float:
    """Laplace transform E(exp(-lambda I)) = exp(-(lambda/c)^(1/alpha))."""
    _require(model, Case.UP_NEG, "laplace_I")
    if not lam >= 0.0:
        raise DomainError("lambda must be nonnegative")
    return math.exp(-((lam / model.c) ** (1.0 / model.alpha)))


def density_I(model: SpectralCase, x: float) -> SeriesValue:
    """Series density of the exponential functional at x > 0.

    This is the density of the index-1/alpha positive stable law scaled
    so its Laplace transform is exp(-(lambda/c)^(1/alpha)), summed until
    its truncation bound is below 1e-10.  The series variable is
    (c x)^(-1/alpha), so very small x needs the tail asymptotics instead.

    The terms cancel as x falls: the bound reaches 1e-10 only from c x about
    0.48, 0.19 and 0.09 at alpha 1.2, 1.5 and 1.8.  Below that x the value
    is cancellation noise that can be negative (at alpha 1.5, 2.97e-5 with
    bound 1.06e-3 at x = 0.09/c, and -1.6e-5 at x = 0.0385), and only
    ``tail_bound`` bounds it.
    """
    _require(model, Case.UP_NEG, "density_I")
    if not 0.0 < x < math.inf:
        raise DomainError(f"x must be positive and finite, got {x}")
    beta = 1.0 / model.alpha
    # log z, formed from logs: z itself overflows for subnormal x.
    log_z = -beta * (math.log(model.c) + math.log(x))

    def term(n):  # Gamma(1 + n beta) sin(pi n beta) (-z)^n / n!
        return (-1.0) ** n * math.sin(math.pi * n * beta), (
            log_gamma(1.0 + n * beta),
            n * log_z,
            -log_gamma(n + 1.0),
        )

    inner = sum_series(term, tol=1e-10 * math.pi * x, start=1)
    sv = inner.scaled(-1.0 / (math.pi * x))
    if not sv.converged:
        raise ConvergenceError(
            f"density series did not converge at x={x}; use the tail asymptotics",
            best_estimate=sv.value,
            error_estimate=sv.tail_bound,
        )
    return sv


def entrance_moment(model: SpectralCase, k: int, t: float) -> float:
    """k-th moment of the entrance law at time t: (mt)^k Gamma(alpha(k+1)) / (Gamma(alpha)^(k+1) k!)."""
    _require(model, Case.UP_NEG, "entrance_moment")
    if k < 1 or int(k) != k:
        raise DomainError("k must be a positive integer")
    if not t > 0.0:
        raise DomainError("t must be positive")
    a, m = model.alpha, model.m
    log_value = (
        k * math.log(m * t)
        + log_gamma(a * (k + 1.0))
        - (k + 1.0) * log_gamma(a)
        - log_gamma(k + 1.0)
    )
    return _moment_in_range("entrance moment", k, 1.0, log_value)


def entrance_density(model: SpectralCase, t: float, x: float) -> SeriesValue:
    """Density at x of the process entered from 0, at time t.

    Defined through the exponential functional: the position at time t
    equals t/I in law with a size bias of I^-1, so
    p_t(x) = density_I(t/x) / (alpha m x).
    """
    _require(model, Case.UP_NEG, "entrance_density")
    if not (t > 0.0 and x > 0.0):
        raise DomainError("t and x must be positive")
    y = float(t) / float(x)  # as floats, an overflow is inf with no warning
    if y == math.inf:
        raise DomainError(
            f"entrance density at x={x}: t/x = {t}/{x} exceeds the float range"
        )
    return density_I(model, y).scaled(1.0 / (model.alpha * model.m * x))


def _sup_series(a: float, log_yy: float, tol: float, density: bool) -> SeriesValue:
    """CDF series sum_{n>=1} a_n yy^(alpha n - 1) of the unit-scale supremum,
    or with ``density`` its term-wise derivative in yy.

    a_n = 1/(Gamma(1-n+1/alpha) Gamma(alpha n)) is written by reflection as
    (-1)^(n+1) sin(pi/alpha)/pi Gamma(n-1/alpha)/Gamma(alpha n), whose logs
    stay finite at every n (the reciprocal gamma underflows past n = 171).
    """
    pref = math.sin(math.pi / a) / math.pi
    shift = 2.0 if density else 1.0

    def term(n):
        factor = pref if n % 2 else -pref
        if density:
            factor *= a * n - 1.0
        return factor, (
            log_gamma(n - 1.0 / a),
            (a * n - shift) * log_yy,
            -log_gamma(a * n),
        )

    return sum_series(term, tol=tol, start=1)


def _log_unit(model: SpectralCase, y: float) -> float:
    """log(y / c^(1/alpha)), the log of the unit-scale supremum variable,
    formed as a difference of logs: the quotient underflows to 0 for
    subnormal y."""
    return math.log(y) - math.log(model.c) / model.alpha


def sup_density_spectrally_positive(
    model: SpectralCase, y: float, tol: float = 1e-12
) -> SeriesValue:
    """Series density of the time-1 supremum of the spectrally positive process.

    The unit-scale series sum_n (alpha n - 1) a_n yy^(alpha n - 2), with a_n
    the coefficient of ``_sup_series``, is evaluated at yy = c^(-1/alpha) y
    with a matching Jacobian so the law scales consistently with the
    exponential functional (I = c^-1 I_unit in law); at c = 1 this is the
    quoted series verbatim.
    """
    _require(model, Case.DOWN_POS, "supremum density")
    if not y > 0.0:
        raise DomainError("y must be positive")
    a = model.alpha
    sigma = model.c ** (1.0 / a)
    return _sup_series(a, _log_unit(model, y), tol, density=True).scaled(1.0 / sigma)


def density_I_star(model: SpectralCase, x: float) -> SeriesValue:
    """Density at x of the killed process's exponential functional.

    Built by change of variables from the supremum density f:
    p(x) = (1/alpha) x^(-1-1/alpha) f(x^(-1/alpha)), summed until the
    truncation bound of p is below 1e-10.  The series in the supremum
    variable loses accuracy for small x; a convergence error then
    recommends the tail asymptotics.
    """
    _require(model, Case.DOWN_POS, "density_I_star")
    if not x > 0.0:
        raise DomainError("x must be positive")
    a, x = model.alpha, float(x)  # as a float, an overflow is inf with no warning
    y = _exp_or_inf(-math.log(x) / a)  # x^(-1/alpha)
    jac = y / (a * x)  # (1/alpha) x^(-1-1/alpha)
    if jac == math.inf:
        raise DomainError(
            f"density of I* at x={x}: the Jacobian x^(-1-1/alpha)/alpha exceeds "
            "the float range; use the small-x asymptotics"
        )
    sv = sup_density_spectrally_positive(model, y, 1e-10 / max(jac, 1.0)).scaled(jac)
    if not sv.converged:
        raise ConvergenceError(
            f"supremum series did not converge at x={x}; use the small-x asymptotics",
            best_estimate=sv.value,
            error_estimate=sv.tail_bound,
        )
    return sv


def density_I_star_as_printed(model: SpectralCase, x: float) -> SeriesValue:
    """Closed-form candidate series with exponent alpha(2 - n alpha).

    It is c^(2/alpha) f(c^(1/alpha) x^(-alpha)) for the supremum density f.
    Its leading term grows like x^(alpha(2-alpha)) as x -> inf, so it
    cannot be a probability density; exposed only so reports can show it
    next to the change-of-variables construction.
    """
    _require(model, Case.DOWN_POS, "density_I_star_as_printed")
    if not x > 0.0:
        raise DomainError("x must be positive")
    sigma = model.c ** (1.0 / model.alpha)
    f = sup_density_spectrally_positive(model, sigma * x**-model.alpha)
    return f.scaled(sigma * sigma)


def left_mass_bound(model: SpectralCase, x: float) -> float:
    """Chernoff bound on P(I <= x) from the explicit Laplace transform.

    P(I <= x) <= exp(lambda x - (lambda/c)^(1/alpha)) at the optimal
    lambda; decays like exp(-const x^(-1/(alpha-1))), so it certifies
    that the mass below a small-x series cutoff is negligible.
    """
    _require(model, Case.UP_NEG, "left_mass_bound")
    if not x > 0.0:
        raise DomainError("x must be positive")
    beta = 1.0 / model.alpha
    cb = model.c**-beta
    lam = (beta * cb / x) ** (1.0 / (1.0 - beta))
    return math.exp(min(lam * x - cb * lam**beta, 0.0))


def sup_survival_asymptotic(model: SpectralCase, y: float) -> tuple[float, float]:
    """Large-y survival P(sup > y) with a truncation-error bound.

    Both asymptotic series (powers y^(-alpha k) and y^(-1-alpha m)) are
    summed to their smallest terms; the bound is the sum of the first
    omitted term magnitudes, the standard control for alternating
    asymptotic expansions.
    """
    _require(model, Case.DOWN_POS, "sup_survival_asymptotic")
    a = model.alpha
    yy = y / model.c ** (1.0 / a)
    if not yy > 1.0:
        raise DomainError("asymptotic expansion needs y above the process scale")
    log_yy = math.log(yy)

    def sum_to_smallest(term):
        total, prev = 0.0, math.inf
        for k in range(1, 81):
            coef, t = term(k)
            if coef == 0.0:
                # A reciprocal-gamma pole annihilates this term exactly;
                # it carries no information about the envelope, skip it.
                # A term that underflows is kept: it ends the sum.
                continue
            mag = abs(t)
            if mag >= prev:
                # Stop at the smallest term; the first omitted term
                # magnitude bounds the truncation error.
                return total, mag
            total += t
            prev = mag
        return total, prev

    def term1(k):
        coef = float(rgamma(1.0 - a * k))
        return coef, math.exp(-a * k * log_yy - log_gamma(k + 1.0)) * coef

    pref = math.sin(math.pi / a) / math.pi

    def term2(m):
        gammas = float(gamma(-m - 1.0 / a)) * float(rgamma(-a * m))
        coef = pref * (-1.0) ** m * gammas
        return coef, coef * math.exp(-(1.0 + a * m) * log_yy)

    s1, b1 = sum_to_smallest(term1)
    s2, b2 = sum_to_smallest(term2)
    return -(s1 + s2), b1 + b2


_SUP_SERIES_LIMIT = 4.6  # unit-scale y beyond which the power series cancels away


def sup_cdf(model: SpectralCase, y: float) -> float:
    """P(sup <= y) for the time-1 supremum of the spectrally positive process.

    Term-by-term integral of the supremum density for moderate y; the
    large-y asymptotic expansion of the survival beyond the range where
    the power series holds up in double precision.
    """
    _require(model, Case.DOWN_POS, "sup_cdf")
    if math.isnan(y):
        raise DomainError("y must be a number")
    if y <= 0.0:
        return 0.0
    a = model.alpha
    yy = y / model.c ** (1.0 / a)
    if yy > _SUP_SERIES_LIMIT:
        surv, bound = sup_survival_asymptotic(model, y)
        if bound > 1e-6:
            raise ConvergenceError(
                f"supremum CDF uncertain at y={y}",
                best_estimate=1.0 - surv,
                error_estimate=bound,
            )
        return 1.0 - surv
    s = _sup_series(a, _log_unit(model, y), 1e-14, density=False)
    if not s.converged:
        raise ConvergenceError(
            f"supremum CDF series did not converge at y={y}",
            best_estimate=s.value,
            error_estimate=s.tail_bound,
        )
    return min(max(s.value, 0.0), 1.0)


def cdf_I_star(model: SpectralCase, x: float) -> float:
    """P(I <= x) for the killed-process functional: a supremum tail event.

    The functional equals the inverse alpha-th power of the supremum, so
    its CDF at x is the supremum's survival at x^(-1/alpha).
    """
    _require(model, Case.DOWN_POS, "cdf_I_star")
    if math.isnan(x):
        raise DomainError("x must be a number")
    if x <= 0.0:
        return 0.0
    return 1.0 - sup_cdf(model, _exp_or_inf(-math.log(x) / model.alpha))


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x), over finite positive
    points with at least two distinct x (else there is no slope to fit)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("a log-log fit needs finite points")
    if np.unique(xs).size < 2 or np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("need strictly positive points at >= 2 distinct x for a log-log fit")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def tail_exponent_check(model: SpectralCase):
    """Fitted log-log slope of the model's distribution tail.

    Each fit uses 9 points spread log-uniformly over one decade.  For
    UpNeg it fits the density of I at large x; the law is positive stable
    of index 1/alpha, so the slope is -(1 + 1/alpha) (the survival
    P(I >= x) would give -1/alpha).  For DownPos it fits the CDF
    P(I* <= x) of the killed functional at small x.  A decade past the
    float range (a tiny or huge jump weight) is a DomainError that names
    the weight and the decade.
    """
    if model.case is Case.UP_NEG:
        lo, law = 200.0, lambda x: density_I(model, x).value
    elif model.case is Case.DOWN_POS:
        lo, law = 0.05, lambda x: cdf_I_star(model, x)
    else:
        raise DomainError("tail checks are defined for the up-neg and down-pos cases")
    with np.errstate(over="ignore"):
        xs = np.geomspace(lo, 10.0 * lo, 9) / model.c
    if not np.all(np.isfinite(xs) & (xs > 0.0)):
        raise DomainError(
            f"the {model.case.value} tail fit's decade [{lo:g}, {10.0 * lo:g}]/c "
            f"leaves the float range at jump weight {model.jump_weight:g} "
            f"(c = {model.c:.6g})"
        )
    return fit_loglog_slope(xs, [law(x) for x in xs])
