"""Scale functions, Laplace exponents, ruin probabilities and triple laws.

These are the spectrally one-sided specializations: the conditioned-to-
stay-positive process with no positive jumps (UpNeg), the conditioned-
to-hit-zero process with no positive jumps (DownNeg) and with no
negative jumps (DownPos).  The mean normalization m defaults to
c * Gamma(alpha) with c = c_minus * Gamma(2 - alpha) / (alpha*(alpha-1)),
the unique value consistent with the exponential-functional moments.

The triple law's constant K is one quadrature over the prior extremum
eta, its theta and phi integrals and the leading term of its pole at
eta = |barrier| in closed form; ``triple_law_total_mass``
checks K by nested quadrature, sharing only the kernel A with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from scipy.special import hyp2f1, poch

from .errors import ConfigurationError, DomainError, NumericError
from .numerics import _exp_or_inf, _log_expm1, integrate_adaptive, log_gamma

__all__ = [
    "Case",
    "SpectralCase",
    "default_c",
    "default_m",
    "psi_up",
    "psi_down",
    "scale_fn",
    "ruin_probability",
    "TripleLawPoint",
    "triple_law_K",
    "triple_law_density",
    "triple_law_total_mass",
    "triple_law_K_printed_upneg",
]

class Case(Enum):
    UP_NEG = "up-neg"  # conditioned to stay positive, no positive jumps
    DOWN_NEG = "down-neg"  # conditioned to hit 0, no positive jumps
    DOWN_POS = "down-pos"  # conditioned to hit 0, no negative jumps


def default_c(alpha: float, c_weight: float) -> float:
    """Subordinator scale c = c_weight * Gamma(2 - alpha) / (alpha*(alpha-1)).

    c_weight is the jump weight on the active side (c_minus for the
    spectrally negative cases, c_plus for the spectrally positive one).
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError("one-sided cases require alpha in (1, 2)")
    return c_weight * math.exp(log_gamma(2.0 - alpha)) / (alpha * (alpha - 1.0))


def default_m(alpha: float, c_weight: float = 1.0) -> float:
    """Mean normalization m = c * Gamma(alpha), c from ``default_c``."""
    return default_c(alpha, c_weight) * math.exp(log_gamma(alpha))


@dataclass(frozen=True)
class SpectralCase:
    """A spectrally one-sided case with its mean normalization.

    ``q_ladder`` (the killing rate of the descending ladder height
    process) is required only by the DownNeg triple law and must be
    supplied by the caller; it is not derivable from (alpha, m).
    """

    case: Case
    alpha: float
    m: float | None = None
    q_ladder: float | None = None

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise DomainError("alpha must lie in (1, 2) for one-sided cases")
        if self.m is not None and not (0.0 < self.m < math.inf):
            raise DomainError("m must be positive and finite")
        if self.q_ladder is not None and not (0.0 < self.q_ladder < math.inf):
            raise DomainError("q_ladder must be positive and finite")

    @property
    def mean(self) -> float:
        return self.m if self.m is not None else default_m(self.alpha)


def _laplace_exponent(s: SpectralCase, theta: float) -> float:
    """m * Gamma(theta+alpha) / (Gamma(theta) Gamma(alpha)) for theta > -alpha.

    poch forms the gamma ratio directly, so it stays finite where the two
    gammas overflow (theta past 171); where the value itself leaves the
    float range, NumericError is raised.
    """
    value = s.mean * float(poch(theta, s.alpha)) / math.gamma(s.alpha)
    if not math.isfinite(value):
        raise NumericError(
            f"Laplace exponent at theta={theta:g} exceeds the float range"
        )
    return value


def psi_up(s: SpectralCase, theta: float) -> float:
    """Laplace exponent m * Gamma(theta+alpha) / (Gamma(theta) Gamma(alpha))."""
    if not 0.0 <= theta < math.inf:
        raise DomainError("theta must be finite and nonnegative")
    # 1/Gamma is entire, so the zero at theta = 0 falls out naturally.
    return _laplace_exponent(s, theta)


def psi_down(s: SpectralCase, theta: float) -> float:
    """Laplace exponent of the DownNeg process: psi_up shifted by one."""
    if not 0.0 <= theta < math.inf:
        raise DomainError("theta must be finite and nonnegative")
    # theta - 1 + alpha >= alpha - 1 > 0, so only 1/Gamma(theta-1) can
    # hit a pole, and it vanishes there instead.
    return _laplace_exponent(s, theta - 1.0)


def scale_fn(s: SpectralCase, x: float) -> float:
    """Scale function W(x) for the case, vanishing at 0.

    UpNeg and DownPos: (1/m)(1 - e^-x)^(alpha-1).
    DownNeg: the same multiplied by e^(x/2) twice, since e^x alone leaves
    the float range (past x = 709.78) before W does; a sum of logs would
    lose |log W| ulps.  A value past the float range raises NumericError.
    """
    if not x >= 0.0:
        raise DomainError("x must be nonnegative")
    value = (-math.expm1(-x)) ** (s.alpha - 1.0) / s.mean
    if s.case is Case.DOWN_NEG:
        half = _exp_or_inf(0.5 * x)
        value = value * half * half
    if not math.isfinite(value):
        raise NumericError(f"scale function at x={x:g} exceeds the float range")
    return value


def ruin_probability(s: SpectralCase, x: float, y: float) -> float:
    """P(the process stays above -x until first passage over y) = W(x)/W(x+y).

    Formed as the closed ratio ((1 - e^-x)/(1 - e^(-x-y)))^(alpha-1), times
    e^-y for DownNeg, which is finite for every x, y > 0.
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError("x and y must be positive")
    ratio = (math.expm1(-x) / math.expm1(-x - y)) ** (s.alpha - 1.0)
    if s.case is Case.DOWN_NEG:
        return math.exp(-y) * ratio
    return ratio


@dataclass(frozen=True)
class TripleLawPoint:
    """Evaluation point of a first-passage triple law.

    ``barrier`` is v < 0 (UpNeg, DownNeg: passage below) or x > 0
    (DownPos: passage above).  theta is the overshoot, phi the position
    just before passage measured from the barrier, eta the distance of
    the running extremum before passage from the barrier.
    """

    barrier: float
    theta: float
    phi: float
    eta: float


def _depth(s: SpectralCase, barrier: float) -> float:
    """|barrier|, once the barrier is finite and on its case's side of 0."""
    depth = barrier if s.case is Case.DOWN_POS else -barrier
    if not 0.0 < depth < math.inf:
        raise DomainError("need a finite barrier, < 0 (UpNeg, DownNeg), > 0 (DownPos)")
    return depth


def _jump(a: float, s: float) -> float:
    """Levy-density factor e^(-a s) (1 - e^-s)^(-1-a) = e^s (e^s - 1)^(-1-a)."""
    if s <= 0.0:
        return math.inf
    return math.exp(-a * s - (1.0 + a) * math.log(-math.expm1(-s)))


def _jump_tail(a: float, phi: float) -> float:
    """The theta integral in closed form: int_phi^inf J = (e^phi - 1)^(-a) / a."""
    return math.exp(-a * _log_expm1(phi)) / a


def _kernel(s: SpectralCase, depth: float):
    """(A, q) of the kernel A(eta) e^(-q (phi - eta)) J(theta + phi).

    In depth coordinates w = eta - |barrier|, UpNeg and DownPos share A
    and q = 0; DownNeg carries the ladder killing rate q.  A(0) has the
    size of K (e^-|barrier| for UpNeg, e^|barrier| for DownNeg), so both
    quadratures integrate A / A(0), where an absolute tolerance acts as a
    relative one at every barrier.
    """
    a, q = s.alpha, 0.0
    if s.case is Case.DOWN_NEG:
        if s.q_ladder is None:
            raise ConfigurationError(
                "the DownNeg triple law needs q_ladder (descending ladder killing rate)"
            )
        q = s.q_ladder

    def A(eta):
        w = eta - depth
        lead = math.exp(-w) + a - 2.0 if q else math.exp(w)
        return lead * (-math.expm1(w)) ** (a - 2.0)

    return A, q


# Below this eta, x = e^-eta lies so near 1 that the 2F1 of _phi_mass loses
# its digits (1e-9 relative at eta 1e-9, 300x off at 1e-15 for alpha near
# 1); from it on, the 2F1 holds to 1e-14 against mpmath.  The cut moves down
# to 1/p for p = a + q > 10, so that the alternating series of
# ``_beta_small_rest``, whose terms grow like (p y)^n / n!, keeps its digits.
_PHI_CUT = 0.1


def _phi_mass(a: float, q: float, eta: float) -> float:
    """int_eta^inf e^(-q (phi - eta)) _jump_tail(a, phi) dphi in closed form.

    In u = e^-phi it is e^(q eta) / a times the incomplete beta
    B(x; a + q, 1 - a) = x^(a+q) 2F1(a + q, a; a + q + 1; x) / (a + q) at
    x = e^-eta.  Euler's transformation moves the factor (1 - x)^(1-a) out
    of the 2F1; formed by expm1, it keeps its digits where x rounds near 1.
    Below the cut (``_PHI_CUT``, or 1/(a + q) where that is smaller) the
    beta is taken from its value at the cut x0 through
    B(x; p, b) = B(x0; p, b) + B(1 - x0; b, p) - B(1 - x; b, p), whose
    right-hand betas are series in the small y = 1 - x.
    """
    cut = min(_PHI_CUT, 1.0 / (a + q))
    if eta < cut:
        return _phi_mass_near_zero(a, q, eta, cut)
    lead = math.exp(-a * eta) * (-math.expm1(-eta)) ** (1.0 - a)
    return lead * hyp2f1(1.0, 1.0 + q, a + q + 1.0, math.exp(-eta)) / (a * (a + q))


def _beta_small_rest(b: float, p: float, y: float) -> float:
    """B(y; b, p) / y^b - 1/b = sum_{n>=1} (1 - p)_n / n! y^n / (n + b).

    The continued incomplete beta for b in (-1, 0); the terms fall like
    y^n, and end at n = p for an integer p.
    """
    total, coef, n = 0.0, 1.0, 0
    while True:
        n += 1
        coef *= (n - p) / n * y
        term = coef / (n + b)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total


def _phi_mass_near_zero(a: float, q: float, eta: float, cut: float) -> float:
    """``_phi_mass`` below ``cut``.

    With p = a + q, b = 1 - a and B(y; b, p) = y^b (1/b + rest(y)), the beta
    at x = e^-eta is B(x0; p, b) + y0^b rest(y0) + (y0^b - y^b) / b
    - y^b rest(y).  The two 1/b parts, each near -1/(a - 1) as a -> 1,
    cancel in closed form through expm1, so no digits are lost to them.
    """
    p, b = a + q, 1.0 - a
    y, y0 = -math.expm1(-eta), -math.expm1(-cut)
    yb, y0b = y**b, y0**b
    beta = (
        a * math.exp(-q * cut) * _phi_mass(a, q, cut)
        + y0b * _beta_small_rest(b, p, y0)
        + yb * math.expm1(b * math.log(y0 / y)) / b
        - yb * _beta_small_rest(b, p, y)
    )
    return math.exp(q * eta) / a * beta


@lru_cache(maxsize=64)
def _cached_K(case, alpha, q_ladder, depth):
    # The kernel does not read m, so K is cached without it.
    A, q = _kernel(SpectralCase(case, alpha, q_ladder=q_ladder), depth)
    a0 = A(0.0)
    # The pole's leading term A(eta) * phi mass at |barrier| in closed form:
    # A is the eta-derivative of -(1 - e^w)^(alpha-1) / (alpha-1) when
    # q = 0, and of -e^-w (1 - e^w)^(alpha-1) for DownNeg.  The remainder
    # left to the quadrature vanishes at the pole.
    at_pole = _phi_mass(alpha, q, depth)
    rise = (-math.expm1(-depth)) ** (alpha - 1.0)
    pole_mass = rise * math.exp(depth) if q else rise / (alpha - 1.0)

    def over_eta(eta):
        if eta >= depth:
            return 0.0
        return A(eta) / a0 * (_phi_mass(alpha, q, eta) - at_pole)

    rest = integrate_adaptive(over_eta, 0.0, depth, tol=1e-8).value
    return at_pole * pole_mass + a0 * rest


def triple_law_K(s: SpectralCase, barrier: float) -> float:
    """Normalizing constant of the triple law.

    The theta and phi integrals are closed form (``_jump_tail`` and the
    incomplete beta of ``_phi_mass``).  Over eta, the pole's leading term
    A(eta) * phi mass at |barrier| is integrated in closed form, and the
    remainder, which vanishes at the pole, by adaptive quadrature to
    tolerance 1e-8; so K keeps its digits as alpha -> 1, where nearly all
    of it lies closer to the pole than a double resolves.
    """
    depth = _depth(s, barrier)
    try:
        K = _cached_K(s.case, s.alpha, s.q_ladder, depth)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"the triple-law kernel leaves the float range at barrier={barrier}"
        ) from None
    if not (K > 0.0 and math.isfinite(K)):
        raise DomainError(f"degenerate normalizing constant K={K!r}")
    return K


def triple_law_density(s: SpectralCase, pt: TripleLawPoint) -> float:
    """Normalized joint density of (overshoot, undershoot, prior extremum)."""
    depth = _depth(s, pt.barrier)
    if not (pt.theta >= 0.0 and pt.phi >= pt.eta and 0.0 <= pt.eta <= depth):
        raise DomainError("need theta >= 0, phi >= eta, eta in [0, |barrier|]")
    K = triple_law_K(s, pt.barrier)
    if pt.eta == depth:
        return math.inf  # the integrable pole of (1 - e^w)^(alpha - 2) at w = 0
    A, q = _kernel(s, depth)
    J = _jump(s.alpha, pt.theta + pt.phi)
    return A(pt.eta) * math.exp(-q * (pt.phi - pt.eta)) * J / K


def triple_law_total_mass(s: SpectralCase, barrier: float, tol: float = 1e-7) -> float:
    """Integral of the normalized density by nested quadrature, eta inside phi.

    Should equal 1; deviations measure quadrature (not modelling) error.
    K takes phi in closed form, so the two routes share only the kernel A.
    phi is split at |barrier|.
    """
    K = triple_law_K(s, barrier)
    depth = abs(barrier)
    A, q = _kernel(s, depth)
    a0 = A(0.0)

    def over_eta(phi):
        def f(eta):
            return A(eta) / a0 * math.exp(-q * (phi - eta))

        inner = integrate_adaptive(f, 0.0, min(phi, depth), tol * 1e-2)
        return _jump_tail(s.alpha, phi) * inner.value * (a0 / K)

    near = integrate_adaptive(over_eta, 0.0, depth, tol).value
    return near + integrate_adaptive(over_eta, depth, math.inf, tol).value


def triple_law_K_printed_upneg(s: SpectralCase, v: float) -> float:
    """The one-dimensional closed-form candidate for the UpNeg constant.

    Kept as a cross-check only; reports compare it to the quadrature
    value and flag the relative difference instead of asserting it.
    """
    if s.case is not Case.UP_NEG:
        raise DomainError("printed constant applies to the UpNeg case only")
    a = s.alpha
    ev = math.exp(-v)
    first = (
        math.exp((a - 2.0) * v)
        / (a * (a - 1.0))
        * integrate_adaptive(
            lambda y: (ev - y) / (y * (y - 1.0) ** (a - 1.0)), 1.0, ev, tol=1e-10
        ).value
    )
    second = (
        (-math.expm1(v)) ** (a - 1.0)
        / (a * (a - 1.0))
        * math.pi
        / math.sin(math.pi * (a - 1.0))
    )
    return first - second
