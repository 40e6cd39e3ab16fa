"""Scale functions, Laplace exponents, ruin probabilities and triple laws.

These are the spectrally one-sided specializations: the conditioned-to-
stay-positive process with no positive jumps (UpNeg), the conditioned-
to-hit-zero process with no positive jumps (DownNeg) and with no
negative jumps (DownPos).  The mean normalization is m = c * Gamma(alpha)
with c = w * Gamma(2 - alpha) / (alpha*(alpha-1)), w the jump weight, the
unique value consistent with the exponential-functional moments.

The triple law's constant K is C(alpha) times the probability that the
barrier is ever passed; the DownNeg law is the UpNeg law reweighted by
e^(-xi_tau), the Esscher change of measure that psi_down(theta) =
psi_up(theta - 1) defines (Kyprianou, *Fluctuations of Levy Processes*,
2nd ed., 2014).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from scipy.special import betainc, betaincc, poch

from .errors import DomainError, NumericError
from .numerics import _exp_or_inf, _log_expm1, integrate_adaptive, log_gamma

__all__ = [
    "Case",
    "SpectralCase",
    "default_c",
    "default_m",
    "psi_up",
    "psi_down",
    "psi",
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


def default_c(alpha: float, jump_weight: float) -> float:
    """Subordinator scale c = jump_weight * Gamma(2 - alpha) / (alpha*(alpha-1)).

    The jump weight is that of the one active side: the negative jumps of
    the spectrally negative cases, the positive ones of DownPos.
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError("one-sided cases require alpha in (1, 2)")
    return jump_weight * math.exp(log_gamma(2.0 - alpha)) / (alpha * (alpha - 1.0))


def default_m(alpha: float, jump_weight: float = 1.0) -> float:
    """Mean normalization m = c * Gamma(alpha), c from ``default_c``."""
    return default_c(alpha, jump_weight) * math.exp(log_gamma(alpha))


@dataclass(frozen=True)
class SpectralCase:
    """A one-sided case, its index and the jump weight of its one active side,
    the only jump weight any law reads, whose ``default_c`` and ``default_m``
    are c and m: a mean normalization m is the weight m / default_m(alpha).
    ``expfun`` takes UpNeg for I and DownPos for I*."""

    case: Case
    alpha: float
    jump_weight: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise DomainError("alpha must lie in (1, 2) for one-sided cases")
        if not (0.0 < self.jump_weight < math.inf):
            raise DomainError("jump weight must be positive and finite")

    @functools.cached_property
    def c(self) -> float:
        return default_c(self.alpha, self.jump_weight)

    @functools.cached_property
    def m(self) -> float:
        return default_m(self.alpha, self.jump_weight)


def _laplace_exponent(s: SpectralCase, factor: float, theta: float, index: float) -> float:
    """factor * m * Gamma(theta + index) / (Gamma(theta) Gamma(alpha)), the
    gamma ratio formed by poch, so that it stays finite where the two gammas
    overflow (theta past 171); a value past the float range is NumericError."""
    value = factor * s.m * float(poch(theta, index)) / math.gamma(s.alpha)
    if not math.isfinite(value):
        raise NumericError(f"Laplace exponent at theta={theta:g} exceeds the float range")
    return value


def psi_up(s: SpectralCase, theta: float) -> float:
    """Laplace exponent m * Gamma(theta+alpha) / (Gamma(theta) Gamma(alpha))."""
    if not 0.0 <= theta < math.inf:
        raise DomainError("theta must be finite and nonnegative")
    # 1/Gamma is entire, so the zero at theta = 0 falls out naturally.
    return _laplace_exponent(s, 1.0, theta, s.alpha)


def psi_down(s: SpectralCase, theta: float) -> float:
    """Laplace exponent of the DownNeg process, psi_up(theta - 1), with
    Gamma(theta - 1) = Gamma(theta) / (theta - 1): below theta = 1.1e-16,
    theta - 1 itself rounds onto the pole at -1, where psi_up reads 0."""
    if not 0.0 <= theta < math.inf:
        raise DomainError("theta must be finite and nonnegative")
    # + 0.0 turns the -0 of theta = 0, where 1/Gamma(theta) vanishes, into 0.
    return _laplace_exponent(s, theta - 1.0, theta, s.alpha - 1.0) + 0.0


def psi(s: SpectralCase, theta: float) -> float:
    """The Laplace exponent of s's case: psi_up for UpNeg, else psi_down,
    though scale_fn takes DownPos as the UpNeg law (ROADMAP item 19)."""
    return psi_up(s, theta) if s.case is Case.UP_NEG else psi_down(s, theta)


def scale_fn(s: SpectralCase, x: float) -> float:
    """Scale function W(x) for the case, vanishing at 0.

    UpNeg and DownPos: (1/m)(1 - e^-x)^(alpha-1).
    DownNeg: the same multiplied by e^(x/2) twice, since e^x alone leaves
    the float range (past x = 709.78) before W does; a sum of logs would
    lose |log W| ulps.  A value past the float range raises NumericError.
    """
    if not x >= 0.0:
        raise DomainError("x must be nonnegative")
    value = (-math.expm1(-x)) ** (s.alpha - 1.0) / s.m
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


def _log_jump(a: float, s: float, q: float) -> float:
    """log of the jump factor e^(q s) J(s), J(s) = e^(-a s) (1 - e^-s)^(-1-a)."""
    if s <= 0.0:
        return math.inf
    return (q - a) * s - (1.0 + a) * math.log(-math.expm1(-s))


def _log_jump_tail(a: float, phi: float, q: float) -> float:
    """log of the theta integral int_phi^inf e^(q s) J(s) ds, q = 0 or 1: in
    u = e^s - 1 the closed form int (1 + u)^q u^(-1-a) du over u > e^phi - 1,
    e^(q phi) (a - e^(-q phi)) (e^phi - 1)^(-a) / (a (a-1))."""
    return q * phi - a * _log_expm1(phi) + math.log((a - math.exp(-q * phi)) / (a * (a - 1.0)))


def _jump_tail(a: float, phi: float, q: float) -> float:
    """The theta integral itself, e^(``_log_jump_tail``)."""
    return math.exp(_log_jump_tail(a, phi, q))


def _tilt(s: SpectralCase) -> float:
    """The kernel's q: 1 for DownNeg, 0 for UpNeg and DownPos."""
    return 1.0 if s.case is Case.DOWN_NEG else 0.0


def _C(a: float) -> float:
    """The kernel's mass over every passage, Gamma(a-1) Gamma(2-a) / (a (a-1))
    (as pi / sin(pi (a-1)) it would lose 2e-11 at a = 1.999999)."""
    return math.gamma(a - 1.0) * math.gamma(2.0 - a) / (a * (a - 1.0))


def _log_rise(depth: float) -> float:
    """log(1 - e^-depth), by expm1 below depth 0.7 and by log1p above, so
    that it keeps its digits at every depth."""
    return math.log(-math.expm1(-depth)) if depth < 0.7 else math.log1p(-math.exp(-depth))


def triple_law_K(s: SpectralCase, barrier: float) -> float:
    """Normalizing constant of the triple law: C(alpha) times the probability
    of passage, 1 - (1 - e^-|barrier|)^(alpha-1) for UpNeg and DownPos and 1
    for DownNeg, which passes surely.  K keeps its digits at every barrier;
    a K past the float range (|barrier| ~ 745) raises DomainError."""
    depth = _depth(s, barrier)
    if s.case is Case.DOWN_NEG:
        return _C(s.alpha)
    K = _C(s.alpha) * -math.expm1((s.alpha - 1.0) * _log_rise(depth))
    if K == 0.0:
        raise DomainError(f"triple-law K leaves the float range at barrier={barrier}")
    return K


def triple_law_density(s: SpectralCase, pt: TripleLawPoint) -> float:
    """Normalized joint density of (overshoot, undershoot, prior extremum),
    the kernel A(eta) e^(-q (phi - eta)) e^(q s) J(s) over K, s = theta + phi,
    w = eta - |barrier|, A = e^((1 - q) w) (1 - e^w)^(alpha-2).  DownNeg is
    UpNeg reweighted by e^(-xi_tau) = e^(|barrier| + theta), the Esscher tilt
    that psi_down(theta) = psi_up(theta - 1) defines: q = 1 is the root
    psi_down(1) = 0, and e^(|barrier| + w) = e^eta is split as
    e^(-(phi - eta)) e^phi.  One sum of logs, so no factor leaves the float
    range before the division by K; inf past it, as at the poles.
    """
    depth = _depth(s, pt.barrier)
    if not (pt.theta >= 0.0 and pt.eta <= pt.phi < math.inf and 0.0 <= pt.eta <= depth):
        raise DomainError("need theta >= 0, finite phi >= eta, eta in [0, |barrier|]")
    K = triple_law_K(s, pt.barrier)
    if pt.eta == depth:
        return math.inf  # the integrable pole of (1 - e^w)^(alpha - 2) at w = 0
    a, q, w = s.alpha, _tilt(s), pt.eta - depth
    log_A = (1.0 - q) * w + (a - 2.0) * math.log(-math.expm1(w))
    log_J = _log_jump(a, pt.theta + pt.phi, q)
    return _exp_or_inf(log_A - q * (pt.phi - pt.eta) + log_J - math.log(K))


def triple_law_total_mass(s: SpectralCase, barrier: float, tol: float = 1e-7) -> float:
    """Integral of the normalized density; it should equal 1, and deviations
    measure quadrature (not modelling) error.  Over theta it is
    ``_log_jump_tail``, over eta in [0, min(phi, |barrier|)] e^(q (|barrier| -
    phi)) (1 - e^-|barrier|)^(a-1) G / (a-1), G = 1 - (1 - rho)^(a-1), rho =
    min(1, (e^phi - 1) / (e^|barrier| - 1)).  Their product over K, one sum of
    logs, is integrated in r = log phi, split at |barrier|/2 and |barrier| so
    that the power law at 0 and the cusp at |barrier| each end an interval.
    Below phi = 1e-10 min(|barrier|, 1) it is e^((2 - a) r) times a constant
    to 1e-10, so that piece is its value there over 2 - a.
    """
    K = triple_law_K(s, barrier)
    depth, a, q = abs(barrier), s.alpha, _tilt(s)
    log_top = _log_expm1(depth)
    const = (a - 1.0) * _log_rise(depth) + q * depth - math.log((a - 1.0) * K)

    def in_log_phi(r):
        phi = math.exp(min(r, 700.0))  # past phi = e^700 the integrand is 0
        log_rho = min(_log_expm1(phi) - log_top, 0.0)
        rho = max(math.exp(log_rho), 1e-300)  # G / rho is a - 1 below 1e-16
        G_over_rho = -math.expm1((a - 1.0) * math.log1p(-rho)) / rho if rho < 1.0 else 1.0
        log_G = log_rho + math.log(G_over_rho)
        return math.exp(const + r + _log_jump_tail(a, phi, q) - q * phi + log_G)

    r_lo, r_top = math.log(min(depth, 1.0)) - 23.0, math.log(depth)
    r_mid = r_top - math.log(2.0)
    mass = in_log_phi(r_lo) / (2.0 - a)
    for lo, hi in ((r_lo, r_mid), (r_mid, r_top), (r_top, math.inf)):
        mass += integrate_adaptive(in_log_phi, lo, hi, tol).value
    return mass


def triple_law_K_printed_upneg(s: SpectralCase, v: float) -> float:
    """The one-dimensional candidate printed for the UpNeg constant: a first
    term minus C(a) (1 - e^v)^(a-1), where K = C(a) - C(a) (1 - e^v)^(a-1).
    Kept as a cross-check only; ``verify scale`` reports both.

    The first term, e^((a-2) v) / (a (a-1)) int_1^(e^-v) (e^-v - y) /
    (y (y - 1)^(a-1)) dy, is C(a) e^((a-3) v) I_x(3-a, a-1), x = 1 - e^v, by
    parts and t = (y - 1)/y; I is taken as 1 - I_(e^v)(a-1, 3-a) where x
    rounds toward 1.  Past the float range (v < -710/(3-a)) NumericError.
    """
    if s.case is not Case.UP_NEG:
        raise DomainError("printed constant applies to the UpNeg case only")
    a, x = s.alpha, -math.expm1(-_depth(s, v))
    beta = betainc(3.0 - a, a - 1.0, x) if x < 0.5 else betaincc(a - 1.0, 3.0 - a, math.exp(v))
    value = _C(a) * (_exp_or_inf((a - 3.0) * v) * float(beta) - x ** (a - 1.0))
    if not math.isfinite(value):
        raise NumericError(f"printed constant at v={v:g} exceeds the float range")
    return value
