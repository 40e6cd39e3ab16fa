"""Parameter model for strictly stable processes and their basic laws.

Covers the two-sided exit law of a stable process from a finite interval
(overshoot density and exit probability), the resolvent density of the
symmetric process killed on leaving the positive half-line, and exact
sampling of stable increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betainc, hyp2f1

from .errors import DomainError

# integrate_adaptive is not called here.  It stays imported because
# bench/test_bench.py asserts stable.integrate_adaptive is the numerics one.
from .numerics import integrate_adaptive, log_gamma

__all__ = [
    "StableParams",
    "Kind",
    "rogozin_overshoot_density",
    "exit_up_probability",
    "killed_resolvent_u",
    "sample_stable_increment",
    "increment_sampler",
    "path_rng",
]

_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class StableParams:
    """Stable process parameters: index, positivity parameter, jump weights.

    ``rho`` is the positivity parameter P(X_1 > 0).  ``c_plus`` and
    ``c_minus`` weight the positive and negative jump tails; they only
    enter the two-sided test and the normalization constants of the
    spectrally one-sided models, the (alpha, rho) pair drives every exit
    law.
    """

    alpha: float
    rho: float
    c_plus: float = 1.0
    c_minus: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (0.0 < self.rho < 1.0):
            raise DomainError(f"rho must lie in (0, 1), got {self.rho}")
        if not (0.0 <= self.c_plus < math.inf and 0.0 <= self.c_minus < math.inf):
            raise DomainError("jump weights must be finite and nonnegative")

    @property
    def alpha_rho(self) -> float:
        return self.alpha * self.rho

    @property
    def alpha_rho_hat(self) -> float:
        """alpha * (1 - rho), the exponent attached to the negative side."""
        return self.alpha * (1.0 - self.rho)

    @property
    def two_sided(self) -> bool:
        """True when both jump directions are active."""
        return (
            self.alpha_rho < 1.0 - _BOUNDARY_TOL
            and self.alpha_rho_hat < 1.0 - _BOUNDARY_TOL
            and self.c_plus * self.c_minus > 0.0
        )

    @property
    def spectrally_negative(self) -> bool:
        """No positive jumps: alpha in (1,2) with alpha*(1-rho) = 1."""
        return self.alpha > 1.0 and abs(self.alpha_rho_hat - 1.0) <= _BOUNDARY_TOL

    @property
    def spectrally_positive(self) -> bool:
        """No negative jumps: alpha in (1,2) with alpha*rho = 1."""
        return self.alpha > 1.0 and abs(self.alpha_rho - 1.0) <= _BOUNDARY_TOL

    def require_two_sided(self):
        if not self.two_sided:
            raise DomainError(
                "operation requires two-sided jumps: alpha*rho and "
                "alpha*(1-rho) in (0,1) with c_plus*c_minus > 0"
            )


class Kind(Enum):
    """The three log-scale processes derived from a stable process.

    A kind has one exponent, h, formed from alpha*rho directly since
    (alpha*rho + 1) - 1 differs from alpha*rho in the last bit for many
    (alpha, rho); the Levy density's tilt exponent is gamma = h + 1.
    """

    STAR = "star"  # stable process killed on leaving (0, inf)
    UP = "up"  # conditioned to stay positive
    DOWN = "down"  # conditioned to hit 0 continuously

    def h_exponent(self, p: StableParams) -> float:
        """Power of the position in the kind's Doob weight x^h (grid Monte
        Carlo, two-point hitting): 0, alpha*rho and alpha*rho - 1."""
        if self is Kind.STAR:
            return 0.0
        if self is Kind.UP:
            return p.alpha_rho
        return p.alpha_rho - 1.0


def rogozin_overshoot_density(p: StableParams, a: float, x: float, y: float) -> float:
    """Density in y of the overshoot above a on the up-exit event.

    For the stable process started at x in (0, a), this is the
    (sub-probability) density of X at first passage above a, minus a,
    on the event that the upper barrier is reached before the process
    leaves the positive half-line.
    """
    p.require_two_sided()
    if not (a > 0.0 and 0.0 < x < a) or math.isnan(y):
        raise DomainError("need 0 < x < a and y not NaN")
    if y <= 0.0:
        return 0.0
    ar, arh = p.alpha_rho, p.alpha_rho_hat
    return (
        math.sin(math.pi * arh)
        / math.pi
        * (a - x) ** arh
        * x**ar
        * y**-arh
        * (y + a) ** -ar
        / (y + a - x)
    )


def exit_up_probability(p: StableParams, a: float, x: float) -> float:
    """Probability the stable process from x in (0, a) exits above a first."""
    p.require_two_sided()
    if not (a > 0.0 and 0.0 < x < a):
        raise DomainError("need 0 < x < a")
    return float(betainc(p.alpha_rho, p.alpha_rho_hat, x / a))


def killed_resolvent_u(alpha: float, x: float, y: float) -> float:
    """Occupation density u(x, y) of the symmetric stable process killed at 0.

    u = kappa |x-y|^(alpha-1) int_0^s t^(a-1) (1+t)^(-1/2) dt with
    a = alpha/2 and s = 4xy/(x-y)^2 (Blumenthal, Getoor & Ray 1961); the
    integral is (s^a / a) 2F1(1/2, a; a+1; -s) in closed form.  Every
    consumer of u takes ratios in which kappa cancels.
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError("resolvent density requires alpha in (1, 2)")
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise DomainError("x and y must be positive and finite")
    kappa = 1.0 / (2.0**alpha * math.exp(log_gamma(alpha / 2.0)))
    if x == y:
        # Analytic diagonal limit: the integral diverges like the
        # prefactor |x-y|^(alpha-1) vanishes.
        return kappa * (2.0 * x) ** (alpha - 1.0) * 2.0 / (alpha - 1.0)
    d = abs(x - y)
    # Each quotient is formed first, so s stays in range wherever 4xy/d^2 is.
    s = 4.0 * (x / d) * (y / d)
    a = alpha / 2.0
    inner = s**a / a * float(hyp2f1(0.5, a, a + 1.0, -s))
    return kappa * d ** (alpha - 1.0) * inner


# The zero counter and empty buffer of a re-keyed Philox stream.  The
# state setter copies from it, and it is read-only, so every re-key shares it.
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)
_PHILOX_ZEROS.setflags(write=False)


def path_rng(
    seed: int, path_index: int, reuse: np.random.Generator | None = None
) -> np.random.Generator:
    """Counter-based generator for one simulated path.

    Keyed by (seed, path_index) through a 128-bit Philox key so streams
    are independent of scheduling and worker count.  Both must lie in
    [0, 2^64): each fills one 64-bit half of the key.  The generator,
    ``reuse`` (a Philox generator made here before) or else a new one, is
    keyed in place (counter 0, key (path_index, seed), empty buffer), so
    the stream does not depend on what it drew before.  The key reads its
    zero counter and buffer from one shared read-only array and its key
    from a tuple, so it builds no array.
    """
    seed, path_index = int(seed), int(path_index)
    if not (0 <= seed < 2**64 and 0 <= path_index < 2**64):
        raise DomainError(
            f"seed and path index must lie in [0, 2^64), got {seed} and {path_index}"
        )
    if reuse is None:
        reuse = np.random.Generator(np.random.Philox())
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZEROS, "key": (path_index, seed)},
        "buffer": _PHILOX_ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


def increment_sampler(p: StableParams, dt: float):
    """Vectorized sampler of stable increments over time step dt.

    Returns draw(rngs, n, out=None) -> ndarray of shape (len(rngs), n):
    row r holds n independent increments drawn from rngs[r], which
    supplies n uniforms and then (unless alpha = 1) n exponentials.
    ``out``, a C-contiguous float array of that shape, receives the
    increments in place.  Uses the trigonometric construction from
    uniform and exponential variates (Chambers, Mallows & Stuck 1976);
    the skewness is chosen so that P(X_1 > 0) = rho, and increments
    scale as dt^(1/alpha).  For alpha > 1 that needs rho in
    [1 - 1/alpha, 1/alpha]; outside it no strictly stable law exists and
    DomainError is raised.  dt must be finite and positive.

    For alpha != 1, with v = (U - 1/2) pi, psi = alpha theta0 +
    (alpha - 1) v, phi = alpha (v + theta0) and T = tan(phi / 2), the
    transform is formed in log form,

        f T / (1 + T^2) exp([log(1 + tan^2 v)
                             + (alpha - 1) log((1 + tan^2 psi) W^2)] / (2 alpha)),

    f = 2 (dt / cos(alpha theta0))^(1/alpha): sin phi = 2T / (1 + T^2),
    (cos v)^(-1/alpha) = (1 + tan^2 v)^(1/(2 alpha)) and
    (cos psi / W)^((1 - alpha)/alpha) = ((1 + tan^2 psi) W^2)^((alpha - 1)/(2 alpha)).
    The last two hold because |v| <= pi/2 and |psi| <= pi/2 over the
    whole feasible (alpha, rho), so cos v and cos psi are nonnegative;
    for alpha > 1, a rho accepted within 1e-9 beyond a feasible end is
    moved onto that end.  The form needs three tangents, two logarithms
    and one exponential per increment, and no power, sine or cosine:
    numpy 2.4 on an AVX-512 x86-64 host takes 1.2-2.8 ns per float64
    element for tan, log, log1p and exp, 4.3 ns for power and 16-18 ns
    for sin and cos.  Against a 160-bit evaluation of the same transform
    at the (U, W) drawn, the relative error stays below 1e-11 over the
    feasible (alpha, rho) with alpha in [0.1, 2): the worst seen is about
    1e-12, at small alpha.  It can exceed that only where one of the
    three factors is within about 1e-5 of zero, where the rounding of v
    dominates on any route.  Each row is bit-identical to the same
    transform applied to that generator alone, whatever the batching or
    worker count, but not to the rows of the earlier samplers (direct
    sin and cos, then cosines from half-angle tangents), which differ
    from these by up to about 6e-13 / alpha relative, near U = 0 or 1.
    The sampler keeps its scratch buffers between calls, so one sampler
    must not draw in two threads at once.
    """
    if not (0.0 < dt < math.inf):
        raise DomainError(f"dt must be finite and positive, got {dt}")
    alpha = p.alpha
    if abs(alpha - 1.0) < 1e-12:
        if abs(p.rho - 0.5) > 1e-12:
            raise DomainError("alpha = 1 supported only in the symmetric case")
        scale = dt  # Cauchy: linear scaling

        def draw_cauchy(rngs, n, out=None):
            v = np.empty((len(rngs), n)) if out is None else out
            for rng, row in zip(rngs, v):
                rng.random(out=row)
            v -= 0.5
            v *= math.pi
            np.tan(v, out=v)
            v *= scale
            return v

        return draw_cauchy

    # For alpha > 1 both alpha*rho and alpha*(1 - rho) must be at most 1,
    # else cos psi turns negative on part of the range of v.
    if alpha > 1.0 and max(p.alpha_rho, p.alpha_rho_hat) > 1.0 + _BOUNDARY_TOL:
        raise DomainError(
            f"no strictly stable law with alpha={alpha}, rho={p.rho}: "
            "for alpha > 1, rho must lie in [1 - 1/alpha, 1/alpha]"
        )
    # A rho accepted within the tolerance beyond a feasible end is drawn at
    # that end: there cos psi < 0 near U = 0 or 1, which the squared
    # tangent below would turn into |cos psi|.
    rho = p.rho
    if alpha > 1.0:
        rho = min(max(rho, 1.0 - 1.0 / alpha), 1.0 / alpha)
    # The angle that pins P(X_1 > 0) = rho.
    theta0 = math.pi * (rho - 0.5)
    a_theta0 = alpha * theta0
    # (dt / cos(a_theta0))^(1/alpha) times the 2 of sin phi = 2T / (1 + T^2).
    try:
        factor = 2.0 * (dt / math.cos(a_theta0)) ** (1.0 / alpha)
    except OverflowError:
        raise DomainError(
            f"increment scale dt^(1/alpha) overflows a float at dt={dt}, alpha={alpha}"
        ) from None
    # Two scratch buffers kept between calls, regrown only when a larger
    # draw is asked for.
    scratch = [np.empty(0), np.empty(0)]

    def draw(rngs, n, out=None):
        # In-place form of
        #   v = (U - 1/2) pi,  W ~ Exp(1),
        #   psi = a_theta0 + (alpha - 1) v,  T = tan(alpha (v + theta0) / 2),
        #   e = exp([log1p(tan^2 v) + (alpha - 1) log((1 + tan^2 psi) W^2)]
        #           / (2 alpha)),
        #   T / (1 + T^2) * e * factor,
        # in that operation order.  Halving is exact, so T is taken at
        # exactly half the angle a direct sin would round to.
        v = np.empty((len(rngs), n)) if out is None else out
        if scratch[0].size < v.size:
            scratch[:] = [np.empty(v.size), np.empty(v.size)]
        w, s = (b[: v.size].reshape(v.shape) for b in scratch)
        for rng, v_row, w_row in zip(rngs, v, w):
            rng.random(out=v_row)
            rng.standard_exponential(out=w_row)
        v -= 0.5
        v *= math.pi
        np.multiply(v, alpha - 1.0, out=s)
        s += a_theta0
        np.tan(s, out=s)
        s *= s
        s += 1.0
        s *= w
        s *= w
        np.log(s, out=s)
        s *= alpha - 1.0
        np.tan(v, out=w)  # w is free from here on
        w *= w
        np.log1p(w, out=w)
        w += s
        w *= 0.5 / alpha
        np.exp(w, out=w)
        v += theta0
        v *= alpha / 2.0
        np.tan(v, out=v)
        np.multiply(v, v, out=s)
        s += 1.0
        v /= s
        v *= w
        v *= factor
        return v

    return draw


def sample_stable_increment(
    p: StableParams, dt: float, stream: np.random.Generator
) -> float:
    """Single exact-in-law stable increment over time dt."""
    return float(increment_sampler(p, dt)([stream], 1)[0, 0])
