"""Parameter model for strictly stable processes and their basic laws.

Covers the two-sided exit law of a stable process from a finite interval
(overshoot density and exit probability), the resolvent density of the
symmetric process killed on leaving the positive half-line, and exact
sampling of stable increments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betainc, hyp2f1

from .errors import DomainError

# integrate_adaptive is not called here.  It stays imported because
# bench/test_bench.py asserts stable.integrate_adaptive is the numerics one.
from .numerics import _exp_or_inf, integrate_adaptive, log_gamma

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
# Half the spacing of the uniforms numpy draws: U = 0 is read as this.
_HALF_ULP_U = 2.0**-54


@dataclass(frozen=True)
class StableParams:
    """Stable process parameters: index and positivity parameter.

    ``rho`` is the positivity parameter P(X_1 > 0).  The pair drives every
    two-sided law; a jump weight only scales the spectrally one-sided
    models, and is held by ``scale.SpectralCase``.
    """

    alpha: float
    rho: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (0.0 < self.rho < 1.0):
            raise DomainError(f"rho must lie in (0, 1), got {self.rho}")

    @property
    def alpha_rho(self) -> float:
        return self.alpha * self.rho

    @property
    def alpha_rho_hat(self) -> float:
        return self.alpha * (1.0 - self.rho)

    # The one place that says which of the two belongs to which side.
    @property
    def up_jump_exponent(self) -> float:
        """Jump exponent of an upward passage (the overshoot's singularity)."""
        return self.alpha * (1.0 - self.rho)

    @property
    def down_jump_exponent(self) -> float:
        """Jump exponent of a downward passage (the undershoot's singularity)."""
        return self.alpha * self.rho

    @property
    def two_sided(self) -> bool:
        """True when both jump directions are active: both side exponents in
        (0, 1), where a tiny alpha can round one to 0."""
        return (
            0.0 < self.alpha_rho < 1.0 - _BOUNDARY_TOL
            and 0.0 < self.alpha_rho_hat < 1.0 - _BOUNDARY_TOL
        )

    @property
    def spectrally_negative(self) -> bool:
        """No positive jumps: alpha in (1,2) with upward jump exponent 1."""
        return self.alpha > 1.0 and abs(self.up_jump_exponent - 1.0) <= _BOUNDARY_TOL

    @property
    def spectrally_positive(self) -> bool:
        """No negative jumps: alpha in (1,2) with downward jump exponent 1."""
        return self.alpha > 1.0 and abs(self.down_jump_exponent - 1.0) <= _BOUNDARY_TOL

    def require_two_sided(self):
        if not self.two_sided:
            raise DomainError(
                "operation requires two-sided jumps: alpha*rho and alpha*(1-rho) in (0,1)"
            )


class Kind(Enum):
    """The three log-scale processes derived from a stable process.

    A kind has one exponent, h, formed from the downward jump exponent
    directly since (k + 1) - 1 differs from k in the last bit for many
    (alpha, rho); the Levy density's tilt exponent is gamma = h + 1.
    """

    STAR = "star"  # stable process killed on leaving (0, inf)
    UP = "up"  # conditioned to stay positive
    DOWN = "down"  # conditioned to hit 0 continuously

    def h_exponent(self, p: StableParams) -> float:
        """Power of the position in the kind's Doob weight x^h (grid Monte
        Carlo, two-point hitting): 0, k and k - 1, k the downward jump
        exponent."""
        if self is Kind.STAR:
            return 0.0
        if self is Kind.UP:
            return p.down_jump_exponent
        return p.down_jump_exponent - 1.0


def _log_sum(p: float, q: float) -> float:
    """log(p + q) for p, q >= 0 not both 0, also where p + q overflows."""
    if p + q < math.inf:
        return math.log(p + q)
    return math.log(0.5 * p + 0.5 * q) + math.log(2.0)  # exact halves


def rogozin_overshoot_density(p: StableParams, a: float, x: float, y: float) -> float:
    """Density in y of the overshoot above a on the up-exit event.

    For the stable process started at x in (0, a), this is the
    (sub-probability) density of X at first passage above a, minus a,
    on the event that the upper barrier is reached before the process
    leaves the positive half-line: sin(pi k)/pi (a - x)^k x^l y^-k
    (y + a)^-l / (y + a - x), k and l the upward and downward jump
    exponents, as a sum of logs: inf past the float range, never NaN.
    """
    p.require_two_sided()
    if not (0.0 < x < a < math.inf) or math.isnan(y):
        raise DomainError("need 0 < x < a, a finite and y not NaN")
    if y <= 0.0:
        return 0.0
    k, l, y = p.up_jump_exponent, p.down_jump_exponent, float(y)
    log_f = (
        math.log(math.sin(math.pi * k) / math.pi)
        + k * math.log(a - x)
        + l * math.log(x)
        - k * math.log(y)
        - l * _log_sum(y, a)
        - _log_sum(y, a - x)
    )
    return _exp_or_inf(log_f)


def exit_up_probability(p: StableParams, a: float, x: float) -> float:
    """Probability the stable process from x in (0, a) exits above a first."""
    p.require_two_sided()
    if not (a > 0.0 and 0.0 < x < a):
        raise DomainError("need 0 < x < a")
    return float(betainc(p.down_jump_exponent, p.up_jump_exponent, x / a))


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


# Path streams are substreams of the one cycle of a PCG64DXSM LCG
# (O'Neill 2014, with numpy's DXSM output) of period 2^128, with a fixed
# odd increment: that of the reference PCG default stream.
_PCG_INC = 0x5851F42D4C957F2D14057B7EF767814F
_MASK64 = 2**64 - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """SplitMix64 output at state x (Steele, Lea & Flood 2014), a bijection
    of [0, 2^64)."""
    z = (x + _GOLDEN64) & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=16)
def _seed_state(seed: int) -> int:
    """Path 0's LCG state under seed, with the first two SplitMix64
    outputs from seed as its low and high halves."""
    return _splitmix64((seed + _GOLDEN64) & _MASK64) << 64 | _splitmix64(seed)


def path_rng(
    seed: int, path_index: int, reuse: np.random.Generator | None = None
) -> np.random.Generator:
    """Keyed PCG64DXSM generator for one simulated path.

    Path i of a seed draws the i-th of 2^64 disjoint substreams, each
    2^64 steps long, of the one PCG64DXSM cycle of increment _PCG_INC:
    the seed's state s0, advanced by numpy's ``advance(i << 64)``, whose
    cost does not grow with i.  s0 has the first two SplitMix64 outputs
    from the seed as its low and high 64 bits.  The low 64 bits of an
    LCG state fix its position on the cycle modulo 2^64, and SplitMix64
    is a bijection, so the key is injective in (seed, path_index); both
    must lie in [0, 2^64).  The generator, ``reuse`` (one made here
    before) or else a new one, is set to that state with no buffered
    output, so the stream does not depend on what it drew before, on the
    batching or on the worker count.
    """
    seed, path_index = int(seed), int(path_index)
    if not (0 <= seed < 2**64 and 0 <= path_index < 2**64):
        raise DomainError(
            f"seed and path index must lie in [0, 2^64), got {seed} and {path_index}"
        )
    if reuse is None:
        reuse = np.random.Generator(np.random.PCG64DXSM(0))
    bit_generator = reuse.bit_generator
    bit_generator.state = {
        "bit_generator": "PCG64DXSM",
        "state": {"state": _seed_state(seed), "inc": _PCG_INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator.advance(path_index << 64)
    return reuse


def increment_sampler(p: StableParams, dt: float):
    """Vectorized sampler of stable increments over time step dt.

    Returns draw(rngs, n, out=None) -> ndarray of shape (len(rngs), n):
    row r holds n independent increments drawn from rngs[r] in one call
    of 2n uniforms: the first n are the angle variates U, the last n the
    U' of the exponentials W = -log(1 - U'), by inversion, with 1 - U'
    exact.  numpy's per-call cost is that of about 250 uniforms, and its
    ziggurat exponential costs about 1.5 ns an element more than a uniform
    and a vectorized log, so one call of uniforms per row is the cheaper
    source.  ``out``, a C-contiguous
    float array of that shape, receives the increments in place.  Uses
    the trigonometric construction from uniform and exponential
    variates (Chambers, Mallows & Stuck 1976);
    the skewness is chosen so that P(X_1 > 0) = rho, and increments
    scale as dt^(1/alpha).  For alpha > 1 that needs rho in
    [1 - 1/alpha, 1/alpha]; outside it no strictly stable law exists and
    DomainError is raised.  dt must be finite and positive.  At alpha = 1
    the transform is tan(v) dt + tan(pi (rho - 1/2)) dt, a Cauchy increment
    plus the drift of the strictly 1-stable law with that rho.

    With v = (U - 1/2) pi, psi = alpha theta0 +
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
    moved onto that end.  No angle goes through a rounded v: psi is
    (alpha - 1) pi U + (alpha theta0 - (alpha - 1) pi / 2), phi / 2 is
    alpha pi (U + rho - 1) / 2, and tan^2 v is 1 / tan^2(pi m) with
    m = min(U, 1 - U), which is exact.  So (cos v)^(-1/alpha), a power up
    to 10 of a cosine that vanishes as U nears 0 or 1, keeps its relative
    accuracy there; U = 0 is read as 2^-54, half the spacing of numpy's
    uniforms.  The form needs three tangents, two logarithms and one
    exponential per increment, and no power, sine or cosine: numpy 2.4
    on an AVX-512 x86-64 host takes 1.2-2.8 ns per float64 element for
    tan, log, log1p and exp, 4.3 ns for power and 16-18 ns for sin and
    cos.  Against a 160-bit evaluation of the same transform at the
    (U, W) drawn, the relative error stays below 1e-11 over the feasible
    (alpha, rho) with alpha in [0.1, 2), U at 0, 2^-53 and 1 - 2^-53
    included: the worst seen is about 3e-12.  It can exceed that only
    where sin phi or cos psi is within about 1e-5 of zero: sin phi for
    rho < 1/2, where rho - 1 is rounded, and cos psi as U nears 0 or 1
    at a feasible end of rho for alpha > 1.  Each row is bit-identical
    to the same transform applied to that generator alone, whatever the
    batching or worker count, but not to the rows of the earlier
    samplers (direct sin and cos; cosines from half-angle tangents;
    tangents of v = (U - 1/2) pi), which lost the relative accuracy of
    (cos v)^(-1/alpha) as U neared 0 or 1: about 1 at U = 1 - 2^-53 and
    alpha = 0.1.  The sampler keeps its scratch buffers between calls,
    so one sampler must not draw in two threads at once.
    """
    if not (0.0 < dt < math.inf):
        raise DomainError(f"dt must be finite and positive, got {dt}")
    alpha = p.alpha
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
    # alpha theta0, theta0 the angle that pins P(X_1 > 0) = rho.
    a_theta0 = alpha * (math.pi * (rho - 0.5))
    # (dt / cos(a_theta0))^(1/alpha) times the 2 of sin phi = 2T / (1 + T^2).
    try:
        factor = 2.0 * (dt / math.cos(a_theta0)) ** (1.0 / alpha)
    except OverflowError:
        raise DomainError(
            f"increment scale dt^(1/alpha) overflows a float at dt={dt}, alpha={alpha}"
        ) from None
    # psi = (alpha - 1) v + a_theta0 as an affine function of U.
    psi_slope = (alpha - 1.0) * math.pi
    psi_0 = a_theta0 - psi_slope / 2.0
    # Three scratch buffers kept between calls, regrown only when a larger
    # draw is asked for: the rows' 2n uniforms, and two of n per row.
    scratch = [np.empty(0)] * 3

    def draw(rngs, n, out=None):
        # In-place form of
        #   U, U' uniforms,  W = -log(1 - U') ~ Exp(1),
        #   m = max(min(U, 1 - U), 2^-54),
        #   psi = (alpha - 1) pi U + (a_theta0 - (alpha - 1) pi / 2),
        #   c = log1p(1 / tan^2(pi m)),  T = tan(alpha pi (U + rho - 1) / 2),
        #   e = exp([c + (alpha - 1) log((1 + tan^2 psi) W^2)] / (2 alpha)),
        #   T / (1 + T^2) * e * factor,
        # in that operation order.
        v = np.empty((len(rngs), n)) if out is None else out
        if scratch[1].size < v.size:
            scratch[:] = [np.empty(2 * v.size), np.empty(v.size), np.empty(v.size)]
        uw = scratch[0][: 2 * v.size].reshape(len(rngs), 2 * n)
        w, s = (b[: v.size].reshape(v.shape) for b in scratch[1:])
        for rng, row in zip(rngs, uw):
            rng.random(out=row)
        np.copyto(v, uw[:, :n])  # U, contiguous
        np.subtract(1.0, uw[:, n:], out=w)  # 1 - U', exact
        np.log(w, out=w)  # -W: only W^2 is used
        np.multiply(v, psi_slope, out=s)
        s += psi_0
        np.tan(s, out=s)
        s *= s
        s += 1.0
        s *= w
        s *= w
        np.log(s, out=s)
        s *= alpha - 1.0
        np.subtract(1.0, v, out=w)  # w is free from here on
        np.minimum(v, w, out=w)
        np.maximum(w, _HALF_ULP_U, out=w)
        w *= math.pi
        np.tan(w, out=w)
        w *= w
        np.divide(1.0, w, out=w)
        np.log1p(w, out=w)
        w += s
        w *= 0.5 / alpha
        np.exp(w, out=w)
        v += rho - 1.0
        v *= alpha * math.pi / 2.0
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
