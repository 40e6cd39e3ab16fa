"""Closed-form exit densities and extrema laws for the log-scale processes.

All six two-sided overshoot densities (three process kinds, two exit
directions) share one kernel for both directions and differ only through
a power of the exit position; keeping that structure explicit makes the
exponential-tilt identities between the kinds exact in floating point
rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .numerics import _exp_or_inf, _log_expm1, integrate_adaptive, log_gamma
from .stable import Kind, StableParams

__all__ = [
    "Direction",
    "ExitWindow",
    "exit_density_two_sided",
    "exit_density_one_sided",
    "exit_mass_two_sided",
    "exit_mass_one_sided",
    "overshoot_cdf_interpolant",
    "creeping_side",
    "min_cdf_up",
    "max_cdf_down",
    "extrema_density_star",
    "extrema_min_star_as_printed",
]


class Direction(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class ExitWindow:
    """Two-sided exit window v < 0 < u in log scale."""

    v: float
    u: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.u)):
            raise DomainError(
                f"window needs finite v and u, got v={self.v}, u={self.u}"
            )
        if not (self.v < 0.0 < self.u):
            raise DomainError(f"window requires v < 0 < u, got v={self.v}, u={self.u}")


def creeping_side(p: StableParams, direction: Direction) -> bool:
    """True when the given exit direction can only happen by creeping.

    A spectrally negative process crosses an upper level continuously;
    a spectrally positive one crosses a lower level continuously.  The
    overshoot density on that side is identically zero and the exit
    probability sits in a point mass at theta = 0.
    """
    if direction is Direction.UP:
        return p.spectrally_negative
    return p.spectrally_positive


def _validate_mode(p: StableParams):
    if not (p.two_sided or p.spectrally_negative or p.spectrally_positive):
        raise DomainError(
            "parameters must be two-sided or sit on a spectrally "
            "one-sided boundary"
        )


def _density(kind: Kind, p: StableParams, direction: Direction, u: float, v: float):
    """Overshoot density on the window (v, u), off the creeping side.

    Rogozin's two-sided exit law (Theory Probab. Appl. 17, 1972) in log
    scale by the Lamperti change of variable (Caballero & Chaumont, J.
    Appl. Probab. 2006), one formula for both directions.  With b the
    crossed barrier, c the far one, (k, l) the jump exponents of the
    crossed and the far side and h the kind's Doob exponent, log f(theta) =

        log(sin(pi k) / pi) + k log(1 - e^-|b|) + l log(1 - e^-|c|) + beta b
        + s slope theta - k log(1 - e^-theta) - l log(1 - e^(v - u - theta))
        - log(1 - e^(-|b| - theta)),

    s = +1, slope = h - k - l, beta = h - l going up, and s = -1,
    slope = h + 1, beta = h - (k - 1) going down: beta is exactly 0 for the
    kind whose Doob weight cancels the barrier.  No term adds theta to a
    barrier, and each far-barrier factor is exactly 1 at u = +inf or
    v = -inf, which gives the one-sided law.

    Returns theta -> density: a float theta >= 0 gives a float (inf past
    the float range), an array of positive floats one numpy pass within a
    few ulp of 1 + |log theta| of it, relative (numpy's log and exp round
    some values one ulp apart from libm's; log(1 - e^-theta) ~ log theta).
    """
    _validate_mode(p)
    h = kind.h_exponent(p)
    if direction is Direction.UP:
        k, l = p.up_jump_exponent, p.down_jump_exponent
        b, c, s_slope, beta = u, v, h - k - l, h - l
    else:
        k, l = p.down_jump_exponent, p.up_jump_exponent
        b, c, s_slope, beta = v, u, -(h + 1.0), h - (k - 1.0)
    near, gap = -abs(b), v - u
    log_fixed = (
        math.log(math.sin(math.pi * k) / math.pi)
        + k * math.log(-math.expm1(near))
        + l * math.log(-math.expm1(-abs(c)))
        + beta * b
    )

    def density(theta):
        if isinstance(theta, np.ndarray):
            xp = np
        elif theta == 0.0:
            return math.inf if k > 0 else 0.0
        else:
            xp, theta = math, float(theta)
        log_f = (
            log_fixed
            + s_slope * theta
            - k * xp.log(-xp.expm1(-theta))
            - l * xp.log(-xp.expm1(gap - theta))
            - xp.log(-xp.expm1(near - theta))
        )
        return np.exp(log_f) if xp is np else _exp_or_inf(log_f)

    return density


def _check_theta(theta):
    if not theta >= 0.0:
        raise DomainError(f"theta must be nonnegative, got {theta}")


def _one_sided_window(direction: Direction, barrier: float) -> tuple[float, float]:
    """(u, v) of the one-sided problem: the far barrier is at infinity."""
    if direction is Direction.UP:
        if not 0.0 < barrier < math.inf:
            raise DomainError("finite upper barrier u > 0 required")
        return barrier, -math.inf
    if not -math.inf < barrier < 0.0:
        raise DomainError("finite lower barrier v < 0 required")
    return math.inf, barrier


def exit_density_two_sided(
    kind: Kind, p: StableParams, window: ExitWindow, direction: Direction, theta: float
) -> float:
    """Overshoot density at theta for the two-sided exit problem.

    Direction UP: density of the overshoot above u on the event that the
    upper barrier is passed first.  Direction DOWN: density of the
    undershoot below v on the complementary event.  Sub-probability
    density in theta; on a creeping side it is identically zero.
    """
    _check_theta(theta)
    if creeping_side(p, direction):
        return 0.0
    return _density(kind, p, direction, window.u, window.v)(theta)


def exit_density_one_sided(
    kind: Kind, p: StableParams, direction: Direction, barrier: float, theta: float
) -> float:
    """Overshoot density for the one-sided exit problem.

    The limit of the two-sided density as the opposite barrier recedes:
    the same kernel with v = -inf for direction UP (barrier u > 0), u = +inf
    for DOWN (barrier v < 0).
    """
    _check_theta(theta)
    u, v = _one_sided_window(direction, barrier)
    if creeping_side(p, direction):
        return 0.0
    return _density(kind, p, direction, u, v)(theta)


def exit_mass_two_sided(
    kind: Kind,
    p: StableParams,
    window: ExitWindow,
    direction: Direction,
    tol: float = 1e-9,
) -> float:
    """Total probability of exiting through the given side of the window."""
    u, v = window.u, window.v
    if creeping_side(p, direction):
        if kind is Kind.STAR and direction is Direction.UP:
            # The killed process can also jump below 0, so its up mass is not
            # 1 - down mass but the scale-function ratio W(x)/W(a) with
            # W(x) = x^l (l the downward exponent), x = 1 - e^v, a = e^u - e^v.
            # In logs, z = x/a = 1/(1 + (e^u - 1)/(1 - e^v)) stays in (0, 1].
            log_z = -float(np.logaddexp(0.0, _log_expm1(u) - math.log(-math.expm1(v))))
            return math.exp(p.down_jump_exponent * log_z)
        # Point mass at theta = 0: everything not leaving the other way.
        other = Direction.DOWN if direction is Direction.UP else Direction.UP
        return 1.0 - exit_mass_two_sided(kind, p, window, other, tol=tol)
    density = _density(kind, p, direction, u, v)
    return integrate_adaptive(density, 0.0, math.inf, tol=tol).value


def exit_mass_one_sided(
    kind: Kind,
    p: StableParams,
    direction: Direction,
    barrier: float,
    tol: float = 1e-9,
) -> float:
    """Probability of ever crossing the single barrier (u > 0 or v < 0)."""
    if creeping_side(p, direction):
        raise DomainError("one-sided mass on a creeping side has no density route")
    u, v = _one_sided_window(direction, barrier)
    density = _density(kind, p, direction, u, v)
    return integrate_adaptive(density, 0.0, math.inf, tol=tol).value


def overshoot_cdf_interpolant(
    kind: Kind, p: StableParams, direction: Direction, window: ExitWindow
):
    """Normalized two-sided overshoot CDF as a fast callable, plus the side mass.

    Tabulates the overshoot density on a graded grid of 4000 points, in
    one array pass of the exit-density formula, and integrates it
    cumulatively; the integrable power singularity at theta = 0 is patched
    analytically from the local exponent.  Intended for
    empirical-distribution comparisons, where a few-times-1e-5
    interpolation error is negligible.  Returns (cdf, mass).
    """
    if creeping_side(p, direction):
        raise DomainError("no overshoot CDF on a creeping side")
    dens = _density(kind, p, direction, window.u, window.v)
    # Singularity exponent at theta = 0: the density behaves like
    # C * theta^(-a0) with a0 the jump exponent of the crossed side.
    a0 = p.up_jump_exponent if direction is Direction.UP else p.down_jump_exponent
    theta_max = 1.0
    while dens(theta_max) > 1e-15 and theta_max < 256.0:
        theta_max *= 2.0
    grid = np.concatenate(([0.0], np.geomspace(1e-7, theta_max, 4000)))
    vals = np.concatenate(([0.0], dens(grid[1:])))
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)))
    )
    # Replace the first trapezoid by the exact integral of the local power.
    head = vals[1] * grid[1] / (1.0 - a0)
    cum[1:] += head - cum[1]
    mass = float(cum[-1])

    def cdf(theta):
        return float(np.interp(theta, grid, cum)) / mass

    return cdf, mass


def min_cdf_up(p: StableParams, z: float) -> float:
    """CDF of the all-time drop of the conditioned-to-stay-positive process.

    P(-inf of the UP process <= z) = (1 - e^-z)^k, k the downward exponent.
    """
    _validate_mode(p)
    if not z >= 0.0:
        raise DomainError("z must be nonnegative")
    return (-math.expm1(-z)) ** p.down_jump_exponent


def max_cdf_down(p: StableParams, z: float) -> float:
    """CDF of the all-time rise of the conditioned-to-hit-zero process.

    P(sup of the DOWN process <= z) = (1 - e^-z)^k, k the upward exponent.
    """
    _validate_mode(p)
    if not z >= 0.0:
        raise DomainError("z must be nonnegative")
    return (-math.expm1(-z)) ** p.up_jump_exponent


def extrema_density_star(p: StableParams, z: float, which: str = "max") -> float:
    """Density of the all-time maximum or minimum of the killed process.

    Both are beta-type laws in closed form, in the upward and downward jump
    exponents k and l.  The killed process drops below -z with probability
    I_{e^-z}(1 - l, l), the one-sided down exit mass; differentiating gives
    the minimum density (e^z - 1)^(l - 1) / (Gamma(l) Gamma(1 - l)).  Both
    densities diverge at z = 0 and are inf wherever they exceed the float
    range.
    """
    p.require_two_sided()
    if not z >= 0.0:
        raise DomainError("z must be nonnegative")
    k, l = p.up_jump_exponent, p.down_jump_exponent
    if which == "max":
        if z == 0.0:
            return math.inf if l < 1.0 else 0.0
        log_const = log_gamma(p.alpha) - log_gamma(l) - log_gamma(k)
        try:  # a normal constant keeps its digits in the product
            if log_const > -708.0:
                return math.exp(log_const) * math.exp(-z * k) * (-math.expm1(-z)) ** (l - 1.0)
        except OverflowError:  # only at subnormal z
            pass
        return _exp_or_inf(log_const - z * k + (l - 1.0) * math.log(-math.expm1(-z)))
    if which == "min":
        if z == 0.0:
            return math.inf
        log_norm = log_gamma(l) + log_gamma(1.0 - l)
        return _exp_or_inf((l - 1.0) * _log_expm1(z) - log_norm)
    raise DomainError(f"which must be 'max' or 'min', got {which!r}")


def extrema_min_star_as_printed(p: StableParams, z: float) -> float:
    """Printed candidate for the killed process's minimum density.

    (e^z - 1)^l / (Gamma(l) * Gamma(1 - l)), l the downward jump exponent:
    the closed form of ``extrema_density_star(which="min")`` with the
    exponent l in place of l - 1.  It grows without bound
    in z, so it cannot be a probability density; it is exposed only so
    reports can show it next to the derived law.
    """
    p.require_two_sided()
    if not z >= 0.0:
        raise DomainError("z must be nonnegative")
    if z == 0.0:
        return 0.0
    l = p.down_jump_exponent
    log_norm = log_gamma(l) + log_gamma(1.0 - l)
    return _exp_or_inf(l * _log_expm1(z) - log_norm)
