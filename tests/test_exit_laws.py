import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import betainc

from pssmp import exit_laws
from pssmp.errors import DomainError
from pssmp.exit_laws import (
    Direction,
    ExitWindow,
    creeping_side,
    exit_density_one_sided,
    exit_density_two_sided,
    exit_mass_one_sided,
    exit_mass_two_sided,
    extrema_density_star,
    extrema_min_star_as_printed,
    max_cdf_down,
    min_cdf_up,
    overshoot_cdf_interpolant,
)
from pssmp.numerics import _log_expm1, integrate_adaptive
from pssmp.stable import Kind, StableParams, rogozin_overshoot_density

P = StableParams(1.5, 0.5)
W = ExitWindow(v=-0.5, u=0.5)


class TestTiltStructure:
    """The three kinds share one kernel per direction up to a power of
    the exit position, so their density ratios are exact in floating
    point, not merely accurate."""

    @pytest.mark.parametrize("theta", [0.05, 0.5, 2.0, 10.0])
    def test_up_direction_ratios(self, theta):
        star = exit_density_two_sided(Kind.STAR, P, W, Direction.UP, theta)
        up = exit_density_two_sided(Kind.UP, P, W, Direction.UP, theta)
        down = exit_density_two_sided(Kind.DOWN, P, W, Direction.UP, theta)
        pos = math.exp(W.u + theta)  # exit position
        assert up / down == pytest.approx(pos, rel=5e-15)
        assert up / star == pytest.approx(pos ** Kind.UP.h_exponent(P), rel=5e-15)

    @pytest.mark.parametrize("theta", [0.05, 0.5, 2.0, 10.0])
    def test_down_direction_ratios(self, theta):
        star = exit_density_two_sided(Kind.STAR, P, W, Direction.DOWN, theta)
        up = exit_density_two_sided(Kind.UP, P, W, Direction.DOWN, theta)
        down = exit_density_two_sided(Kind.DOWN, P, W, Direction.DOWN, theta)
        pos = math.exp(W.v - theta)
        assert up / down == pytest.approx(pos, rel=5e-15)
        assert up / star == pytest.approx(pos ** Kind.UP.h_exponent(P), rel=5e-15)


class TestNormalization:
    @pytest.mark.parametrize(
        "alpha,rho", [(0.8, 0.3), (0.8, 0.7), (1.2, 0.5), (1.5, 0.5)]
    )
    def test_conditioned_kinds_have_unit_total_mass(self, alpha, rho):
        p = StableParams(alpha, rho)
        for kind in (Kind.UP, Kind.DOWN):
            total = exit_mass_two_sided(
                kind, p, W, Direction.UP
            ) + exit_mass_two_sided(kind, p, W, Direction.DOWN)
            assert total == pytest.approx(1.0, abs=1e-7)

    def test_conditioned_up_mass_at_a_wide_window_is_one(self):
        # 1.074 when the kernel rounded theta into u + theta.
        mass = exit_mass_two_sided(
            Kind.UP, P, ExitWindow(-1e16, 1e16), Direction.UP
        )
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_killed_kind_has_sub_unit_mass(self):
        total = exit_mass_two_sided(
            Kind.STAR, P, W, Direction.UP
        ) + exit_mass_two_sided(Kind.STAR, P, W, Direction.DOWN)
        assert 0.0 < total < 1.0

    @settings(max_examples=40)
    @given(
        alpha=st.floats(0.2, 1.98),
        rho=st.floats(0.02, 0.98),
        # |v| and u log-uniform in [0.05, 5].
        log_v=st.floats(math.log(0.05), math.log(5.0)),
        log_u=st.floats(math.log(0.05), math.log(5.0)),
    )
    def test_property_masses_over_the_two_sided_range(self, alpha, rho, log_v, log_u):
        p = StableParams(alpha, rho)
        assume(p.two_sided)
        w = ExitWindow(-math.exp(log_v), math.exp(log_u))

        def total(kind):
            return exit_mass_two_sided(kind, p, w, Direction.UP) + exit_mass_two_sided(
                kind, p, w, Direction.DOWN
            )

        assert total(Kind.UP) == pytest.approx(1.0, abs=1e-6)
        assert total(Kind.DOWN) == pytest.approx(1.0, abs=1e-6)
        assert 0.0 < total(Kind.STAR) < 1.0

    def test_one_sided_masses(self):
        # UP crosses any upper barrier a.s.; DOWN crosses any lower one.
        assert exit_mass_one_sided(Kind.UP, P, Direction.UP, 0.7) == pytest.approx(
            1.0, abs=1e-7
        )
        assert exit_mass_one_sided(
            Kind.DOWN, P, Direction.DOWN, -0.7
        ) == pytest.approx(1.0, abs=1e-7)


class TestOneSidedLimit:
    @pytest.mark.parametrize("theta", [0.1, 1.0, 5.0])
    def test_far_barrier_recovers_one_sided_density(self, theta):
        far = ExitWindow(v=-30.0, u=0.5)
        for kind in (Kind.STAR, Kind.UP, Kind.DOWN):
            two = exit_density_two_sided(kind, P, far, Direction.UP, theta)
            one = exit_density_one_sided(kind, P, Direction.UP, 0.5, theta)
            assert two == pytest.approx(one, rel=1e-8)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("alpha, rho", [(1.5, 0.5), (0.8, 0.3), (1.2, 0.7)])
    def test_far_barrier_at_700_is_one_sided_to_rounding(self, direction, alpha, rho):
        # Every factor that carries the far barrier differs from 1 by about
        # e^-700 there, so the two-sided kernel must give the one-sided law.
        p = StableParams(alpha, rho)
        if direction is Direction.UP:
            far, barrier = ExitWindow(-700.0, 0.5), 0.5
        else:
            far, barrier = ExitWindow(-0.5, 700.0), -0.5
        for kind in Kind:
            for theta in (0.01, 1.0, 20.0):
                two = exit_density_two_sided(kind, p, far, direction, theta)
                one = exit_density_one_sided(kind, p, direction, barrier, theta)
                assert two == pytest.approx(one, rel=1e-13)


class TestStarIsExitLawOfStable:
    """The killed kind in log scale is the plain stable exit law after
    the exponential change of variable x = e^w."""

    @pytest.mark.parametrize("alpha, rho", [(1.5, 0.5), (0.8, 0.3)])
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("theta", [0.05, 0.3, 1.0, 3.0])
    def test_translation_to_interval_exit(self, theta, direction, alpha, rho):
        p = StableParams(alpha, rho)
        u, v = W.u, W.v
        a = math.exp(u) - math.exp(v)
        x = 1.0 - math.exp(v)
        if direction is Direction.UP:
            pos = math.exp(u + theta)
            expected = rogozin_overshoot_density(p, a, x, pos - math.exp(u)) * pos
        else:
            # Below e^v, X is the reflected process a - X (rho -> 1 - rho),
            # started at a - x, passing above a.
            pos = math.exp(v - theta)
            reflected = StableParams(alpha, 1.0 - rho)
            expected = (
                rogozin_overshoot_density(reflected, a, a - x, math.exp(v) - pos) * pos
            )
        got = exit_density_two_sided(Kind.STAR, p, W, direction, theta)
        assert got == pytest.approx(expected, rel=1e-13)


def _reference_density(kind, p, direction, u, v, theta, dps=40):
    """The log-scale overshoot density in mpmath, from the process scale.

    Shifted by e^v, the log-scale window is (0, e^u - e^v) for the stable
    process started at 1 - e^v.  Going up, with d = e^u - 1 and e = 1 - e^v
    the distances from the start to the crossed and the far barrier, the
    overshoot y above the crossed barrier has Rogozin's density

        sin(pi k)/pi d^k y^-k (e / (y + d + e))^l / (y + d),

    k and l the upward and downward jump exponents of ``StableParams``.
    Going down it is the same law for the reflected process, with k and l
    trading places, d = 1 - e^v and e = e^u - 1.  The reference checks the
    numerics of one side's law; which exponent belongs to which side is
    checked against simulated paths in test_side_exponents.py.  dy/dtheta is the exit position pos, and the kind's Doob weight
    multiplies by pos^h; u = +inf or v = -inf makes e infinite and the
    far factor 1.
    """
    mp = mpmath
    with mp.workdps(dps):
        u, v, theta = (mp.mpf(t) for t in (u, v, theta))
        up, down = mp.mpf(p.up_jump_exponent), mp.mpf(p.down_jump_exponent)
        h = {Kind.STAR: 0, Kind.UP: down, Kind.DOWN: down - 1}[kind]
        if direction is Direction.UP:
            pos = mp.exp(u) * mp.exp(theta)
            d, e, y = mp.expm1(u), -mp.expm1(v), mp.exp(u) * mp.expm1(theta)
            k, l = up, down
        else:
            pos = mp.exp(v) * mp.exp(-theta)
            d, e, y = -mp.expm1(v), mp.expm1(u), -mp.exp(v) * mp.expm1(-theta)
            k, l = down, up
        far = 1 if mp.isinf(e) else (e / (y + d + e)) ** l
        f = mp.sin(mp.pi * k) / mp.pi * d**k * y**-k * far / (y + d)
        return f * pos ** (1 + h)


# The grid holds the rows that a kernel written once per direction got
# wrong: the window (-1e-9, 1e-9) at theta 1e-12, where log1p(-e^x) lost
# digits (1.3e-8 relative going up, 5.0e-8 going down, at alpha 1.5), and
# u = 1e12 or 1e16 with v = -0.5, where u + theta rounded theta away (2.1e-5
# relative at u = 1e12, theta 0.5; 8.8 at u = 1e16, theta 30, alpha 1.9).
ACCURACY_PARAMS = [(0.5, 0.6), (0.8, 0.3), (1.5, 0.5), (1.9, 0.52)]
BARRIERS = [1e-9, 1e-4, 0.5, 3.0, 40.0, 1e12, 1e16]
THETAS = [1e-12, 1e-6, 0.01, 0.5, 1.0, 30.0]


def _relative_error(got, want):
    # A density that underflows is compared absolutely, at the float
    # range's own resolution.
    return abs(got - want) / max(want, 1e-290)


class TestAgainstProcessScaleLaw:
    """Each scalar density against the 40-digit process-scale law, over
    barriers from 1e-9 to 1e16 and overshoots from 1e-12 to 30, and over
    the whole float range for what it may return."""

    @pytest.mark.parametrize("alpha, rho", ACCURACY_PARAMS)
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("kind", list(Kind))
    def test_two_sided_to_1e_12(self, kind, direction, alpha, rho):
        p = StableParams(alpha, rho)
        worst = (0.0, ())
        for u in BARRIERS:
            for v in BARRIERS:
                for theta in THETAS:
                    got = exit_density_two_sided(
                        kind, p, ExitWindow(-v, u), direction, theta
                    )
                    want = float(_reference_density(kind, p, direction, u, -v, theta))
                    worst = max(worst, (_relative_error(got, want), (u, -v, theta)))
        assert worst[0] <= 1e-12, worst

    @pytest.mark.parametrize("alpha, rho", ACCURACY_PARAMS)
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("kind", list(Kind))
    def test_one_sided_to_1e_12(self, kind, direction, alpha, rho):
        p = StableParams(alpha, rho)
        sign = 1.0 if direction is Direction.UP else -1.0
        for b in BARRIERS:
            u, v = (b, -math.inf) if sign > 0 else (math.inf, -b)
            for theta in THETAS:
                got = exit_density_one_sided(kind, p, direction, sign * b, theta)
                want = float(_reference_density(kind, p, direction, u, v, theta))
                assert _relative_error(got, want) <= 1e-12, (b, theta, got, want)

    @settings(max_examples=200)
    @given(
        alpha=st.floats(0.05, 1.99),
        rho=st.floats(0.01, 0.99),
        log_u=st.floats(math.log(1e-320), math.log(1e308)),
        log_v=st.floats(math.log(1e-320), math.log(1e308)),
        log_theta=st.none() | st.floats(math.log(1e-320), math.log(1e308)),
        numpy_theta=st.booleans(),
    )
    def test_property_extreme_inputs_give_a_float(
        self, alpha, rho, log_u, log_v, log_theta, numpy_theta
    ):
        # Every scalar density is a float >= 0 and nothing raises or warns;
        # inf only at theta = 0 or where the 800-digit law is past the float
        # range.
        p = StableParams(alpha, rho)
        assume(p.two_sided)
        u, v = math.exp(log_u), -math.exp(log_v)
        theta = 0.0 if log_theta is None else math.exp(log_theta)
        if numpy_theta:
            theta = np.float64(theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in Kind:
                for direction in Direction:
                    if direction is Direction.UP:
                        barrier, one = u, (u, -math.inf)
                    else:
                        barrier, one = v, (math.inf, v)
                    two_sided = exit_density_two_sided(
                        kind, p, ExitWindow(v, u), direction, theta
                    )
                    one_sided = exit_density_one_sided(kind, p, direction, barrier, theta)
                    for got, (uu, vv) in ((two_sided, (u, v)), (one_sided, one)):
                        assert type(got) is float and got >= 0.0
                        if got == math.inf and theta != 0.0:
                            ref = _reference_density(kind, p, direction, uu, vv, theta, 800)
                            assert mpmath.log(ref) > math.log(sys.float_info.max) - 1e-9



class TestExtremaLaws:
    def test_min_cdf_up_matches_exit_mass(self):
        for z in (0.3, 1.0, 3.0):
            drop = exit_mass_one_sided(Kind.UP, P, Direction.DOWN, -z)
            assert 1.0 - min_cdf_up(P, z) == pytest.approx(drop, abs=1e-7)
        assert min_cdf_up(P, 0.0) == 0.0

    def test_max_cdf_down_matches_exit_mass(self):
        for z in (0.3, 1.0, 3.0):
            rise = exit_mass_one_sided(Kind.DOWN, P, Direction.UP, z)
            assert 1.0 - max_cdf_down(P, z) == pytest.approx(rise, abs=1e-7)

    def test_star_max_density_mass(self):
        mass = integrate_adaptive(
            lambda z: extrema_density_star(P, z, "max"), 0.0, math.inf, tol=1e-10
        ).value
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_star_min_density_basic(self):
        d = extrema_density_star(P, 0.8, "min")
        assert 0.0 < d < math.inf
        with pytest.raises(DomainError):
            extrema_density_star(P, 0.8, "median")

    def test_as_printed_min_density_grows(self):
        # The closed-form candidate grows without bound, so it cannot be
        # a density; the derived route above is the usable law.
        assert extrema_min_star_as_printed(P, 6.0) > extrema_min_star_as_printed(
            P, 3.0
        )

    def test_as_printed_min_density_in_log_form(self):
        # (e^z - 1)^(alpha rho) / (Gamma(alpha rho) Gamma(1 - alpha rho)),
        # formed in logs: finite at z 800, where e^z overflows.
        ar = P.down_jump_exponent
        norm = math.gamma(ar) * math.gamma(1.0 - ar)
        assert extrema_min_star_as_printed(P, 0.0) == 0.0
        assert extrema_min_star_as_printed(P, 2.0) == pytest.approx(
            math.expm1(2.0) ** ar / norm, rel=1e-14
        )
        assert extrema_min_star_as_printed(P, 800.0) == pytest.approx(
            math.exp(800.0 * ar) / norm, rel=1e-12
        )


def _mpmath_extrema_density(p, z, which, dps=50):
    """The killed process's extrema densities at dps digits, k and l the
    upward and downward jump exponents: the maximum's
    Gamma(alpha)/(Gamma(l) Gamma(k)) e^(-k z) (1 - e^-z)^(l - 1), the
    minimum's (e^z - 1)^(l - 1) / (Gamma(l) Gamma(1 - l))."""
    mp = mpmath
    with mp.workdps(dps):
        k, l, z = (mp.mpf(t) for t in (p.up_jump_exponent, p.down_jump_exponent, z))
        if which == "max":
            const = mp.gamma(p.alpha) / (mp.gamma(l) * mp.gamma(k))
            return const * mp.exp(-k * z) * (-mp.expm1(-z)) ** (l - 1)
        return mp.expm1(z) ** (l - 1) / (mp.gamma(l) * mp.gamma(1 - l))


class TestExtremaExtremeInputs:
    @settings(max_examples=300)
    @given(
        # Down to the smallest alpha whose side exponents are positive:
        # 1e-323 at rho 1/2, where both are 5e-324.
        alpha=st.floats(0.05, 1.99)
        | st.floats(math.log(5e-324), math.log(0.05)).map(math.exp),
        rho=st.floats(0.01, 0.99),
        log_z=st.none() | st.floats(math.log(5e-324), math.log(1e308)),
        which=st.sampled_from(["max", "min"]),
    )
    @example(alpha=1e-323, rho=0.5, log_z=math.log(0.5), which="min")
    @example(alpha=1e-323, rho=0.5, log_z=math.log(1e-300), which="max")
    @example(alpha=1e-320, rho=0.3, log_z=math.log(0.5), which="max")
    # log Gamma of a side exponent below 5.5e-309 was inf: the min density
    # was 0 here (0.77 alpha), and NaN at alpha 1e-320.
    @example(alpha=1e-310, rho=0.5, log_z=math.log(0.5), which="min")
    @example(alpha=1e-320, rho=0.5, log_z=math.log(0.5), which="min")
    def test_property_extreme_inputs_give_a_float(self, alpha, rho, log_z, which):
        # A float >= 0, never NaN and no warning; inf only at z = 0 or where
        # the 50-digit law is past the float range, and finite values within
        # 1e-9 of it, or of one subnormal spacing where it is that small.
        p = StableParams(alpha, rho)
        assume(p.two_sided)
        z = 0.0 if log_z is None else math.exp(log_z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = extrema_density_star(p, z, which)
        assert type(got) is float and got >= 0.0
        if z == 0.0:
            assert got == math.inf
            return
        want = _mpmath_extrema_density(p, z, which)
        if got == math.inf:
            assert want > sys.float_info.max * (1.0 - 1e-9)
        else:
            assert abs(got - want) <= 1e-9 * want + 5e-324, (got, want)


def _min_density_by_difference(p, z):
    """Central difference of P(no drop below -z), each side by quadrature."""
    h = min(1e-5, z / 4.0)

    def no_drop_below(zz):
        return 1.0 - exit_mass_one_sided(Kind.STAR, p, Direction.DOWN, -zz, tol=1e-10)

    return (no_drop_below(z + h) - no_drop_below(z - h)) / (2.0 * h)


_MIN_PARAMS = [(1.5, 0.5), (0.8, 0.3), (1.2, 0.7), (0.5, 0.5), (1.8, 0.5), (1.3, 0.45)]


class TestStarMinimumClosedForm:
    """The killed process drops below -z with probability
    I_{e^-z}(1 - alpha*rho, alpha*rho); the minimum density is its
    derivative, (e^z - 1)^(alpha*rho - 1) / (Gamma(alpha*rho) Gamma(1 - alpha*rho))."""

    @pytest.mark.parametrize("alpha,rho", _MIN_PARAMS)
    def test_cdf_matches_one_sided_exit_mass(self, alpha, rho):
        p = StableParams(alpha, rho)
        ar = p.down_jump_exponent
        for z in (0.01, 0.3, 1.0, 3.0, 10.0):
            drop = exit_mass_one_sided(Kind.STAR, p, Direction.DOWN, -z, tol=1e-12)
            closed = betainc(1.0 - ar, ar, math.exp(-z))
            assert closed == pytest.approx(drop, abs=1e-9)

    @pytest.mark.parametrize("alpha,rho", _MIN_PARAMS[:3])
    @pytest.mark.parametrize("z", [0.1, 0.8, 3.0])
    def test_density_matches_central_difference(self, alpha, rho, z):
        p = StableParams(alpha, rho)
        assert extrema_density_star(p, z, "min") == pytest.approx(
            _min_density_by_difference(p, z), rel=1e-5
        )

    @pytest.mark.parametrize("alpha,rho", _MIN_PARAMS)
    def test_density_has_unit_mass(self, alpha, rho):
        p = StableParams(alpha, rho)
        mass = integrate_adaptive(
            lambda z: extrema_density_star(p, z, "min"), 0.0, math.inf, tol=1e-10
        ).value
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_endpoints(self):
        assert extrema_density_star(P, 0.0, "min") == math.inf
        far = extrema_density_star(P, 800.0, "min")
        assert 0.0 <= far < math.inf

    @pytest.mark.parametrize("which", ["max", "min"])
    def test_beyond_float_range_at_tiny_z_is_inf(self, which):
        # At alpha*rho = 0.01 both densities behave like z^-0.99 near 0,
        # which exceeds the float range at z = 5e-324.
        p = StableParams(0.02, 0.5)
        assert extrema_density_star(p, 5e-324, which) == math.inf
        assert 0.0 < extrema_density_star(p, 1e-300, which) < math.inf

    def test_max_past_power_overflow_stays_finite(self):
        # (1 - e^-z)^(alpha*rho - 1) alone overflows here, but the density
        # does not: the constant Gamma(alpha) / (Gamma(ar) Gamma(arh)) is
        # about 1/200 at alpha 0.02.
        p = StableParams(0.02, 0.5)
        z = math.exp(-712.0 / 0.99)
        got = extrema_density_star(p, z, "max")
        log_const = math.lgamma(0.02) - 2.0 * math.lgamma(0.01)
        assert got == pytest.approx(math.exp(log_const - 0.99 * math.log(z)), rel=1e-12)


def _creeping_model(alpha, side):
    """The model at alpha that creeps through the upper barrier (side UP: no
    positive jumps) or the lower one (side DOWN: no negative jumps), picked
    by its one-sided property rather than by rho, as verify.exit_law_of
    picks it, so that it follows the library's convention."""
    up = side is Direction.UP
    for rho in (1.0 - 1.0 / alpha, 1.0 / alpha):
        p = StableParams(alpha, rho)
        if p.spectrally_negative if up else p.spectrally_positive:
            return p
    raise AssertionError(f"no one-sided model at alpha={alpha}")


def _creeping_up_mass(p, w):
    """z^(alpha - 1), z = (1 - e^v)/(e^u - e^v): W(x)/W(a) for the
    spectrally negative stable process from x = 1 - e^v in (0, a)."""
    z = -math.expm1(w.v) / (math.exp(w.u) - math.exp(w.v))
    return z ** (p.alpha - 1.0)


class TestCreeping:
    def test_spectrally_negative_up_side(self):
        # The killed process can jump below 0 before it exits, so its up
        # mass is W(x)/W(a), short of 1 - down mass by the killed mass.
        p = _creeping_model(1.5, Direction.UP)
        assert creeping_side(p, Direction.UP)
        up = exit_mass_two_sided(Kind.STAR, p, W, Direction.UP)
        down = exit_mass_two_sided(Kind.STAR, p, W, Direction.DOWN)
        assert up == pytest.approx(_creeping_up_mass(p, W), rel=1e-14)
        assert up == pytest.approx(0.61444338127947, abs=1e-13)
        assert up < 1.0 - down - 0.07
        assert exit_density_two_sided(Kind.STAR, p, W, Direction.UP, 0.5) == 0.0
        with pytest.raises(DomainError):
            exit_mass_one_sided(Kind.STAR, p, Direction.UP, 0.5)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("w", [W, ExitWindow(-2.0, 0.1), ExitWindow(-0.05, 3.0)])
    def test_conditioned_up_masses_are_tilts_of_the_killed_one(self, alpha, w):
        # The conditioned kinds have unit total mass, so their up mass is
        # 1 - down mass, by quadrature; it must equal the Doob tilt
        # e^(u*h) of the killed kind's closed-form up mass.
        p = _creeping_model(alpha, Direction.UP)
        star = exit_mass_two_sided(Kind.STAR, p, w, Direction.UP)
        for kind in (Kind.UP, Kind.DOWN):
            h = kind.h_exponent(p)
            up = exit_mass_two_sided(kind, p, w, Direction.UP)
            assert up == pytest.approx(math.exp(w.u * h) * star, abs=1e-11)

    @pytest.mark.parametrize(
        "w", [ExitWindow(-5e-324, 5e-324), ExitWindow(-1e-8, 1e-300),
              ExitWindow(-800.0, 800.0), ExitWindow(-1e308, 1e308)]
    )
    def test_killed_up_mass_in_range_for_extreme_windows(self, w):
        p = _creeping_model(1.5, Direction.UP)
        up = exit_mass_two_sided(Kind.STAR, p, w, Direction.UP)
        assert 0.0 <= up <= 1.0

    def test_spectrally_positive_down_side(self):
        # With no negative jumps the killed process cannot pass below 0
        # without first creeping through e^v, so 1 - up mass is right here.
        p = _creeping_model(1.5, Direction.DOWN)
        assert creeping_side(p, Direction.DOWN)
        assert exit_density_two_sided(Kind.UP, p, W, Direction.DOWN, 0.5) == 0.0
        up = exit_mass_two_sided(Kind.STAR, p, W, Direction.UP)
        down = exit_mass_two_sided(Kind.STAR, p, W, Direction.DOWN)
        assert down == 1.0 - up

    def test_one_sided_barrier_checked_on_a_creeping_side(self):
        # The barrier is checked before the creeping shortcut returns 0.
        p = _creeping_model(1.5, Direction.UP)
        assert exit_density_one_sided(Kind.STAR, p, Direction.UP, 0.5, 0.5) == 0.0
        for bad in (-0.5, 0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="upper barrier"):
                exit_density_one_sided(Kind.STAR, p, Direction.UP, bad, 0.5)


class TestInterpolant:
    @pytest.mark.parametrize("alpha, rho", [(1.5, 0.5), (0.8, 0.3)])
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("kind", list(Kind))
    def test_array_densities_match_scalar_ones(self, kind, alpha, rho, direction):
        # The table is one numpy pass of the formula the scalar density
        # runs on math: they differ only where numpy's log, log1p, expm1
        # or exp rounds a term one ulp apart from the C library's.  Each
        # such term is at most about 1 + |log theta| in size (log theta
        # from log(1 - e^-theta) at small theta), and there are five, so
        # the density moves by at most a few ulp of that, relative; the
        # largest seen is 5.5 ulp of 1 + |log theta|.
        p = StableParams(alpha, rho)
        grid = np.geomspace(1e-7, 256.0, 4000)
        table = exit_laws._density(kind, p, direction, W.u, W.v)(grid)
        scalar = np.array([exit_density_two_sided(kind, p, W, direction, t) for t in grid])
        assert np.all(scalar > 0.0)
        ulps = np.abs(table - scalar) / (scalar * np.finfo(float).eps)
        assert np.all(ulps <= 16.0 * (1.0 + np.abs(np.log(grid)))), ulps.max()

    def test_scalar_densities_are_floats(self):
        for theta in (0.0, 0.5, np.float64(0.5)):
            for direction, barrier in ((Direction.UP, 0.5), (Direction.DOWN, -0.5)):
                two = exit_density_two_sided(Kind.UP, P, W, direction, theta)
                assert type(two) is float
                one = exit_density_one_sided(Kind.UP, P, direction, barrier, theta)
                assert type(one) is float

    def test_cdf_matches_quadrature(self):
        cdf, mass = overshoot_cdf_interpolant(Kind.UP, P, Direction.UP, window=W)
        ref_mass = exit_mass_two_sided(Kind.UP, P, W, Direction.UP)
        assert mass == pytest.approx(ref_mass, abs=2e-5)
        for theta in (0.1, 0.5, 1.5, 4.0):
            ref = (
                integrate_adaptive(
                    lambda t: exit_density_two_sided(Kind.UP, P, W, Direction.UP, t),
                    0.0,
                    theta,
                    tol=1e-10,
                ).value
                / ref_mass
            )
            assert cdf(theta) == pytest.approx(ref, abs=5e-5)

    def test_cdf_endpoints(self):
        cdf, _ = overshoot_cdf_interpolant(Kind.DOWN, P, Direction.DOWN, window=W)
        assert cdf(0.0) == 0.0
        assert cdf(1e9) == pytest.approx(1.0, abs=1e-12)

    def test_creeping_side_rejected(self):
        p = _creeping_model(1.5, Direction.UP)
        with pytest.raises(DomainError):
            overshoot_cdf_interpolant(Kind.STAR, p, Direction.UP, window=W)


class TestQueryValidation:
    def test_window_orientation(self):
        with pytest.raises(DomainError):
            ExitWindow(v=0.5, u=1.0)

    def test_window_must_be_finite(self):
        inf = math.inf
        for v, u in ((-inf, inf), (-0.5, inf), (-inf, 0.5), (math.nan, 0.5)):
            with pytest.raises(DomainError):
                ExitWindow(v, u)

    def test_negative_theta(self):
        with pytest.raises(DomainError):
            exit_density_two_sided(Kind.STAR, P, W, Direction.UP, -0.1)
        with pytest.raises(DomainError):
            exit_density_one_sided(Kind.STAR, P, Direction.UP, 0.5, -0.1)


class TestLargeBarriers:
    @pytest.mark.parametrize("u", [1.0 + 1e-9, 1.5, 3.0, 10.0, 40.0, 300.0, 700.0])
    def test_log_expm1_matches_direct_form(self, u):
        assert _log_expm1(u) == pytest.approx(math.log(math.expm1(u)), rel=1e-15)

    @pytest.mark.parametrize("u", [1e-12, 1e-3, 0.5, 1.0])
    def test_log_expm1_small_argument_is_direct_form(self, u):
        assert _log_expm1(u) == math.log(math.expm1(u))

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("direction", list(Direction))
    def test_densities_finite_where_e_u_overflows(self, kind, direction):
        # e^800 overflows a float; the log-scale densities do not need it.
        far = ExitWindow(-800.0, 800.0)
        for theta in (0.01, 1.0, 30.0):
            two = exit_density_two_sided(kind, P, far, direction, theta)
            barrier = 800.0 if direction is Direction.UP else -800.0
            one = exit_density_one_sided(kind, P, direction, barrier, theta)
            assert math.isfinite(two) and two >= 0.0
            assert math.isfinite(one) and one >= 0.0
