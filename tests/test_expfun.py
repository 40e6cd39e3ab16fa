import cmath
import math

import numpy as np
import pytest

from pssmp.errors import ConvergenceError, DomainError, NumericError, PssmpError
from pssmp.expfun import (
    cdf_I_star,
    density_I,
    density_I_star,
    density_I_star_as_printed,
    entrance_density,
    entrance_moment,
    fit_loglog_slope,
    laplace_I,
    left_mass_bound,
    neg_moment_I,
    sup_cdf,
    sup_density_spectrally_positive,
    sup_survival_asymptotic,
    tail_exponent_check,
)
from pssmp.numerics import integrate_adaptive, log_gamma
from pssmp.scale import Case, SpectralCase
from pssmp.verify import density_I_star_mass

UP = SpectralCase(Case.UP_NEG, 1.5)
STAR = SpectralCase(Case.DOWN_POS, 1.5)


def talbot_inverse(F, t, m=48):
    """Fixed-contour Talbot inversion of a Laplace transform at t > 0."""
    total = 0.0
    for k in range(m):
        if k == 0:
            delta = 2.0 * m / 5.0
            gamma = 0.5 * cmath.exp(delta)
        else:
            a = k * math.pi / m
            cot = math.cos(a) / math.sin(a)
            delta = (2.0 * k * math.pi / 5.0) * (cot + 1j)
            gamma = (1.0 + 1j * a * (1.0 + cot * cot) - 1j * cot) * cmath.exp(delta)
        total += (gamma * F(delta / t)).real
    return 2.0 / (5.0 * t) * total


class TestModel:
    def test_normalization_constants(self):
        a = UP.alpha
        assert UP.c == pytest.approx(
            math.gamma(2.0 - a) / (a * (a - 1.0)), rel=1e-14
        )
        assert UP.m == pytest.approx(UP.c * math.gamma(a), rel=1e-14)

    def test_case_gating(self):
        with pytest.raises(DomainError):
            neg_moment_I(STAR, 1)
        with pytest.raises(DomainError):
            density_I_star(UP, 1.0)
        with pytest.raises(DomainError):
            SpectralCase(Case.UP_NEG, 0.9)
        with pytest.raises(DomainError):
            entrance_moment(UP, 0, 1.0)


class TestSpectrallyNegativeFunctional:
    def test_moments_against_laplace_transform(self):
        # E(I^-k) = (1/Gamma(k)) * integral of lam^(k-1) L(lam)
        for k in (1, 2, 3):
            quad = integrate_adaptive(
                lambda lam: lam ** (k - 1) * laplace_I(UP, lam),
                0.0,
                math.inf,
                tol=1e-10,
            ).value / math.exp(log_gamma(k))
            assert quad == pytest.approx(neg_moment_I(UP, k), rel=1e-8)

    def test_moments_past_the_float_range_are_numeric_errors(self):
        assert neg_moment_I(UP, 150) == pytest.approx(2.3458904222852e226, rel=1e-12)
        with pytest.raises(NumericError, match="k=500"):
            neg_moment_I(UP, 500)
        with pytest.raises(NumericError, match="k=500"):
            entrance_moment(UP, 500, 1.0)

    @pytest.mark.parametrize(
        "model, k",
        [
            (UP, 2 * 10**305),
            (SpectralCase(Case.UP_NEG, 1.5, 1e-3), 3 * 10**305),
        ],
        ids=["k-2e305", "jump-weight-1e-3-k-3e305"],
    )
    def test_moments_where_log_gamma_overflows_are_numeric_errors(self, model, k):
        # gammaln overflows above about 2.56e305: log Gamma there is +inf,
        # not -log x, so these moments are refused rather than printed as 0.
        with pytest.raises(NumericError, match="exceeds the float range"):
            neg_moment_I(model, k)
        with pytest.raises(NumericError, match="exceeds the float range"):
            entrance_moment(model, k, 1.0)

    def test_laplace_endpoints(self):
        assert laplace_I(UP, 0.0) == 1.0
        assert laplace_I(UP, 1e6) < 1e-6
        with pytest.raises(DomainError):
            laplace_I(UP, -1.0)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_density_against_transform_inversion(self, x):
        # Independent oracle: numeric inversion of the explicit transform.
        beta = 1.0 / UP.alpha
        c = UP.c

        def F(lam):
            return cmath.exp(-((lam / c) ** beta))

        ref = talbot_inverse(F, x)
        got = density_I(UP, x)
        assert got.converged
        assert got.value == pytest.approx(ref, rel=1e-7)

    def test_left_mass_bound_is_tiny_and_monotone(self):
        b1 = left_mass_bound(UP, 0.09 / UP.c)
        b2 = left_mass_bound(UP, 0.05 / UP.c)
        assert b2 < b1 < 1e-6

    def test_jump_weight_scaling(self):
        # Doubling the jump weight scales I by the inverse ratio of c.
        heavy = SpectralCase(Case.UP_NEG, 1.5, jump_weight=2.0)
        r = heavy.c / UP.c
        x = 0.8
        assert density_I(heavy, x).value == pytest.approx(
            r * density_I(UP, r * x).value, rel=1e-10
        )



class TestKilledFunctional:
    def test_sup_density_integrates_to_cdf_increment(self):
        sigma = STAR.c ** (1.0 / STAR.alpha)
        lo, hi = 1.0 * sigma, 3.0 * sigma
        quad = integrate_adaptive(
            lambda y: sup_density_spectrally_positive(STAR, y).value, lo, hi, tol=1e-11
        ).value
        assert quad == pytest.approx(sup_cdf(STAR, hi) - sup_cdf(STAR, lo), abs=1e-8)

    def test_series_and_asymptotic_regimes_agree(self):
        # Just inside the series range the asymptotic expansion is already
        # accurate; the two independent routes must agree.
        sigma = STAR.c ** (1.0 / STAR.alpha)
        y = 4.5 * sigma
        surv, bound = sup_survival_asymptotic(STAR, y)
        assert bound < 1e-7
        assert 1.0 - sup_cdf(STAR, y) == pytest.approx(surv, abs=2.0 * bound)

    def test_cdf_monotone_with_limits(self):
        sigma = STAR.c ** (1.0 / STAR.alpha)
        ys = [0.5 * sigma, sigma, 2.0 * sigma, 8.0 * sigma]
        vals = [sup_cdf(STAR, y) for y in ys]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals)
        assert sup_cdf(STAR, 0.0) == 0.0
        # heavy upper tail: survival ~ y^(-alpha) up to constants
        surv = 1.0 - sup_cdf(STAR, 50.0 * sigma)
        assert 0.0 < surv < 3.0 * 50.0**-STAR.alpha

    def test_functional_is_inverse_power_of_sup(self):
        x = 0.5 / STAR.c
        y = x ** (-1.0 / STAR.alpha)
        assert cdf_I_star(STAR, x) == pytest.approx(
            1.0 - sup_cdf(STAR, y), rel=1e-12
        )
        # density consistency by differentiating the CDF numerically
        h = 1e-6 * x
        num = (cdf_I_star(STAR, x + h) - cdf_I_star(STAR, x - h)) / (2.0 * h)
        assert density_I_star(STAR, x).value == pytest.approx(num, rel=1e-4)

    def test_as_printed_series_grows(self):
        # The candidate with the alpha(2 - n alpha) exponent increases at
        # large x, so it cannot be a density; kept for reports only.
        lo = density_I_star_as_printed(STAR, 10.0).value
        hi = density_I_star_as_printed(STAR, 100.0).value
        assert abs(hi) > abs(lo)

    def test_star_mass_at_alpha_1_2_is_a_convergence_error(self):
        # The supremum series does not reach its tolerance at the small-x
        # cutoff tuned to alpha 1.5; that is a ConvergenceError (exit 3),
        # not a raw ZeroDivisionError from an underflowed reciprocal gamma.
        model = SpectralCase(Case.DOWN_POS, 1.2)
        with pytest.raises(ConvergenceError):
            density_I_star_mass(model)

    def test_library_keeps_rows_the_cli_refuses(self):
        # At alpha 1.7 and x 0.01 the series cancels to a meaningless
        # value; the library reports it with an honest bound far above it.
        model = SpectralCase(Case.DOWN_POS, 1.7)
        sv = density_I_star(model, 0.01)
        assert sv.converged and sv.tail_bound > abs(sv.value)


class TestExtremeArguments:
    """Subnormal, huge and infinite arguments give a finite value or a
    package error, never a raw ValueError or OverflowError."""

    @pytest.mark.parametrize("alpha", [1.01, 1.2, 1.99])
    @pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-300, 1e300, math.inf])
    def test_value_or_package_error(self, alpha, x):
        up = SpectralCase(Case.UP_NEG, alpha)
        star = SpectralCase(Case.DOWN_POS, alpha)
        calls = [
            lambda: density_I(up, x).value,
            lambda: entrance_density(up, 1.0, x).value,
            lambda: density_I_star(star, x).value,
            lambda: sup_density_spectrally_positive(star, x).value,
            lambda: sup_cdf(star, x),
            lambda: cdf_I_star(star, x),
        ]
        for call in calls:
            try:
                value = call()
            except PssmpError:
                continue
            assert math.isfinite(value)

    @pytest.mark.parametrize("alpha", [1.2, 1.5])
    def test_sup_cdf_at_a_subnormal_is_its_leading_term(self, alpha):
        # Near 0 the CDF is a_1 yy^(alpha - 1), a_1 = 1/(Gamma(1/alpha)
        # Gamma(alpha)), yy = y / c^(1/alpha); y / c^(1/alpha) itself
        # underflows to 0 here.
        star = SpectralCase(Case.DOWN_POS, alpha)
        y = 5e-324
        log_yy = math.log(y) - math.log(star.c) / alpha
        want = math.exp((alpha - 1.0) * log_yy) / (
            math.gamma(1.0 / alpha) * math.gamma(alpha)
        )
        assert sup_cdf(star, y) == pytest.approx(want, rel=1e-12)
        assert cdf_I_star(star, y) == 0.0 and sup_cdf(star, math.inf) == 1.0

    @pytest.mark.parametrize("y", [1e200, 1e300, math.inf])
    def test_survival_terms_past_the_float_range_end_the_sum(self, y):
        # Terms that underflow are not reciprocal-gamma poles: they end the
        # asymptotic sums with a zero bound, so the CDF is 1.
        star = SpectralCase(Case.DOWN_POS, 1.2)
        surv, bound = sup_survival_asymptotic(star, y)
        assert 0.0 <= surv < 1e-200 and bound == 0.0
        assert sup_cdf(star, y) == 1.0

    def test_tiny_x_errors_name_the_law_and_x(self):
        up = SpectralCase(Case.UP_NEG, 1.5)
        star = SpectralCase(Case.DOWN_POS, 1.2)
        with pytest.raises(DomainError, match=r"entrance density at x=5e-324"):
            entrance_density(up, 1.0, 5e-324)
        with pytest.raises(DomainError, match=r"density of I\* at x=5e-324"):
            density_I_star(star, 5e-324)
        with pytest.raises(DomainError, match="finite"):
            density_I(up, math.inf)


class TestSeriesBoundsAgainstMpmath:
    """80-digit direct sums at the float inputs are the reference."""

    @staticmethod
    def _direct(mp, term):
        total = mp.mpf(0)
        for n in range(1, 5000):
            t = term(n)
            total += t
            if n > 20 and abs(t) < mp.mpf(10) ** -90 * abs(total):
                return total
        raise AssertionError("reference series did not converge")

    def _sup_terms(self, mp, model, yy, power, weight):
        """n -> weight(n) yy^power(n) / (Gamma(1-n+1/alpha) Gamma(alpha n))."""
        a = mp.mpf(model.alpha)
        return lambda n: (
            weight(a, n) * mp.rgamma(1 - n + 1 / a) * mp.rgamma(a * n) * yy ** power(a, n)
        )

    @pytest.mark.parametrize(
        "case, alpha, x",
        [
            (Case.DOWN_POS, 1.8, 0.01),
            (Case.DOWN_POS, 1.5, 0.05),
            (Case.DOWN_POS, 1.2, 0.2),
            (Case.UP_NEG, 1.5, 0.05),
            (Case.UP_NEG, 1.8, 0.05),
        ],
    )
    def test_error_bound_covers_the_error(self, case, alpha, x):
        # Near the small-x edge of each series the terms peak far above
        # the sum; the bound must still cover the rounding they leave.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 80
        model = SpectralCase(case, alpha)
        a, c, xx = mp.mpf(alpha), mp.mpf(model.c), mp.mpf(x)
        if case is Case.DOWN_POS:
            got = density_I_star(model, x)
            sigma, y = c ** (1 / a), xx ** (-1 / a)
            ref = self._direct(
                mp,
                self._sup_terms(
                    mp, model, y / sigma, lambda a, n: a * n - 2, lambda a, n: a * n - 1
                ),
            ) * y / (a * xx * sigma)
        else:
            got = density_I(model, x)
            z = (c * xx) ** (-1 / a)
            ref = -self._direct(
                mp,
                lambda n: mp.gamma(1 + n / a) * mp.sin(mp.pi * n / a) * (-z) ** n
                / mp.factorial(n),
            ) / (mp.pi * xx)
        assert abs(got.value - ref) <= got.tail_bound

    def test_sup_cdf_past_the_reciprocal_gamma_range(self):
        # At alpha 1.2 the CDF series runs past n = 171, where
        # 1/Gamma(1 - n + 1/alpha) underflows; the log form keeps the terms.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 80
        model = SpectralCase(Case.DOWN_POS, 1.2)
        y = 8.0
        yy = mp.mpf(y) / mp.mpf(model.c) ** (1 / mp.mpf(1.2))
        ref = self._direct(
            mp, self._sup_terms(mp, model, yy, lambda a, n: a * n - 1, lambda a, n: 1)
        )
        assert sup_cdf(model, y) == pytest.approx(float(ref), abs=1e-12)

    def test_as_printed_is_the_quoted_series(self):
        # c^(1/alpha) sum (alpha n - 1) x^(alpha(2 - n alpha))
        #   / (Gamma(1 - n + 1/alpha) Gamma(alpha n)), summed directly.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 80
        x = 5.0
        ref = mp.mpf(STAR.c) ** (1 / mp.mpf(STAR.alpha)) * self._direct(
            mp,
            self._sup_terms(
                mp, STAR, mp.mpf(x), lambda a, n: a * (2 - n * a), lambda a, n: a * n - 1
            ),
        )
        got = density_I_star_as_printed(STAR, x)
        assert abs(got.value - ref) <= got.tail_bound + 1e-14 * abs(ref)


class TestTailExponents:
    def test_fit_loglog_slope(self):
        xs = np.geomspace(1.0, 10.0, 7)
        assert fit_loglog_slope(xs, 3.0 * xs**-2.5) == pytest.approx(-2.5, abs=1e-12)
        with pytest.raises(DomainError):
            fit_loglog_slope([1.0], [1.0])

    def test_up_right_slope(self):
        # Measured decay of the density at large x: the (1 + 1/alpha)
        # power, consistent with a stable law of index 1/alpha.
        slope = tail_exponent_check(UP)
        assert slope == pytest.approx(-(1.0 + 1.0 / UP.alpha), abs=0.05)

    def test_star_left_slope(self):
        # Measured growth of the CDF near 0: linear.
        slope = tail_exponent_check(STAR)
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_down_neg_has_no_tail_check(self):
        with pytest.raises(DomainError, match="up-neg and down-pos"):
            tail_exponent_check(SpectralCase(Case.DOWN_NEG, 1.5))
