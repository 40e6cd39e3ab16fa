import math

import pytest

from pssmp.errors import ConvergenceError, DomainError, PssmpError
from pssmp.numerics import (
    QuadResult,
    SeriesValue,
    integrate_adaptive,
    log_gamma,
    sum_series,
)


class TestSpecialFunctions:
    def test_log_gamma_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_log_gamma_past_gammaln_overflow(self):
        # Below about 5.5e-309 log Gamma(x) rounds to -log x; above about
        # 2.56e305 it exceeds the float range and stays inf.
        assert log_gamma(5e-324) == -math.log(5e-324)
        assert log_gamma(1e-310) == -math.log(1e-310)
        assert log_gamma(1e306) == math.inf
        assert log_gamma(1.7976931348623157e308) == math.inf

    def test_log_gamma_domain(self):
        for bad in (0.0, -1.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                log_gamma(bad)


class TestQuadrature:
    def test_plain_integral(self):
        r = integrate_adaptive(math.sin, 0.0, math.pi)
        assert r.value == pytest.approx(2.0, rel=1e-12)
        assert r.error_estimate < 1e-8
        assert r.evaluations >= 1

    def test_endpoint_singularity(self):
        r = integrate_adaptive(lambda t: t**-0.5, 0.0, 1.0, tol=1e-10)
        assert r.value == pytest.approx(2.0, rel=1e-9)

    def test_infinite_upper_limit(self):
        r = integrate_adaptive(lambda t: math.exp(-t), 0.0, math.inf)
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_singular_and_infinite(self):
        # integral of t^(-1/2) e^(-t) over (0, inf) = Gamma(1/2)
        r = integrate_adaptive(lambda t: t**-0.5 * math.exp(-t), 0.0, math.inf)
        assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            integrate_adaptive(math.sin, 0.0, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            integrate_adaptive(math.sin, -math.inf, 1.0)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            QuadResult(1.0, 0.0, 0)


class TestSeries:
    def test_alternating_geometric(self):
        s = sum_series(lambda n: ((-1.0) ** n, (n * math.log(0.5),)), tol=1e-14)
        assert s.converged
        assert s.value == pytest.approx(1.0 / 1.5, rel=1e-12)
        assert s.tail_bound <= 1e-13

    def test_exponential_series(self):
        s = sum_series(
            lambda n: ((-1.0) ** n, (n * math.log(2.0), -math.lgamma(n + 1.0))),
            tol=1e-14,
        )
        assert s.converged
        assert s.value == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_period_three_sign_pattern(self):
        # Signs -, -, eps repeating (the "zero" slot carries rounding
        # residue, as a sine factor at a rational angle would): the plain
        # alternating rule never fires, the envelope-decay rule must
        # still terminate the sum.
        signs = {0: -1.0, 1: -1.0, 2: 1e-15}

        def term(n):
            return signs[n % 3], (n * math.log(0.3),)

        s = sum_series(term, tol=1e-12, start=1)
        assert s.converged
        assert s.n_terms < 60
        exact = sum(signs[n % 3] * 0.3**n for n in range(1, 120))
        assert s.value == pytest.approx(exact, abs=1e-11)

    def test_non_convergent_reported(self):
        # The harmonic series never meets a stopping rule: all 400 terms run.
        s = sum_series(lambda n: (1.0, (-math.log(n + 1.0),)), tol=1e-12)
        assert not s.converged
        assert s.n_terms == 400
        assert s.value == pytest.approx(sum(1.0 / n for n in range(1, 401)), rel=1e-14)

    def test_rounding_of_large_terms_is_in_the_bound(self):
        # e^-20 by its Taylor series: terms peak near 4e7, each formed
        # from log parts of size about 100, and cancel to 2e-9.  The real
        # error (about 1e-6) is all rounding; the truncation part of the
        # bound stays below tol.
        s = sum_series(
            lambda n: ((-1.0) ** n, (n * math.log(20.0), -math.lgamma(n + 1.0))),
            tol=1e-20,
        )
        assert s.converged
        err = abs(s.value - math.exp(-20.0))
        assert 1e-12 < err <= s.tail_bound

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_term_ends_the_sum(self, bad):
        # A log part past the float range gives an infinite term, not an
        # OverflowError; a nan factor gives a nan term.  Either ends the
        # sum as not converged, with the terms before it summed.
        def term(n):
            if n == 3:
                return (1.0, (800.0,)) if bad == math.inf else (bad, ())
            return 0.5**n, ()

        s = sum_series(term, tol=1e-12)
        assert not s.converged
        assert s.n_terms == 4
        assert s.value == 1.75
        assert s.tail_bound == math.inf

    def test_scaled(self):
        s = SeriesValue(2.0, 1e-9, 7, True).scaled(-0.5)
        assert s == SeriesValue(-1.0, 5e-10, 7, True)

    def test_invariants(self):
        with pytest.raises(ValueError):
            SeriesValue(1.0, -1.0, 3, True)
        # A bound that is not a number, as inf * 0 leaves it, is a package
        # error, so the CLI maps it to an exit code.
        for bound in (-1.0, math.nan):
            with pytest.raises(PssmpError, match="tail_bound"):
                SeriesValue(1.0, bound, 3, True)
        with pytest.raises(PssmpError, match="n_terms"):
            SeriesValue(1.0, 0.0, 0, True)
        with pytest.raises(PssmpError, match="error_estimate"):
            QuadResult(1.0, math.nan, 10)
        with pytest.raises(DomainError):
            sum_series(lambda n: (0.0, ()), tol=-1.0)
