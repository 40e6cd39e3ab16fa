import math

import pytest

from pssmp import hitting
from pssmp.errors import DomainError, NumericError
from pssmp.hitting import (
    HitQuery,
    hit_closed_ratio,
    hit_matrix_method,
    hit_prob_lamperti,
)
from pssmp.stable import Kind


class TestRouteAgreement:
    @pytest.mark.parametrize(
        "alpha,x,a,b",
        [
            (1.3, 1.0, 0.5, 2.0),
            (1.5, 1.0, 2.0, 0.5),
            (1.7, 0.3, 1.0, 3.0),
            (1.9, 2.0, 1.0, 4.0),
        ],
    )
    def test_matrix_equals_closed_ratio(self, alpha, x, a, b):
        q = HitQuery(alpha, x, a, b)
        assert hit_matrix_method(q) == pytest.approx(
            hit_closed_ratio(q), rel=1e-10, abs=1e-12
        )

    def test_probabilities_in_range_and_complementary(self):
        q_a = HitQuery(1.5, 1.0, 0.5, 2.0)
        q_b = HitQuery(1.5, 1.0, 2.0, 0.5)
        pa, pb = hit_matrix_method(q_a), hit_matrix_method(q_b)
        assert 0.0 < pa < 1.0 and 0.0 < pb < 1.0
        # a two-point ruin gap remains, so the two do not sum to one
        assert pa + pb < 1.0


class TestClosedResolvent:
    def test_start_near_a_target(self):
        # s = 4xy/(x-y)^2 is about 4e6 for the (x, a) pair, past the range
        # where quadrature of the resolvent integral held (it gave 1.00008).
        q = HitQuery(1.2, 0.5005, 0.5, 2.0)
        assert hit_closed_ratio(q) == pytest.approx(0.7972643453136, abs=1e-12)
        assert hit_matrix_method(q) == pytest.approx(0.7972643453136, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e100, 1e200, 1e300])
    def test_scale_invariance(self, alpha, scale):
        # u is homogeneous in the points, so the hitting probability is not
        # changed by scaling x, a and b together.
        want = hit_closed_ratio(HitQuery(alpha, 1.2, 1.0, 2.0))
        q = HitQuery(alpha, 1.2 * scale, 1.0 * scale, 2.0 * scale)
        assert hit_closed_ratio(q) == pytest.approx(want, rel=1e-14)
        assert hit_matrix_method(q) == pytest.approx(want, rel=1e-14)


class TestRefusals:
    def test_ill_conditioned_matrix_is_refused(self):
        # 9 max|U^-1| is about 6.8e12 here; the 1-norm condition number of
        # U reads 7.6e11, under the 1e12 bound, so it is not the test.
        with pytest.raises(NumericError, match="ill-conditioned"):
            hit_matrix_method(HitQuery(1.99, 1.0, 1e-6, 1e6))

    def test_singular_matrix_is_a_numeric_error(self, monkeypatch):
        monkeypatch.setattr(hitting, "killed_resolvent_u", lambda *a, **k: 1.0)
        with pytest.raises(NumericError, match="singular"):
            hit_matrix_method(HitQuery(1.5, 1.0, 0.5, 2.0))


class TestStartOnTarget:
    @pytest.mark.parametrize("route", [hit_closed_ratio, hit_matrix_method])
    def test_exact_target_is_hit_at_time_zero(self, route):
        assert route(HitQuery(1.5, 0.5, 0.5, 2.0)) == 1.0
        assert route(HitQuery(1.5, 2.0, 0.5, 2.0)) == 0.0

    def test_near_target_and_equal_targets_are_refused(self):
        with pytest.raises(DomainError):
            HitQuery(1.5, 0.5 * (1.0 + 1e-12), 0.5, 2.0)
        with pytest.raises(DomainError):
            HitQuery(1.5, 1.0, 2.0, 2.0)


class TestNormalizationInvariance:
    def test_prefactor_cancels_exactly(self, monkeypatch):
        q = HitQuery(1.5, 1.0, 0.5, 2.0)
        base = hit_matrix_method(q), hit_closed_ratio(q)
        u = hitting.killed_resolvent_u
        monkeypatch.setattr(hitting, "killed_resolvent_u", lambda *pts: 17.0 * u(*pts))
        assert hit_matrix_method(q) == pytest.approx(base[0], rel=1e-14)
        assert hit_closed_ratio(q) == pytest.approx(base[1], rel=1e-14)


class TestBrownianLimit:
    def test_near_gaussian_matrix_route(self):
        # As alpha -> 2 the occupation density of the killed process tends
        # to a multiple of min(x, y), for which the two-point first-hitting
        # probability has the elementary harmonic-function form.  Compare
        # at alpha = 1.99 with a loose tolerance.
        alpha, x, a, b = 1.99, 1.0, 0.5, 2.0
        got = hit_matrix_method(HitQuery(alpha, x, a, b))

        def u_min(p1, p2):
            return min(p1, p2)

        mat = [[u_min(p1, p2) for p2 in (x, a, b)] for p1 in (x, a, b)]

        def cof(m, i, j):
            rows = [r for k, r in enumerate(m) if k != i]
            sub = [[r[k] for k in range(3) if k != j] for r in rows]
            sgn = -1.0 if (i + j) % 2 else 1.0
            return sgn * (sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0])

        want = -cof(mat, 1, 0) / cof(mat, 0, 0)
        assert got == pytest.approx(want, abs=1e-2)


class TestLogScaleHitting:
    def test_up_and_down_kinds(self):
        p_up = hit_prob_lamperti(Kind.UP, 1.5, -0.7, 0.7)
        p_down = hit_prob_lamperti(Kind.DOWN, 1.5, -0.7, 0.7)
        assert 0.0 <= p_up <= 1.0 and 0.0 <= p_down <= 1.0
        # conditioning to hit 0 favors the lower target
        assert p_down > p_up

    def test_tilt_relationship(self):
        # The two kinds differ by one power of the lower target position.
        v, u = -0.7, 0.7
        p_up = hit_prob_lamperti(Kind.UP, 1.5, v, u)
        p_down = hit_prob_lamperti(Kind.DOWN, 1.5, v, u)
        assert p_up == pytest.approx(p_down * math.exp(v), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            hit_prob_lamperti(Kind.STAR, 1.5, -0.5, 0.5)
        with pytest.raises(DomainError):
            hit_prob_lamperti(Kind.UP, 1.5, 0.5, 1.0)


class TestValidation:
    def test_query_invariants(self):
        with pytest.raises(DomainError):
            HitQuery(0.9, 1.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            HitQuery(1.5, -1.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            HitQuery(1.5, 1.0, 1.0 + 1e-12, 2.0)
