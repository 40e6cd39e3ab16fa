import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pssmp.errors import DomainError
from pssmp.numerics import integrate_adaptive
from pssmp.stable import (
    Kind,
    StableParams,
    exit_up_probability,
    increment_sampler,
    killed_resolvent_u,
    path_rng,
    rogozin_overshoot_density,
    sample_stable_increment,
)


class TestStableParams:
    def test_invariants(self):
        with pytest.raises(DomainError):
            StableParams(2.5, 0.5)
        with pytest.raises(DomainError):
            StableParams(1.5, 0.0)
        with pytest.raises(DomainError):
            StableParams(1.5, math.nan)

    def test_the_parameters_are_alpha_and_rho(self):
        # Every law of StableParams reads (alpha, rho) alone; a jump weight
        # only scales a one-sided model, and SpectralCase holds it.
        assert [f.name for f in dataclasses.fields(StableParams)] == ["alpha", "rho"]
        with pytest.raises(TypeError):
            StableParams(1.5, 0.5, c_plus=1.0)

    def test_two_sided_classification(self):
        assert StableParams(1.5, 0.5).two_sided
        assert StableParams(0.8, 0.3).two_sided
        # alpha*(1-rho) >= 1: upward jumps only reach the lower barrier by creeping
        assert not StableParams(1.5, 0.3).two_sided
        with pytest.raises(DomainError):
            StableParams(1.5, 0.3).require_two_sided()
        # The smallest alpha with both side exponents positive: 5e-324 each.
        assert StableParams(1e-323, 0.5).two_sided

    @pytest.mark.parametrize("alpha, rho", [(5e-324, 0.5), (1e-323, 0.2), (1e-320, 1.0 - 2**-53)])
    def test_a_side_exponent_rounded_to_zero_is_not_two_sided(self, alpha, rho):
        # alpha*rho or alpha*(1 - rho) rounds to 0, outside (0, 1).
        p = StableParams(alpha, rho)
        assert 0.0 in (p.up_jump_exponent, p.down_jump_exponent)
        assert not p.two_sided
        with pytest.raises(DomainError, match="two-sided"):
            p.require_two_sided()

    def test_one_sided_boundaries(self):
        sn = StableParams(1.5, 1.0 - 1.0 / 1.5)
        assert sn.spectrally_negative and not sn.spectrally_positive
        assert sn.up_jump_exponent == pytest.approx(1.0, abs=1e-12)
        sp = StableParams(1.5, 1.0 / 1.5)
        assert sp.spectrally_positive
        assert sp.down_jump_exponent == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.5, 1.8])
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_h_exponent_is_formed_from_the_downward_exponent(self, alpha, rho):
        # Exact equality: (k + 1) - 1 would miss k in the last bit for
        # several of these pairs.
        p = StableParams(alpha, rho)
        k = p.down_jump_exponent
        assert Kind.STAR.h_exponent(p) == 0.0
        assert Kind.UP.h_exponent(p) == k
        assert Kind.DOWN.h_exponent(p) == k - 1.0


class TestTwoSidedExit:
    def test_overshoot_mass_equals_beta_probability(self):
        # The overshoot density on the up-exit event integrates to the
        # closed-form two-sided exit probability.
        for p in (StableParams(1.5, 0.5), StableParams(0.8, 0.3)):
            for a, x in ((2.0, 1.0), (1.0, 0.25)):
                mass = integrate_adaptive(
                    lambda y: rogozin_overshoot_density(p, a, x, y),
                    0.0,
                    math.inf,
                    tol=1e-11,
                ).value
                assert mass == pytest.approx(
                    exit_up_probability(p, a, x), abs=1e-8
                )

    def test_exit_probability_endpoints(self):
        p = StableParams(1.5, 0.5)
        assert exit_up_probability(p, 1.0, 1e-9) < 1e-6
        assert exit_up_probability(p, 1.0, 1.0 - 1e-9) > 1.0 - 1e-6
        # symmetric case: I_{1/2}(a, a) = 1/2
        assert exit_up_probability(StableParams(1.4, 0.5), 2.0, 1.0) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_domain_checks(self):
        p = StableParams(1.5, 0.5)
        with pytest.raises(DomainError):
            rogozin_overshoot_density(p, 1.0, 1.5, 0.3)
        with pytest.raises(DomainError):
            rogozin_overshoot_density(p, math.inf, 1.5, 0.3)
        with pytest.raises(DomainError):
            exit_up_probability(StableParams(1.5, 0.3), 1.0, 0.5)
        with pytest.raises(DomainError):
            exit_up_probability(p, 1.0, 1.5)


def _mpmath_rogozin(p, a, x, y, dps=50):
    """sin(pi k)/pi (a - x)^k x^l y^-k (y + a)^-l / (y + a - x) at dps
    digits, k and l the upward and downward jump exponents."""
    with mpmath.workdps(dps):
        k, l = mpmath.mpf(p.up_jump_exponent), mpmath.mpf(p.down_jump_exponent)
        a, x, y = mpmath.mpf(a), mpmath.mpf(x), mpmath.mpf(y)
        return (
            mpmath.sin(mpmath.pi * k) / mpmath.pi
            * (a - x) ** k * x**l * y**-k * (y + a) ** -l / (y + a - x)
        )


_LOG_TINY, _LOG_HUGE = math.log(5e-324), math.log(1e308)


class TestRogozinExtremeInputs:
    @settings(max_examples=300)
    @given(
        alpha=st.floats(0.05, 1.99),
        rho=st.floats(0.01, 0.99),
        log_a=st.floats(_LOG_TINY, _LOG_HUGE),
        log_ratio=st.floats(_LOG_TINY, math.log(1.0 - 2.0**-52)),
        log_y=st.floats(_LOG_TINY, _LOG_HUGE),
    )
    def test_property_extreme_inputs_give_a_float(
        self, alpha, rho, log_a, log_ratio, log_y
    ):
        # (a, x/a, y) log-uniform from subnormal to 1e308: a float >= 0,
        # never NaN and no warning; inf only where the 50-digit law is past
        # the float range, and finite values within 1e-9 of it.
        p = StableParams(alpha, rho)
        assume(p.two_sided)
        a = math.exp(log_a)
        x = a * math.exp(log_ratio)
        assume(0.0 < x < a)
        y = math.exp(log_y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rogozin_overshoot_density(p, a, x, y)
        assert type(got) is float and got >= 0.0
        want = _mpmath_rogozin(p, a, x, y)
        if got == math.inf:
            assert want > sys.float_info.max * (1.0 - 1e-9)
        else:
            assert abs(got - want) <= 1e-9 * want + 1e-300, (got, want)

    def test_subnormal_overshoot_is_inf(self):
        # y^-k at y = 5e-324 is past the float range: this raised a raw
        # OverflowError.
        p = StableParams(1.99, 0.5)
        assert rogozin_overshoot_density(p, 1e-300, 1e-308, 5e-324) == math.inf
        assert rogozin_overshoot_density(p, 1e-300, 1e-308, 1e-300) == pytest.approx(
            float(_mpmath_rogozin(p, 1e-300, 1e-308, 1e-300)), rel=1e-12
        )

    def test_overflowing_sum_is_finite(self):
        # y + a overflows; the density does not (it printed nan).
        p = StableParams(1.5, 0.5)
        for y in (1e308, 1.7e308):
            got = rogozin_overshoot_density(p, 1e308, 1e300, y)
            want = float(_mpmath_rogozin(p, 1e308, 1e300, y))
            assert 0.0 < got and got == pytest.approx(want, abs=1e-322)


class TestResolvent:
    def test_symmetry(self):
        u1 = killed_resolvent_u(1.5, 0.7, 1.3)
        u2 = killed_resolvent_u(1.5, 1.3, 0.7)
        assert u1 == pytest.approx(u2, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.01, 1.2, 1.5, 1.8, 1.99])
    def test_closed_form_matches_mpmath_quadrature(self, alpha):
        # The 2F1 form against 40-digit quadrature of the defining integral
        # int_0^s t^(a-1) (1+t)^(-1/2) dt, taken in w = t^a / s^a so that
        # the integrand is bounded and the range is [0, 1] at every s.
        mpmath = pytest.importorskip("mpmath")
        for k in (-300, -200, -100, -30, -8, -1, 0, 1, 2, 4, 6, 8, 12, 16):
            s = 10.0**k
            x = s / (2.0 * (math.sqrt(1.0 + s) + 1.0))  # 4 x (x + 1) = s
            y = x + 1.0
            with mpmath.workdps(40):
                a = mpmath.mpf(alpha) / 2
                xm, ym = mpmath.mpf(x), mpmath.mpf(y)
                d = ym - xm
                top = (4 * xm * ym / d**2) ** a
                decades = range(int(mpmath.log10(top)) + 1)
                cuts = [mpmath.mpf(10) ** j / top for j in decades]
                inner = top / a * mpmath.quad(
                    lambda w: 1 / mpmath.sqrt(1 + (top * w) ** (1 / a)),
                    [0] + [c for c in cuts if c < 1] + [1],
                )
                want = d ** (2 * a - 1) * inner / (2 ** (2 * a) * mpmath.gamma(a))
                got = killed_resolvent_u(alpha, x, y)
                assert abs(got - want) <= 1e-13 * want, (k, got, want)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_diagonal_gap_scales_like_power(self, alpha):
        # u(m - d/2, m + d/2) falls short of the diagonal value by
        # C d^(alpha-1) + O(d^2); the centred pair cancels the O(d) term.
        diag = killed_resolvent_u(alpha, 1.0, 1.0)
        gap = [
            diag - killed_resolvent_u(alpha, 1.0 - d / 2, 1.0 + d / 2)
            for d in (1e-6, 1e-8)
        ]
        assert gap[0] / gap[1] == pytest.approx(100.0 ** (alpha - 1.0), rel=1e-6)

    def test_no_overflow_or_underflow_of_s(self):
        # s = 4xy/(x-y)^2 is formed from the quotients, so extreme but
        # finite points give finite, positive values, homogeneous of
        # degree alpha - 1.
        extreme = ((1e200, 2e200), (1e-300, 3e-300), (0.5, 5e-324), (1.0, 1.0 + 2**-52))
        for x, y in extreme:
            assert 0.0 < killed_resolvent_u(1.5, x, y) < math.inf
        base = killed_resolvent_u(1.3, 1.2, 2.0)
        big = killed_resolvent_u(1.3, 1.2e200, 2e200)
        assert big == pytest.approx(base * 1e200**0.3, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            killed_resolvent_u(0.9, 1.0, 2.0)
        with pytest.raises(DomainError):
            killed_resolvent_u(1.5, -1.0, 2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                killed_resolvent_u(1.5, bad, 2.0)


def _two_sided_grid():
    """Two-sided (alpha, rho) pairs on a 38 x 99 grid, alpha = 1 left out."""
    for alpha in np.linspace(0.1, 1.95, 38):
        for rho in np.linspace(0.01, 0.99, 99):
            p = StableParams(float(alpha), float(rho))
            if p.two_sided and abs(alpha - 1.0) >= 1e-12:
                yield p


class _FixedUniforms:
    """A generator stub: random(out=) writes fixed uniforms at the start of
    out, and fills the rest of it (the uniforms behind W) from a path
    stream."""

    def __init__(self, uniforms, rng):
        self.uniforms, self.rng = uniforms, rng

    def random(self, out):
        k = len(self.uniforms)
        out[:k] = self.uniforms
        self.rng.random(out=out[k:])
        return out


class TestSampling:
    def test_path_streams_are_keyed(self):
        a = path_rng(42, 0).random(5)
        b = path_rng(42, 0).random(5)
        c = path_rng(42, 1).random(5)
        d = path_rng(43, 0).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    @pytest.mark.parametrize(
        "seed, index", [(0, 0), (8, 40), (2**63, 2**63), (2**64 - 1, 2**64 - 1)]
    )
    def test_stream_is_the_keyed_pcg64dxsm_substream(self, seed, index):
        # The seed's state has SplitMix64 outputs 1 and 2 from the seed as its
        # low and high halves; path `index` starts index * 2^64 steps on, as
        # numpy's own advance puts it, on the PCG default increment.
        def splitmix64(x):
            z = x % 2**64
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
            return z ^ (z >> 31)

        gamma, inc = 0x9E3779B97F4A7C15, 0x5851F42D4C957F2D14057B7EF767814F
        lo, hi = splitmix64(seed + gamma), splitmix64(seed + 2 * gamma)
        bg = np.random.PCG64DXSM()
        bg.state = {
            "bit_generator": "PCG64DXSM",
            "state": {"state": hi << 64 | lo, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        bg.advance(index << 64)
        want = np.random.Generator(bg)
        got = path_rng(seed, index)
        assert np.array_equal(got.random(50), want.random(50))
        assert np.array_equal(
            got.standard_exponential(50), want.standard_exponential(50)
        )

    @pytest.mark.parametrize("seed, index", [(0, 0), (2**64 - 2, 2**64 - 2)])
    def test_neighbouring_streams_are_uncorrelated(self, seed, index):
        # Neighbours in path index share the low half of their LCG state and
        # neighbours in seed have unrelated states; neither may show as a
        # correlation of their uniforms above 5 standard errors.
        n = 100_000
        a = path_rng(seed, index).random(n)
        for other in (path_rng(seed, index + 1), path_rng(seed + 1, index)):
            r = np.corrcoef(a, other.random(n))[0, 1]
            assert abs(r) < 5.0 / math.sqrt(n)

    def test_key_is_injective(self):
        # Distinct (seed, index) pairs, the ends of both ranges included,
        # start at distinct states and draw distinct first outputs.
        ends = (0, 1, 2, 3, 2**63, 2**64 - 2, 2**64 - 1)
        keys = [(s, i) for s in ends for i in ends]
        states = {path_rng(s, i).bit_generator.state["state"]["state"] for s, i in keys}
        firsts = {int(path_rng(s, i).bit_generator.random_raw()) for s, i in keys}
        assert len(states) == len(firsts) == len(keys)

    def test_seed_and_index_range(self):
        # Seed and index each take the whole of [0, 2^64); nothing is masked.
        path_rng(2**64 - 1, 2**64 - 1)
        for seed, index in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
            with pytest.raises(DomainError):
                path_rng(seed, index)

    @pytest.mark.parametrize(
        "alpha, rho", [(1.5, 0.5), (0.8, 0.3), (1.0, 0.5), (1.0, 0.7)]
    )
    def test_rows_match_per_stream_transform(self, alpha, rho):
        # Row r of a batched draw equals the transform written out on
        # rng r alone: 2n uniforms, the last n turned into W = -log(1 - U'),
        # same operation order.
        p, dt, n = StableParams(alpha, rho), 1e-3, 1000
        a_theta0 = alpha * (math.pi * (rho - 0.5))
        factor = 2.0 * (dt / math.cos(a_theta0)) ** (1.0 / alpha)

        def reference(rng):
            u, u2 = np.split(rng.random(2 * n), 2)
            w = -np.log(1.0 - u2)
            slope = (alpha - 1.0) * math.pi
            tan_psi = np.tan(u * slope + (a_theta0 - slope / 2.0))
            log_tail = np.log((tan_psi * tan_psi + 1.0) * w * w) * (alpha - 1.0)
            # 1 + tan^2 v = 1 + 1 / tan^2(pi min(U, 1 - U)), U = 0 read as 2^-54.
            cot_v = np.tan(np.maximum(np.minimum(u, 1.0 - u), 2.0**-54) * math.pi)
            e = np.exp((np.log1p(1.0 / (cot_v * cot_v)) + log_tail) * (0.5 / alpha))
            t = np.tan((u + (rho - 1.0)) * (alpha * math.pi / 2.0))
            return t / (t * t + 1.0) * e * factor

        draw = increment_sampler(p, dt)
        expected = np.array([reference(path_rng(4, i)) for i in range(3)])
        batch = draw([path_rng(4, i) for i in range(3)], n)
        assert batch.shape == (3, n)
        assert np.array_equal(batch, expected)
        out = np.empty((3, n))
        assert draw([path_rng(4, i) for i in range(3)], n, out=out) is out
        assert np.array_equal(out, expected)
        # Uniforms written by a stub generator give the same rows.
        rngs = [path_rng(4, i) for i in range(3)]
        stubs = [_FixedUniforms(rng.random(n), rng) for rng in rngs]
        assert draw(stubs, n, out=out) is out
        assert np.array_equal(out, expected)

    @settings(max_examples=60)
    @given(
        alpha=st.floats(0.1, 1.99),
        # Places rho in the feasible range [1 - 1/alpha, 1/alpha], cut to
        # [0.01, 0.99].
        rho_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_increments_match_mpmath_cms(self, alpha, rho_frac, seed):
        # The Chambers-Mallows-Stuck transform at 160 bits, at the exact
        # U and W = -log(1 - U') of the uniforms the sampler drew from the
        # same stream: the relative error includes the sampler's rounding
        # of its angles, theta0 and W.
        mpmath = pytest.importorskip("mpmath")
        assume(abs(alpha - 1.0) >= 1e-12)
        lo, hi = max(0.01, 1.0 - 1.0 / alpha), min(0.99, 1.0 / alpha)
        rho, dt, n = lo + rho_frac * (hi - lo), 1e-3, 50
        x = increment_sampler(StableParams(alpha, rho), dt)([path_rng(seed, 0)], n)[0]
        rng = path_rng(seed, 0)
        u, u2 = np.split(rng.random(2 * n), 2)
        with mpmath.workprec(160):
            a, pi = mpmath.mpf(alpha), mpmath.pi
            a_theta0 = a * pi * (mpmath.mpf(rho) - 0.5)
            for ui, u2i, xi in zip(u, u2, x):
                v = pi * (mpmath.mpf(ui) - 0.5)
                wi = -mpmath.log(1 - mpmath.mpf(u2i))
                want = (
                    mpmath.mpf(dt) ** (1 / a)
                    * mpmath.sin(a * v + a_theta0)
                    / (mpmath.cos(a_theta0) * mpmath.cos(v)) ** (1 / a)
                    * (mpmath.cos(a_theta0 + (a - 1) * v) / wi)
                    ** ((1 - a) / a)
                )
                assert abs(xi - want) <= 1e-11 * abs(want), (ui, wi, xi, want)

    def test_endpoint_uniforms_give_finite_increments(self):
        # U = 0 puts v at -pi/2, where cos v and (for one-sided limits)
        # the tail cosine vanish; a half-angle form must not divide by 0.
        uniforms = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]
        with np.errstate(all="raise"):
            for p in _two_sided_grid():
                stub = _FixedUniforms(uniforms, path_rng(2, 0))
                x = increment_sampler(p, 1e-3)([stub], 4)
                assert np.all(np.isfinite(x)), (p, x)

    def test_sign_frequency_matches_rho(self):
        for rho in (0.5, 0.7):
            p = StableParams(1.2, rho)
            draw = increment_sampler(p, 1.0)
            x = draw([path_rng(7, 0)], 200_000)[0]
            freq = float(np.mean(x > 0.0))
            se = math.sqrt(rho * (1.0 - rho) / x.size)
            assert abs(freq - rho) < 4.0 * se

    def test_self_similar_scaling(self):
        # Increments over dt equal dt^(1/alpha) times unit increments in law.
        p = StableParams(1.5, 0.5)
        n = 100_000
        x1 = increment_sampler(p, 1.0)([path_rng(3, 0)], n)[0]
        x2 = increment_sampler(p, 0.25)([path_rng(3, 1)], n)[0]
        x2 *= 0.25 ** (-1.0 / p.alpha)
        qs = np.linspace(0.05, 0.95, 19)
        q1 = np.quantile(x1, qs)
        q2 = np.quantile(x2, qs)
        assert np.max(np.abs(q1 - q2)) < 0.05

    def test_median_zero_when_symmetric(self):
        p = StableParams(1.5, 0.5)
        x = increment_sampler(p, 1.0)([path_rng(11, 0)], 100_000)[0]
        assert abs(np.median(x)) < 0.02

    def test_infeasible_skew_rejected(self):
        # alpha in (1,2) bounds rho to [1 - 1/alpha, 1/alpha].
        for alpha, rho in ((1.8, 0.9), (1.5, 0.3), (1.5, 0.7), (1.2, 1.0 / 1.2 + 1e-6)):
            with pytest.raises(DomainError, match="rho must lie in"):
                increment_sampler(StableParams(alpha, rho), 1.0)

    def test_feasible_skew_near_boundary_gives_finite_increments(self):
        cases = [
            StableParams(1.5, 1.0 - 1.0 / 1.5 + 1e-6),
            StableParams(1.5, 1.0 / 1.5 - 1e-6),
            StableParams(1.5, 1.0 - 1.0 / 1.5),
            StableParams(1.5, 1.0 / 1.5),
        ]
        with np.errstate(all="raise"):
            for p in cases:
                x = increment_sampler(p, 1e-3)([path_rng(1, 0)], 20_000)[0]
                assert np.all(np.isfinite(x))

    def test_skew_within_tolerance_beyond_an_end_draws_at_that_end(self):
        # cos psi < 0 near U = 0 or 1 beyond an end; squaring tan psi would
        # turn it into |cos psi| there, so rho is moved onto the end first.
        uniforms = [0.0, 2.0**-53, 1e-10, 1e-9, 0.3]
        alpha = 1.5
        cases = [
            (1.0 - 1.0 / alpha - 6e-10, 1.0 - 1.0 / alpha),
            (1.0 / alpha + 6e-10, 1.0 / alpha),
        ]
        with np.errstate(all="raise"):
            for band, end in cases:
                rows = []
                for rho in (band, end):
                    draw = increment_sampler(StableParams(alpha, rho), 1e-3)
                    rows.append(draw([_FixedUniforms(uniforms, path_rng(2, 0))], 5))
                assert np.all(np.isfinite(rows[0])), (band, rows[0])
                assert np.array_equal(rows[0], rows[1]), (band, rows)

    def test_every_two_sided_pair_is_accepted(self):
        for p in _two_sided_grid():
            increment_sampler(p, 1e-3)

    def test_cauchy_quartiles_sit_at_the_step(self):
        # At alpha = 1, rho = 1/2 the increment is Cauchy with scale dt.
        dt = 1e-2
        x = increment_sampler(StableParams(1.0, 0.5), dt)([path_rng(5, 0)], 50_000)[0]
        assert float(np.mean(np.abs(x) < dt)) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("rho", [0.2, 0.6, 0.9])
    def test_alpha_one_is_positive_with_probability_rho(self, rho):
        draw = increment_sampler(StableParams(1.0, rho), 1e-2)
        x = draw([path_rng(5, 0)], 50_000)[0]
        assert float(np.mean(x > 0.0)) == pytest.approx(rho, abs=0.01)

    def test_single_draw(self):
        v = sample_stable_increment(StableParams(1.5, 0.5), 0.01, path_rng(9, 0))
        assert isinstance(v, float) and math.isfinite(v)

    def test_bad_dt(self):
        # A NaN or infinite step would give NaN or inf rows.
        for alpha in (1.5, 1.0):
            for dt in (0.0, -1e-3, math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match="dt must be finite and positive"):
                    increment_sampler(StableParams(alpha, 0.5), dt)
