"""Library entry points refuse non-finite numbers, fractional path counts,
seeds and level counts, and report fields that are missing, with
DomainError, as they do scales that overflow a float, fits with no slope
and side exponents that round to 0.  A NaN must fail
every range check: the cases below returned nan, or raised a raw or
unrelated error, when the checks were written as ``x <= 0.0`` (or, for the
refinement report, not written at all)."""

import math

import pytest

from pssmp.cli import main
from pssmp.errors import DomainError, NumericError
from pssmp import expfun
from pssmp.exit_laws import (
    Direction,
    ExitWindow,
    exit_density_one_sided,
    exit_density_two_sided,
    exit_mass_one_sided,
    extrema_density_star,
    extrema_min_star_as_printed,
    max_cdf_down,
    min_cdf_up,
)
from pssmp.expfun import density_I
from pssmp.hitting import HitQuery, hit_closed_ratio, hit_prob_lamperti
from pssmp.montecarlo import SimConfig, extrapolated_bias, step_refinement_report
from pssmp.scale import (
    Case,
    SpectralCase,
    TripleLawPoint,
    psi_up,
    ruin_probability,
    scale_fn,
    triple_law_K,
    triple_law_K_printed_upneg,
    triple_law_density,
)
from pssmp.stable import (
    Kind,
    StableParams,
    increment_sampler,
    rogozin_overshoot_density,
)
from pssmp.verify import run_suite

P = StableParams(1.5, 0.5)
S = SpectralCase(Case.UP_NEG, 1.5)
UP = SpectralCase(Case.UP_NEG, 1.5)
STAR = SpectralCase(Case.DOWN_POS, 1.5)
NAN, INF = math.nan, math.inf
W = ExitWindow(-0.5, 0.5)
SIM = SimConfig(10, 1e-2, 0)

CASES = {
    "psi-up-jump-weight-inf": lambda: psi_up(SpectralCase(Case.UP_NEG, 1.5, INF), 1.0),
    "exit-theta-nan": lambda: exit_density_two_sided(
        Kind.UP, P, ExitWindow(-0.5, 0.5), Direction.UP, NAN
    ),
    "exit-one-sided-theta-nan": lambda: exit_density_one_sided(
        Kind.UP, P, Direction.UP, 0.5, NAN
    ),
    "stable-rho-nan": lambda: StableParams(1.5, NAN),
    "density-I-jump-weight-nan": lambda: density_I(
        SpectralCase(Case.UP_NEG, 1.5, jump_weight=NAN), 1.0
    ),
    "hit-x-nan": lambda: hit_closed_ratio(HitQuery(1.5, NAN, 0.5, 2.0)),
    "sim-step-nan": lambda: SimConfig(10, NAN, 0),
    "sim-step-inf": lambda: SimConfig(10, INF, 0),
    "sim-max-time-nan": lambda: SimConfig(10, 1e-3, 0, max_time=NAN),
    "sim-max-time-inf": lambda: SimConfig(10, 1e-3, 0, max_time=INF),
    "sim-n-paths-fractional": lambda: SimConfig(2.5, 1e-3, 0),
    # int() would run the streams of seed 1.
    "sim-seed-fractional": lambda: SimConfig(10, 1e-3, 1.5),
    "refinement-levels-fractional": lambda: step_refinement_report(
        Kind.STAR, P, W, SIM, levels=2.5
    ),
    "refinement-levels-nan": lambda: step_refinement_report(
        Kind.STAR, P, W, SIM, levels=NAN
    ),
    "refinement-levels-str": lambda: step_refinement_report(
        Kind.STAR, P, W, SIM, levels="3"
    ),
    # Scales past the float range: raw OverflowError before.
    "refinement-level-scale-overflow": lambda: step_refinement_report(
        Kind.STAR,
        StableParams(0.05, 0.5),
        W,
        SimConfig(10, 1.0, 0, max_time=1e-8),
        levels=53,
    ),
    "increment-scale-overflow": lambda: increment_sampler(StableParams(0.05, 0.5), 1e16),
    "bias-field-missing": lambda: extrapolated_bias(
        [{"level": 0, "p_up": 0.5}, {"level": 1, "p_up": 0.4}], "p_down"
    ),
    "ruin-x-nan": lambda: ruin_probability(S, NAN, 1.0),
    "ruin-y-nan": lambda: ruin_probability(S, 1.0, NAN),
    "scale-fn-x-nan": lambda: scale_fn(S, NAN),
    "triple-K-barrier-nan": lambda: triple_law_K(S, NAN),
    "triple-density-theta-nan": lambda: triple_law_density(
        S, TripleLawPoint(-1.0, NAN, 0.5, 0.3)
    ),
    # phi = inf gave NaN, from -0 * inf in the kernel's e^(-q (phi - eta)).
    "triple-density-phi-inf": lambda: triple_law_density(
        S, TripleLawPoint(-1.0, 1.0, INF, 0.5)
    ),
    "min-cdf-up-z-nan": lambda: min_cdf_up(P, NAN),
    "max-cdf-down-z-nan": lambda: max_cdf_down(P, NAN),
    "extrema-max-z-nan": lambda: extrema_density_star(P, NAN, which="max"),
    "extrema-min-z-nan": lambda: extrema_density_star(P, NAN, which="min"),
    "extrema-min-printed-z-nan": lambda: extrema_min_star_as_printed(P, NAN),
    "rogozin-y-nan": lambda: rogozin_overshoot_density(P, 2.0, 1.0, NAN),
    "rogozin-a-inf": lambda: rogozin_overshoot_density(P, INF, 1.0, 0.5),
    "laplace-I-nan": lambda: expfun.laplace_I(UP, NAN),
    "left-mass-bound-nan": lambda: expfun.left_mass_bound(UP, NAN),
    "density-I-x-nan": lambda: density_I(UP, NAN),
    "entrance-density-x-nan": lambda: expfun.entrance_density(UP, 1.0, NAN),
    "entrance-density-t-nan": lambda: expfun.entrance_density(UP, NAN, 1.0),
    "entrance-moment-t-nan": lambda: expfun.entrance_moment(UP, 1, NAN),
    "sup-density-y-nan": lambda: expfun.sup_density_spectrally_positive(STAR, NAN),
    "density-I-star-x-nan": lambda: expfun.density_I_star(STAR, NAN),
    "density-I-star-printed-x-nan": lambda: expfun.density_I_star_as_printed(STAR, NAN),
    "sup-survival-y-nan": lambda: expfun.sup_survival_asymptotic(STAR, NAN),
    "sup-cdf-y-nan": lambda: expfun.sup_cdf(STAR, NAN),
    "cdf-I-star-x-nan": lambda: expfun.cdf_I_star(STAR, NAN),
    "hit-lamperti-e-u-overflow": lambda: hit_prob_lamperti(Kind.UP, 1.5, -1.0, 800.0),
    "suite-esscher-seed-fractional": lambda: run_suite("esscher", seed=1.5),
    "suite-hitting-seed-fractional": lambda: run_suite("hitting", seed=1.5),
    # polyfit returned nan for a nan point, and raised a raw LinAlgError for
    # an inf one (the tail grid of a tiny jump weight).
    "fit-loglog-y-nan": lambda: expfun.fit_loglog_slope([1.0, 2.0], [1.0, NAN]),
    "fit-loglog-x-inf": lambda: expfun.fit_loglog_slope([1.0, INF], [1.0, 2.0]),
    "fit-loglog-one-distinct-x": lambda: expfun.fit_loglog_slope([1.0, 1.0], [1.0, 2.0]),
    "tail-check-grid-overflow": lambda: expfun.tail_exponent_check(
        SpectralCase(Case.DOWN_POS, 1.5, 1e-310)
    ),
    # alpha * rho rounds to 0: log(sin(pi 0) / pi) raised a raw ValueError.
    "rogozin-side-exponent-zero": lambda: rogozin_overshoot_density(
        StableParams(5e-324, 0.5), 2.0, 1.0, 0.5
    ),
    "exit-side-exponent-zero": lambda: exit_density_two_sided(
        Kind.STAR, StableParams(5e-324, 0.5), W, Direction.UP, 0.5
    ),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_non_finite_input_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("law", ["rogozin-density", "exit-two-sided"])
def test_side_exponent_rounded_to_zero_exits_2(capsys, law):
    # At alpha 5e-324 both side exponents round to 0: a raw ValueError
    # traceback and exit 1 before, a one-line usage error now.
    rc = main(["eval", "--law", law, "--alpha", "5e-324"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# The printed triple-law constant raised a raw TypeError at v 0.5 (a complex
# power) and ZeroDivisionError at NaN, and v 0 a DomainError about the
# quadrature's evaluation count.
@pytest.mark.parametrize("v", [0.5, NAN, 0.0])
def test_printed_constant_barrier_is_checked(v):
    with pytest.raises(DomainError, match="barrier"):
        triple_law_K_printed_upneg(S, v)


def test_printed_constant_next_to_zero_is_finite():
    # -C(alpha) (1 - e^v)^(alpha - 1), the first term being of order
    # |v|^(3 - alpha); it raised a DomainError before.
    want = -math.pi / 0.75 * 1e-150
    assert triple_law_K_printed_upneg(S, -1e-300) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_printed_constant_past_the_float_range_is_a_numeric_error():
    # e^((3 - alpha) 700) is past the float range; it returned -4.19.
    with pytest.raises(NumericError, match="float range"):
        triple_law_K_printed_upneg(S, -700.0)


def test_two_point_hitting_names_the_overflowing_target():
    # e^800 is past the float range: the error names u, as the simulation's
    # does for its upper barrier, instead of a raw OverflowError.
    with pytest.raises(DomainError, match="u=800"):
        hit_prob_lamperti(Kind.UP, 1.5, -1.0, 800.0)


# A one-sided barrier must be finite and on its own side of 0: u > 0 for
# direction UP, v < 0 for DOWN.
BAD_BARRIERS = [
    (Direction.UP, -0.5),
    (Direction.UP, INF),
    (Direction.UP, -INF),
    (Direction.UP, NAN),
    (Direction.DOWN, 0.5),
    (Direction.DOWN, INF),
    (Direction.DOWN, -INF),
    (Direction.DOWN, NAN),
]


@pytest.mark.parametrize("direction, barrier", BAD_BARRIERS)
@pytest.mark.parametrize("kind", list(Kind))
def test_one_sided_barrier_is_checked(kind, direction, barrier):
    with pytest.raises(DomainError, match="barrier"):
        exit_density_one_sided(kind, P, direction, barrier, 0.5)
    with pytest.raises(DomainError, match="barrier"):
        exit_mass_one_sided(kind, P, direction, barrier)
