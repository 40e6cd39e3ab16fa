"""Library entry points refuse non-finite numbers, and fractional path
counts and seeds, with DomainError."""

import math

import pytest

from pssmp.errors import DomainError
from pssmp.exit_laws import (
    Direction,
    ExitWindow,
    exit_density_one_sided,
    exit_density_two_sided,
    exit_mass_one_sided,
)
from pssmp.expfun import ExpCase, ExpFunctionalModel, density_I
from pssmp.hitting import HitQuery, hit_closed_ratio
from pssmp.montecarlo import SimConfig
from pssmp.scale import Case, SpectralCase, psi_up
from pssmp.stable import Kind, StableParams

P = StableParams(1.5, 0.5)
NAN, INF = math.nan, math.inf

CASES = {
    "psi-up-m-nan": lambda: psi_up(SpectralCase(Case.UP_NEG, 1.5, m=NAN), 1.0),
    "spectral-q-ladder-inf": lambda: SpectralCase(Case.DOWN_NEG, 1.5, q_ladder=INF),
    "exit-theta-nan": lambda: exit_density_two_sided(
        Kind.UP, P, ExitWindow(-0.5, 0.5), Direction.UP, NAN
    ),
    "exit-one-sided-theta-nan": lambda: exit_density_one_sided(
        Kind.UP, P, Direction.UP, 0.5, NAN
    ),
    "stable-c-plus-nan": lambda: StableParams(1.5, 0.5, c_plus=NAN),
    "density-I-jump-weight-nan": lambda: density_I(
        ExpFunctionalModel(ExpCase.UP_SPECTRALLY_NEGATIVE, 1.5, jump_weight=NAN), 1.0
    ),
    "hit-x-nan": lambda: hit_closed_ratio(HitQuery(1.5, NAN, 0.5, 2.0)),
    "sim-step-nan": lambda: SimConfig(10, NAN, 0),
    "sim-step-inf": lambda: SimConfig(10, INF, 0),
    "sim-max-time-nan": lambda: SimConfig(10, 1e-3, 0, max_time=NAN),
    "sim-max-time-inf": lambda: SimConfig(10, 1e-3, 0, max_time=INF),
    "sim-n-paths-fractional": lambda: SimConfig(2.5, 1e-3, 0),
    # int() would run the streams of seed 1.
    "sim-seed-fractional": lambda: SimConfig(10, 1e-3, 1.5),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_non_finite_input_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


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
