"""Which of alpha*rho and alpha*(1 - rho) belongs to the upward side is one
fact, held by ``StableParams.up_jump_exponent`` and ``down_jump_exponent``.

The source scan keeps it there: no module of ``src/pssmp`` reads
``alpha_rho`` or ``alpha_rho_hat`` outside ``StableParams.two_sided`` and
the sampler's feasibility check, which are symmetric in the two.  The Monte
Carlo test measures the fact: the sampler draws rho = P(X_1 > 0), and at
rho 0.3 and 0.7 the closed-form up-exit masses agree with the simulation
only with the two property bodies swapped.  Mending that is swapping the
two bodies; this test then drops its patch.
"""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from pssmp import cli, exit_laws, expfun
from pssmp.exit_laws import Direction, ExitWindow, exit_mass_two_sided
from pssmp.montecarlo import (
    SIDE_UP,
    SimConfig,
    extrapolated_bias,
    simulate_exit,
    step_refinement_report,
)
from pssmp.scale import SpectralCase
from pssmp.stable import Kind, StableParams

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pssmp"
RAW = {"alpha_rho", "alpha_rho_hat"}


def _raw_reads():
    """(module.qualified.scope, line) of every attribute read of alpha_rho or
    alpha_rho_hat in src/pssmp; the scope is the enclosing classes and
    functions, outermost first."""
    reads = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Attribute) and child.attr in RAW:
                reads.append((scope, child.lineno))
            walk(child, inner)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return reads


def test_raw_exponents_are_read_only_by_the_symmetric_checks():
    reads = _raw_reads()
    assert [scope for scope, _ in reads] == [
        "stable.StableParams.two_sided",
        "stable.StableParams.two_sided",
        "stable.increment_sampler",
        "stable.increment_sampler",
    ], reads
    # Both sampler reads sit on the one feasibility line, max(alpha*rho,
    # alpha*(1 - rho)) <= 1, which does not care which is which.
    (_, first), (_, second) = reads[2:]
    line = (SRC / "stable.py").read_text(encoding="utf-8").splitlines()[first - 1]
    assert first == second and "max(p.alpha_rho, p.alpha_rho_hat)" in line


def test_one_model_for_the_one_sided_cases():
    # scale.SpectralCase serves scale and expfun; its m is derived from the
    # jump weight, never given, and the second model and --m are gone.
    assert [f.name for f in dataclasses.fields(SpectralCase)] == [
        "case", "alpha", "jump_weight"
    ]
    assert not hasattr(expfun, "ExpCase") and not hasattr(expfun, "ExpFunctionalModel")
    assert not hasattr(exit_laws, "_jump_exponents")
    assert "m" not in cli._OPTIONS


@pytest.mark.parametrize("alpha", [0.8, 1.2, 1.5])
@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
def test_side_exponents_are_the_two_products(alpha, rho):
    p = StableParams(alpha, rho)
    assert {p.up_jump_exponent, p.down_jump_exponent} == {p.alpha_rho, p.alpha_rho_hat}


WINDOW = ExitWindow(-0.5, 0.5)
CASES = [
    (kind, alpha, rho)
    for kind in (Kind.STAR, Kind.DOWN)
    for alpha in (0.8, 1.2)
    for rho in (0.3, 0.7)
]


def _up_exit_gap(kind, p):
    """(|weighted up-exit frequency - closed-form mass|, SE, step drift) at
    4000 paths, step 1e-3 and seed 1; the drift is that of step 1e-3 to 5e-4."""
    cfg = SimConfig(4000, 1e-3, 1)
    s = simulate_exit(kind, p, WINDOW, cfg)
    wu = s.h_weight * (s.side == SIDE_UP)
    se = float(np.std(wu)) / math.sqrt(cfg.n_paths)
    drift = extrapolated_bias(step_refinement_report(kind, p, WINDOW, cfg, 2), "p_up")
    target = exit_mass_two_sided(kind, p, WINDOW, Direction.UP)
    return abs(float(np.mean(wu)) - target), se, drift


def _swap_side_exponents(monkeypatch):
    monkeypatch.setattr(StableParams, "up_jump_exponent", property(lambda p: p.alpha_rho))
    monkeypatch.setattr(
        StableParams, "down_jump_exponent", property(lambda p: p.alpha_rho_hat)
    )


@pytest.mark.parametrize("kind,alpha,rho", CASES)
def test_swapped_side_exponents_match_the_simulation(monkeypatch, kind, alpha, rho):
    p = StableParams(alpha, rho)
    gap, se, drift = _up_exit_gap(kind, p)
    assert gap > 10.0 * se, (gap / se, drift / se)
    _swap_side_exponents(monkeypatch)
    gap, se, drift = _up_exit_gap(kind, p)
    assert gap <= 3.0 * se + 2.0 * drift, (gap / se, drift / se)
