"""End-to-end acceptance checks, one numbered criterion per test.

Each criterion prints a single PASS/FAIL line (bypassing capture so the
lines always appear in the run log) and then asserts.  Two criteria also
assert that they can tell the right law from a wrong one:

- 6b asserts the right-tail slope -(1 + 1/alpha) that the law of the
  exponential functional forces, and that the slope lies more than 0.05
  from the -alpha once stated for it (measured -1.673 at alpha = 1.5);
- 7b asserts the overshoot law over the overshoots a grid of the stated
  step resolves, theta >= 5 step^(1/alpha), and that the down-kind tilt
  of the same samples fails that check.  The full-range KS, 0.114 at
  step 1e-4, is a grid floor that decays like step^(1/6); it is printed,
  not asserted.
"""

import math
import sys
import time

import numpy as np
import pytest

from conftest import CRITERION_LINES
from pssmp import expfun, hitting
from pssmp.exit_laws import (
    Direction,
    ExitWindow,
    exit_mass_one_sided,
    exit_mass_two_sided,
    extrema_density_star,
    extrema_min_star_as_printed,
    max_cdf_down,
    min_cdf_up,
    overshoot_cdf_interpolant,
)
from pssmp.hitting import HitQuery, hit_closed_ratio, hit_matrix_method, hit_prob_lamperti
from pssmp.montecarlo import (
    SIDE_UP,
    SimConfig,
    ks_distance,
    resolved_overshoot_cutoff,
    simulate_exit,
    step_refinement_report,
)
from pssmp.numerics import integrate_adaptive, log_gamma
from pssmp.scale import Case, SpectralCase, psi_down, psi_up, scale_fn, triple_law_total_mass
from pssmp.stable import Kind, StableParams
from pssmp.verify import (
    density_I_mass,
    density_I_star_mass,
    esscher_max_relative_error,
    star_min_derived_mass,
    star_up_fraction,
    tilt_reweighting_z,
)

ALPHAS = (0.8, 1.2, 1.5, 1.8)
RHOS = (0.3, 0.5, 0.7)
LEVELS = (0.25, 1.0, 3.0)


def grid_params():
    """Feasible (alpha, rho) combinations: both jump directions active.

    Combinations with alpha*rho >= 1 or alpha*(1-rho) >= 1 have no
    two-sided exit density (one side is crossed only by creeping) and are
    excluded by the same parameter predicate the library itself applies.
    """
    out = []
    for a in ALPHAS:
        for r in RHOS:
            p = StableParams(a, r)
            if p.two_sided:
                out.append(p)
    return out


def announce(n, failures, runtime=None, note=None):
    verdict = "PASS" if not failures else "FAIL"
    extra = ""
    if runtime is not None:
        extra += f" [{runtime:.1f}s]"
    if note:
        extra += f" ({note})"
    if failures:
        extra += " :: " + "; ".join(failures[:4])
    line = f"CRITERION {n}: {verdict}{extra}"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_normalization():
    """Two-sided overshoot densities of the conditioned kinds are probability
    densities: up-mass + down-mass = 1 within 1e-6 over the full grid."""
    t0 = time.perf_counter()
    failures = []
    for p in grid_params():
        for u in LEVELS:
            for nv in LEVELS:
                w = ExitWindow(-nv, u)
                for kind in (Kind.UP, Kind.DOWN):
                    total = exit_mass_two_sided(
                        kind, p, w, Direction.UP, tol=1e-8
                    ) + exit_mass_two_sided(kind, p, w, Direction.DOWN, tol=1e-8)
                    if abs(total - 1.0) > 1e-6:
                        failures.append(
                            f"{kind.value} a={p.alpha} r={p.rho} u={u} v={-nv}: "
                            f"mass={total:.8f}"
                        )
    runtime = time.perf_counter() - t0
    if runtime >= 30.0:
        failures.append(f"runtime {runtime:.1f}s over the 30s budget")
    announce(1, failures, runtime, note=f"{len(grid_params())} param combos x 9 windows")
    assert not failures


def test_criterion_2_esscher():
    """Exponential-tilt density ratios hold pointwise to 1e-12 relative
    error on 1000 random (parameter, window, theta) draws."""
    t0 = time.perf_counter()
    worst = esscher_max_relative_error(seed=0, n_draws=1000)
    runtime = time.perf_counter() - t0
    failures = []
    if worst > 1e-12:
        failures.append(f"worst relative error {worst:.3e} > 1e-12")
    if runtime >= 1.0:
        failures.append(f"runtime {runtime:.2f}s over the 1s budget")
    announce(2, failures, runtime, note=f"max rel err {worst:.2e}")
    assert not failures


def test_criterion_3_extrema():
    """Closed-form extrema CDFs match quadrature of the one-sided exit
    masses within 1e-6; the killed-kind maximum density integrates to 1
    within 1e-8."""
    t0 = time.perf_counter()
    failures = []
    for p in grid_params():
        for z in LEVELS:
            drop = exit_mass_one_sided(Kind.UP, p, Direction.DOWN, -z)
            if abs((1.0 - min_cdf_up(p, z)) - drop) > 1e-6:
                failures.append(f"min-cdf a={p.alpha} r={p.rho} z={z}")
            rise = exit_mass_one_sided(Kind.DOWN, p, Direction.UP, z)
            if abs((1.0 - max_cdf_down(p, z)) - rise) > 1e-6:
                failures.append(f"max-cdf a={p.alpha} r={p.rho} z={z}")
        mass = integrate_adaptive(
            lambda z: extrema_density_star(p, z, which="max"), 0.0, math.inf, tol=1e-10
        ).value
        if abs(mass - 1.0) > 1e-8:
            failures.append(f"star-max mass a={p.alpha} r={p.rho}: {mass:.10f}")
    runtime = time.perf_counter() - t0
    if runtime >= 30.0:
        failures.append(f"runtime {runtime:.1f}s over the 30s budget")
    announce(3, failures, runtime)
    assert not failures


def test_criterion_4_scale():
    """Laplace transform of the scale function inverts the Laplace
    exponent within 1e-8; the down exponent is the up exponent shifted by
    one to machine precision; the triple law self-normalizes within 1e-5."""
    t0 = time.perf_counter()
    failures = []
    for alpha in (1.2, 1.5, 1.8):
        s = SpectralCase(Case.UP_NEG, alpha)
        for theta in (2.0, 4.0, 8.0):
            lap = integrate_adaptive(
                lambda x: math.exp(-theta * x) * scale_fn(s, x),
                0.0,
                math.inf,
                tol=1e-11,
            ).value
            if abs(lap * psi_up(s, theta) - 1.0) > 1e-8:
                failures.append(f"laplace a={alpha} t={theta}")
        d = SpectralCase(Case.DOWN_NEG, alpha)
        for theta in (1.5, 3.0, 7.0):
            ref = psi_up(s, theta - 1.0)
            if abs(psi_down(d, theta) - ref) > 1e-14 * max(1.0, abs(ref)):
                failures.append(f"psi-shift a={alpha} t={theta}")
    mass = triple_law_total_mass(SpectralCase(Case.UP_NEG, 1.5), -1.0, tol=1e-6)
    if abs(mass - 1.0) > 1e-5:
        failures.append(f"triple-law mass {mass:.7f}")
    runtime = time.perf_counter() - t0
    if runtime >= 60.0:
        failures.append(f"runtime {runtime:.1f}s over the 60s budget")
    announce(4, failures, runtime)
    assert not failures


def test_criterion_5_hitting(monkeypatch):
    """Matrix and closed-ratio two-point hitting routes agree to 1e-10 on
    all distinct permutations of (0.5, 1, 2); the occupation-density
    normalization cancels to machine precision; tilted hitting
    probabilities stay in [0, 1]."""
    t0 = time.perf_counter()
    failures = []
    import itertools

    resolvent = hitting.killed_resolvent_u  # scaled from outside below

    for alpha in (1.2, 1.5, 1.8):
        for x, a, b in itertools.permutations((0.5, 1.0, 2.0)):
            q = HitQuery(alpha, x, a, b)
            gap = abs(hit_matrix_method(q) - hit_closed_ratio(q))
            if gap > 1e-10:
                failures.append(f"routes a={alpha} ({x},{a},{b}): gap {gap:.2e}")
        q = HitQuery(alpha, 1.0, 0.5, 2.0)
        base = hit_closed_ratio(q)
        with monkeypatch.context() as m:
            m.setattr(hitting, "killed_resolvent_u", lambda *pts: 13.0 * resolvent(*pts))
            drift = abs(hit_closed_ratio(q) - base)
        if drift > 1e-14:
            failures.append(f"prefactor a={alpha}: drift {drift:.2e}")
    for kind in (Kind.UP, Kind.DOWN):
        for v, u in ((-0.5, 0.5), (-2.0, 1.0)):
            pr = hit_prob_lamperti(kind, 1.5, v, u)
            if not (0.0 <= pr <= 1.0):
                failures.append(f"lamperti {kind.value} ({v},{u}): {pr}")
    runtime = time.perf_counter() - t0
    if runtime >= 5.0:
        failures.append(f"runtime {runtime:.1f}s over the 5s budget")
    announce(5, failures, runtime)
    assert not failures


_C6_FAILURES = []
_C6_T0 = []


def test_criterion_6a_expfun_identities():
    """Moment-Laplace identity within 1e-8; density mass within 1e-6;
    negative moments within 1e-5; entrance-law moments within 1e-5."""
    _C6_T0.append(time.perf_counter())
    model = SpectralCase(Case.UP_NEG, 1.5)
    for k in range(1, 6):
        quad = integrate_adaptive(
            lambda lam: lam ** (k - 1) * expfun.laplace_I(model, lam),
            0.0,
            math.inf,
            tol=1e-10,
        ).value / math.exp(log_gamma(k))
        if abs(quad / expfun.neg_moment_I(model, k) - 1.0) > 1e-8:
            _C6_FAILURES.append(f"moment-laplace k={k}")
    if abs(density_I_mass(model) - 1.0) > 1e-6:
        _C6_FAILURES.append("density mass")
    for k in (1, 2):
        got = integrate_adaptive(
            lambda x: x ** (-k) * expfun.density_I(model, x).value,
            0.09 / model.c,
            math.inf,
            tol=1e-9,
        ).value
        if abs(got / expfun.neg_moment_I(model, k) - 1.0) > 1e-5:
            _C6_FAILURES.append(f"density neg moment k={k}")
    t = 1.0
    for k in (1, 2):
        got = integrate_adaptive(
            lambda x: x**k * expfun.entrance_density(model, t, x).value,
            1e-8,
            t * model.c / 0.09,
            tol=1e-9,
        ).value
        if abs(got / expfun.entrance_moment(model, k, t) - 1.0) > 1e-5:
            _C6_FAILURES.append(f"entrance moment k={k}")
    assert not _C6_FAILURES


def test_criterion_6b_tail_slope_as_stated():
    """Right-tail slope of the density: -(1 + 1/alpha) +- 0.05, not -alpha.

    The paper's negative moments E(I^-k) = alpha m^k Gamma(k alpha) /
    (Gamma(alpha)^k (k-1)!), checked against the Laplace transform
    exp(-(lambda/c)^(1/alpha)) in 6a, determine the law (Carleman's
    condition holds for alpha < 2).  It is positive stable of index
    1/alpha, so its density decays like x^(-1-1/alpha): the fitted
    log-log slope must lie within 0.05 of -(1 + 1/alpha), -1.667 at
    alpha = 1.5.  The slope -alpha once stated for this criterion is
    derived nowhere in the paper or the package; the measured slope must
    also lie more than 0.05 from it, so that discrepancy stays checked
    the way criterion 8 checks its quoted forms.  The two values coincide
    only at the golden ratio.
    """
    model = SpectralCase(Case.UP_NEG, 1.5)
    slope = expfun.tail_exponent_check(model)
    derived = -(1.0 + 1.0 / model.alpha)
    quoted = -model.alpha
    failures = list(_C6_FAILURES)
    if abs(slope - derived) > 0.05:
        failures.append(f"tail slope {slope:.3f} not in -(1 + 1/alpha) +- 0.05")
    if abs(slope - quoted) <= 0.05:
        failures.append(
            f"tail slope {slope:.3f} within 0.05 of the quoted -alpha {quoted:.3f}"
        )
    runtime = time.perf_counter() - _C6_T0[0] if _C6_T0 else float("nan")
    if runtime >= 120.0:
        failures.append(f"runtime {runtime:.1f}s over the 120s budget")
    announce(
        6,
        failures,
        runtime,
        note=f"measured slope {slope:.3f}, derived {derived:.3f}, quoted {quoted:.3f}",
    )
    assert not failures


_MC = {}
_C7_FAILURES = []


def _mc_runs():
    """Shared seeded simulation budget for criterion 7: n=1e5, step=1e-4."""
    if _MC:
        return _MC
    p = StableParams(1.5, 0.5)
    w = ExitWindow(-0.5, 0.5)
    n_paths, step, seed = 100_000, 1e-4, 0
    t0 = time.perf_counter()
    _MC.update(
        p=p,
        w=w,
        t0=t0,
        star=simulate_exit(Kind.STAR, p, w, SimConfig(n_paths, step, seed)),
        report=step_refinement_report(
            Kind.STAR, p, w, SimConfig(20_000, step, seed), levels=2
        ),
        up_run=simulate_exit(Kind.UP, p, w, SimConfig(n_paths, step, seed + 1)),
        down_run=simulate_exit(Kind.DOWN, p, w, SimConfig(n_paths, step, seed + 2)),
    )
    return _MC


def test_criterion_7a_montecarlo_frequencies():
    """Seeded path simulation reproduces the closed-form laws: killed-kind
    exit-side frequency within 3 binomial SE + twice the extrapolated step
    bias; tilt reweighting across kinds consistent within 3 SE."""
    mc = _mc_runs()
    star = mc["star"]
    star.require_censoring_below(1e-3)
    band = star_up_fraction(star, mc["report"])
    if abs(band.measured - band.target) > band.tolerance:
        _C7_FAILURES.append(
            f"up fraction {band.measured:.5f} vs {band.target:.5f} (tol "
            f"{band.tolerance:.5f}, se {band.se:.5f}, bias {band.bias:.5f})"
        )

    z = tilt_reweighting_z(mc["down_run"], mc["up_run"])
    if abs(z) > 3.0:
        _C7_FAILURES.append(f"tilt reweighting z={z:.2f}")
    assert not _C7_FAILURES


def test_criterion_7b_overshoot_ks_as_stated():
    """Weighted KS of the conditioned-kind overshoots over the resolved
    range, required < 0.02; the down-kind tilt, required > 0.02.

    The overshoot density diverges like theta^(-alpha(1-rho)) at 0, so
    its CDF rises like theta^(1/4) at these parameters.  A path observed
    on a grid of step h cannot resolve overshoots smaller than the
    increment scale h^(1/alpha) (2e-3 at h = 1e-4), below which 26% of
    the mass lies.  Over all overshoots the KS distance therefore has a
    grid floor that decays only like h^((1-alpha(1-rho))/alpha), h^(1/6)
    here: 0.114 at the stated step, against 0.110 with no weights at all,
    so the full-range value cannot tell the right law from a wrong one.
    The sup is taken over theta >= 5 h^(1/alpha) (about 0.011); the
    empirical CDF still counts the weight below that cutoff.  On the same
    samples the down-kind weights (one power of the exit position fewer)
    must give a KS distance above 0.02, so the check can fail on a wrong
    tilt.  The full-range value is printed, not asserted.
    """
    mc = _mc_runs()
    up_run = mc["up_run"]
    cdf, _ = overshoot_cdf_interpolant(Kind.UP, mc["p"], Direction.UP, window=mc["w"])
    sel = up_run.side == SIDE_UP
    theta, hw = up_run.theta[sel], up_run.h_weight[sel]
    cutoff = resolved_overshoot_cutoff(mc["p"], up_run.config.step)
    ks = ks_distance(theta, cdf, weights=hw, cutoff=cutoff)
    down_tilt = hw / up_run.exit_position()[sel]
    ks_down = ks_distance(theta, cdf, weights=down_tilt, cutoff=cutoff)
    ks_full = ks_distance(theta, cdf, weights=hw)
    n_eff = float(np.sum(hw)) ** 2 / float(np.sum(hw**2))
    failures = list(_C7_FAILURES)
    if ks >= 0.02:
        failures.append(f"weighted KS {ks:.4f} >= 0.02 over theta >= {cutoff:.4f}")
    if ks_down <= 0.02:
        failures.append(
            f"down-kind tilt KS {ks_down:.4f} <= 0.02: the check cannot tell "
            f"the tilts apart"
        )
    runtime = time.perf_counter() - mc["t0"]
    if runtime >= 600.0:
        failures.append(f"runtime {runtime:.0f}s over the 600s budget")
    announce(
        7,
        failures,
        runtime,
        note=f"KS {ks:.4f} over theta >= {cutoff:.4f}, n_eff {n_eff:.0f}, "
        f"down tilt {ks_down:.4f}, full-range {ks_full:.4f}",
    )
    assert not failures


def test_criterion_8_adjudication_findings():
    """Documented discrepancies between quoted closed forms and the derived
    constructions: the derived laws integrate to 1 within 1e-5 while the
    quoted alternatives are not integrable, and the measured left-CDF
    slope of the killed functional is +1 within 0.05."""
    t0 = time.perf_counter()
    failures = []
    p = StableParams(1.5, 0.5)

    derived = star_min_derived_mass(p)
    if abs(derived - 1.0) > 1e-5:
        failures.append(f"derived min mass {derived:.7f}")
    printed_growth = extrema_min_star_as_printed(p, 4.0) / extrema_min_star_as_printed(
        p, 2.0
    )
    if printed_growth <= 1.0:
        failures.append("quoted min density unexpectedly decays")

    star = SpectralCase(Case.DOWN_POS, 1.5)
    slope = expfun.tail_exponent_check(star)
    if abs(slope - 1.0) > 0.05:
        failures.append(f"left-CDF slope {slope:.3f}")

    mass = density_I_star_mass(star)
    if abs(mass - 1.0) > 1e-5:
        failures.append(f"derived functional density mass {mass:.7f}")
    as_printed_growth = (
        expfun.density_I_star_as_printed(star, 10.0).value
        / expfun.density_I_star_as_printed(star, 5.0).value
    )
    if abs(as_printed_growth) <= 1.0:
        failures.append("quoted functional density unexpectedly decays")

    runtime = time.perf_counter() - t0
    announce(
        8,
        failures,
        runtime,
        note=f"min mass {derived:.6f}, slope {slope:.3f}, I* mass {mass:.6f}",
    )
    assert not failures
