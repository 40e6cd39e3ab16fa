"""End-to-end acceptance checks, one numbered criterion per test.

The criteria are ``verify`` check records: ``verify.criterion(n)`` builds
criterion n with the suites' own check builders, at the grid and threshold
the criterion states.  This file holds each stated target and threshold
once, as a literal, and asserts for every criterion that

- its records are exactly the named checks below, each following the
  record contract, so that a criterion cannot pass on a shrunk list;
- every check passes (a finding is reported, never passed);
- each record's target and tolerance are the stated ones, so that an edit
  to ``verify`` cannot loosen a criterion or move its target (a target
  computed by an independent route, the exit mass behind an extremum CDF
  or the killed kind's exit-side fraction, is taken from ``verify``; C7a's
  band is held to the 4 digits its detail prints);
- its time budget holds;
- its discriminating bounds hold, read off the records: the checks can
  tell the right law from a wrong one (6b, 7b and 8, see their tests).

Each criterion is computed once per pytest run, by whichever of its tests
runs first, and adds one ``CRITERION n: PASS/FAIL`` line, printed from its
records, to the terminal summary.  To run one criterion:
``pytest tests/test_acceptance.py -k criterion_6``.
"""

import math
import re
import time
from functools import cache

import pytest

from conftest import CRITERION_LINES, assert_record_contract
from pssmp import hitting, verify
from pssmp.hitting import HitQuery, hit_closed_ratio

# The (alpha, rho) of alpha in {0.8, 1.2, 1.5, 1.8}, rho in {0.3, 0.5, 0.7}
# with both jump directions active (alpha*rho < 1 and alpha*(1 - rho) < 1).
FEASIBLE = (
    (0.8, 0.3), (0.8, 0.5), (0.8, 0.7),
    (1.2, 0.3), (1.2, 0.5), (1.2, 0.7),
    (1.5, 0.5), (1.8, 0.5),
)
LEVELS = (0.25, 1.0, 3.0)
ALPHAS = (1.2, 1.5, 1.8)

# A target that verify computes by an independent route: one minus the
# one-sided exit mass for an extremum CDF, or the killed kind's closed-form
# exit-side fraction.
ORACLE = "computed by verify"

# Criterion 7a's band, 3 binomial SE plus twice the extrapolated step bias,
# is the one threshold computed from its run.
BAND = (3.0, 2.0)

# Each criterion's checks and their stated (target, tolerance); None marks
# a finding, whose target is the derived form's value.
STATED = {
    1: {
        f"two-sided-mass-{kind}-a{a}-r{r}-u{u}-v{-v}": (1.0, 1e-6)
        for a, r in FEASIBLE
        for u in LEVELS
        for v in LEVELS
        for kind in ("up", "down")
    },
    2: {"tilt-ratio-pointwise": (0.0, 1e-12)},
    3: {
        **{
            f"{cdf}-a{a}-r{r}-z{z}": (ORACLE, 1e-6)
            for a, r in FEASIBLE
            for z in LEVELS
            for cdf in ("min-cdf-up", "max-cdf-down")
        },
        **{f"star-max-mass-a{a}-r{r}": (1.0, 1e-8) for a, r in FEASIBLE},
    },
    4: {
        **{
            f"laplace-identity-up-neg-a{a}-t{t}": (1.0, 1e-8)
            for a in ALPHAS
            for t in (2.0, 4.0, 8.0)
        },
        **{f"psi-shift-a{a}": (0.0, 1e-14) for a in ALPHAS},
        "triple-law-self-normalization": (1.0, 1e-5),
    },
    5: {
        "matrix-vs-closed-ratio": (0.0, 1e-10),
        "scaling-invariance": (0.0, 1e-14),
        "lamperti-hit-range": (0.0, 0.0),
    },
    6: {
        **{f"moment-laplace-k{k}": (1.0, 1e-8) for k in range(1, 6)},
        "density-I-mass": (1.0, 1e-6),
        **{f"density-neg-moment-k{k}": (1.0, 1e-5) for k in (1, 2)},
        **{f"entrance-moment-k{k}": (1.0, 1e-5) for k in (1, 2)},
        "density-I-right-tail-slope": (-(1.0 + 1.0 / 1.5), 0.05),
    },
    7: {
        "star-up-fraction": (ORACLE, BAND),
        "esscher-reweighting": (0.0, 3.0),
        "up-overshoot-ks": (0.0, math.nextafter(0.02, 0.0)),  # KS < 0.02
        "down-tilt-overshoot-ks": None,
    },
    8: {
        "star-min-derived-mass": (1.0, 1e-5),
        "star-min-as-printed-growth": None,
        "I-star-left-cdf-slope": (1.0, 0.05),
        "density-I-star-mass": (1.0, 1e-5),
        "density-I-star-as-printed-growth": None,
    },
}

BUDGET_S = {1: 30.0, 2: 1.0, 3: 30.0, 4: 60.0, 5: 5.0, 6: 120.0, 7: 600.0}

# The bounds by which a criterion tells the right law from a wrong one.
DISCRIMINATING = {
    "density-I-right-tail-slope": (
        "more than 0.05 from -alpha = -1.5",
        lambda m: abs(m + 1.5) > 0.05,
    ),
    "down-tilt-overshoot-ks": ("above 0.02", lambda m: m > 0.02),
    "star-min-as-printed-growth": ("above 1", lambda m: m > 1.0),
    "density-I-star-as-printed-growth": ("above 1 in size", lambda m: abs(m) > 1.0),
}

# Criteria 6 and 7 are two tests each over one computation: the "a" test
# asserts the failures of the records named here, the "b" test the rest.
PART_A = {
    6: set(STATED[6]) - {"density-I-right-tail-slope"},
    7: {"star-up-fraction", "esscher-reweighting"},
}

# (label, record, field, format) of the values each CRITERION line shows.
NOTES = {
    2: [("max rel err", "tilt-ratio-pointwise", "measured", ".2e")],
    6: [
        ("measured slope", "density-I-right-tail-slope", "measured", ".3f"),
        ("derived", "density-I-right-tail-slope", "target", ".3f"),
    ],
    7: [
        ("KS", "up-overshoot-ks", "measured", ".4f"),
        ("down tilt", "down-tilt-overshoot-ks", "measured", ".4f"),
        ("", "up-overshoot-ks", "detail", ""),
    ],
    8: [
        ("min mass", "star-min-derived-mass", "measured", ".6f"),
        ("slope", "I-star-left-cdf-slope", "measured", ".3f"),
        ("I* mass", "density-I-star-mass", "measured", ".6f"),
    ],
}


def _unstated(record, target, tolerance):
    """Messages for a record whose target or tolerance is not the stated one.
    C7a's band is rebuilt from the SE and bias its detail prints to 4
    digits, so that tolerance is held only to a relative 5e-4."""
    name = record["name"]
    messages = []
    if target is not ORACLE and record["target"] != target:
        messages.append(f"{name} target {record['target']}, stated {target}")
    if tolerance is BAND:
        printed = r"binomial SE (\S+), extrapolated step bias (\S+) "
        got = re.match(printed, record["detail"])
        if got is None:
            return messages + [f"{name} detail gives no SE and bias for its band"]
        band = BAND[0] * float(got[1]) + BAND[1] * float(got[2])
        if not math.isclose(record["tolerance"], band, rel_tol=5e-4):
            messages.append(f"{name} tolerance {record['tolerance']}, band {band}")
    elif record["tolerance"] != tolerance:
        messages.append(f"{name} tolerance {record['tolerance']}, stated {tolerance}")
    return messages


def _prefactor_failures():
    """The occupation-density normalization cancels: scaling
    killed_resolvent_u by 13 moves the closed-ratio probability by at most
    1e-14.  It patches the library, so it is not a verify check."""
    resolvent = hitting.killed_resolvent_u
    failures = []
    for alpha in ALPHAS:
        q = HitQuery(alpha, 1.0, 0.5, 2.0)
        base = hit_closed_ratio(q)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hitting, "killed_resolvent_u", lambda *x: 13.0 * resolvent(*x))
            drift = abs(hit_closed_ratio(q) - base)
        if drift > 1e-14:
            failures.append(f"prefactor a={alpha}: drift {drift:.2e}")
    return failures


@cache
def _verdict(n):
    """Criterion n's records and its failures as (record name, message),
    the name None for the criterion as a whole; adds the CRITERION line."""
    t0 = time.perf_counter()
    records = verify.criterion(n)
    failures = [(None, m) for m in (_prefactor_failures() if n == 5 else ())]
    runtime = time.perf_counter() - t0
    by_name = {r["name"]: r for r in records}
    stated = STATED[n]
    if set(by_name) != set(stated):
        differ = set(by_name) ^ set(stated)
        failures.append((None, f"checks differ from the stated ones: {differ}"))
    for name, r in by_name.items():
        if name not in stated:
            continue
        if r["status"] != ("finding" if stated[name] is None else "pass"):
            got = f"{r['measured']} vs {r['target']}"
            failures.append((name, f"{name} {r['status']}: {got}"))
        if stated[name] is not None:
            failures += [(name, m) for m in _unstated(r, *stated[name])]
        bound, holds = DISCRIMINATING.get(name, (None, lambda m: True))
        if not holds(r["measured"]):
            failures.append((name, f"{name} {r['measured']:.4g} is not {bound}"))
    budget = BUDGET_S.get(n, math.inf)
    if runtime >= budget:
        failures.append((None, f"runtime {runtime:.1f}s over the {budget:g}s budget"))

    note = [f"checks {len(records)}"] + [
        f"{label} {by_name[name][field]:{fmt}}".strip()
        for label, name, field, fmt in NOTES.get(n, ())
        if name in by_name
    ]
    verdict = "FAIL" if failures else "PASS"
    line = f"CRITERION {n}: {verdict} [{runtime:.1f}s] ({', '.join(note)})"
    if failures:
        line += " :: " + "; ".join(m for _, m in failures[:4])
    CRITERION_LINES.append(line)
    return records, failures


def _assert_criterion(n, part=None):
    """Assert criterion n, or its part "a" or "b" (see PART_A)."""
    records, failures = _verdict(n)
    assert_record_contract(records)
    if part is not None:
        failures = [f for f in failures if (f[0] in PART_A[n]) == (part == "a")]
    assert not [m for _, m in failures]


def test_criterion_1_normalization():
    """Two-sided overshoot densities of the conditioned kinds are probability
    densities: up-mass + down-mass = 1 within 1e-6 over the full grid."""
    _assert_criterion(1)


def test_criterion_2_esscher():
    """Exponential-tilt density ratios hold pointwise to 1e-12 relative
    error on 1000 random (parameter, window, theta) draws."""
    _assert_criterion(2)


def test_criterion_3_extrema():
    """Closed-form extrema CDFs match quadrature of the one-sided exit
    masses within 1e-6; the killed-kind maximum density integrates to 1
    within 1e-8."""
    _assert_criterion(3)


def test_criterion_4_scale():
    """Laplace transform of the scale function inverts the Laplace
    exponent within 1e-8; the down exponent is the up exponent shifted by
    one to machine precision; the triple law self-normalizes within 1e-5."""
    _assert_criterion(4)


def test_criterion_5_hitting():
    """Matrix and closed-ratio two-point hitting routes agree to 1e-10 on
    all distinct permutations of (0.5, 1, 2); the occupation-density
    normalization cancels to machine precision, and so does a rescaling of
    the points; tilted hitting probabilities stay in [0, 1]."""
    _assert_criterion(5)


def test_criterion_6a_expfun_identities():
    """Moment-Laplace identity within 1e-8; density mass within 1e-6;
    negative moments within 1e-5; entrance-law moments within 1e-5."""
    _assert_criterion(6, "a")


def test_criterion_6b_tail_slope_as_stated():
    """Right-tail slope of the density: -(1 + 1/alpha) +- 0.05, -1.667 at
    alpha = 1.5, which the paper's negative moments (6a) force; and more
    than 0.05 from the -alpha once stated for this criterion, which nothing
    derives (README, "Verification and known findings")."""
    _assert_criterion(6, "b")


def test_criterion_7a_montecarlo_frequencies():
    """Seeded path simulation (1e5 paths of each kind at step 1e-4)
    reproduces the closed-form laws: killed-kind exit-side frequency within
    3 binomial SE + twice the extrapolated step bias; tilt reweighting
    across kinds consistent within 3 SE."""
    _assert_criterion(7, "a")


def test_criterion_7b_overshoot_ks_as_stated():
    """Weighted KS of the conditioned-kind overshoots over the resolved
    range theta >= 5 step^(1/alpha), required < 0.02; on the same samples
    the down-kind tilt, required > 0.02.  Over all overshoots the KS has a
    grid floor (0.114 at step 1e-4, 0.110 with no weights), so the
    full-range value is printed, not asserted (README, "Verification and
    known findings")."""
    _assert_criterion(7, "b")


def test_criterion_8_adjudication_findings():
    """Documented discrepancies between quoted closed forms and the derived
    constructions: the derived laws integrate to 1 within 1e-5 while the
    quoted alternatives grow, so are not integrable, and the measured
    left-CDF slope of the killed functional is +1 within 0.05."""
    _assert_criterion(8)
