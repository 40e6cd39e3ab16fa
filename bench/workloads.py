"""Seeded op lists of the benchmark workloads, with a correctness check per op.

A workload round is a list of ``Op``s built from a seed.  ``Op.run`` calls
the program (through ``pssmp.cli.main`` or a public library function, looked
up on its module at call time so that the tracer's wrappers see it) and
returns its output; ``Op.check`` raises ``CheckFailed`` when the output is
wrong.  Only ``run`` is timed as op latency.

Inputs are drawn from the domains the acceptance grid and the verify
suites document: alpha in {0.8, 1.2, 1.5, 1.8}, rho in {0.3, 0.5, 0.7},
levels {0.25, 1, 3}, kept or dropped only by the library's own feasibility
predicates (two-sided jumps; alpha in (1, 2) for the one-sided cases and
the exponential functionals).  No input is dropped because it errors: the
ops known to fail are listed by ``expectation`` and counted as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pssmp.cli as cli
from pssmp import exit_laws, montecarlo, verify
from pssmp.exit_laws import Direction, ExitWindow, exit_mass_two_sided
from pssmp.montecarlo import SIDE_DOWN, SIDE_UP, SimConfig
from pssmp.stable import Kind, StableParams

from pooled import z_crit

WORKLOADS = ("interactive", "paths")

ALPHAS = (0.8, 1.2, 1.5, 1.8)
RHOS = (0.3, 0.5, 0.7)
LEVELS = (0.25, 1.0, 3.0)

TWO_SIDED = tuple(
    (a, r) for a in ALPHAS for r in RHOS if StableParams(a, r).two_sided
)
ONE_SIDED_ALPHAS = tuple(a for a in ALPHAS if 1.0 < a < 2.0)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class CheckFailed(Exception):
    """An op's output missed its correctness check."""


@dataclass
class Op:
    label: str  # op type, shared by the same request in every round
    key: str  # full description of the input
    run: Callable[[], object]
    check: Callable[[object], None]
    # Maps the output to the value whose digest must repeat bit for bit.
    canonical: Callable[[object], object] = lambda out: out


def _g(x: float) -> str:
    return repr(float(x))


def _close(got, ref, rel, abs_, what):
    if not math.isfinite(got):
        raise CheckFailed(f"{what}: non-finite value {got!r}")
    if abs(got - ref) > rel * abs(ref) + abs_:
        raise CheckFailed(f"{what}: {got!r} vs reference {ref!r} (rel {rel}, abs {abs_})")


def digest(value) -> str:
    """Bit-exact fingerprint of an op output (floats by repr, arrays by bytes)."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(v.dtype.str.encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for x in v:
                feed(x)
            h.update(b"]")
        elif isinstance(v, dict):
            for k in sorted(v):
                feed(k)
                feed(v[k])
        elif isinstance(v, montecarlo.ExitSampleSet):
            feed([v.side, v.theta, v.h_weight, v.steps_used])
        elif callable(v):
            h.update(b"<callable>")
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


# ---------------------------------------------------------------- interactive

# Tolerance of each law as (relative, absolute), taken from the verify suites:
# 1e-5 for densities and moments, 1e-6 for exit masses and probabilities,
# 1e-8 for the Laplace-exponent identities, 1e-10 for two-point hitting.
EVAL_TOL = {
    "rogozin-density": (1e-5, 0.0),
    "exit-two-sided": (1e-5, 0.0),
    "exit-one-sided": (1e-5, 0.0),
    "min-cdf-up": (0.0, 1e-6),
    "max-cdf-down": (0.0, 1e-6),
    "extrema-star": (1e-5, 0.0),
    "scale-fn": (1e-8, 0.0),
    "psi": (1e-8, 0.0),
    "ruin": (0.0, 1e-6),
    "hit-two-point": (0.0, 1e-10),
    "expfun-density": (1e-5, 0.0),
    "expfun-moments": (1e-5, 0.0),
    "entrance-density": (1e-5, 0.0),
    "tails": (1e-5, 0.0),
}

_GRID = {
    "rogozin-density": "0.01:5:8",
    "exit-two-sided": "0.01:5:8",
    "exit-one-sided": "0.01:5:8",
    "min-cdf-up": "0:5:8",
    "max-cdf-down": "0:5:8",
    "extrema-star": "0.01:5:8",
    "scale-fn": "0.01:5:8",
    "psi": "0:8:8",
    "ruin": "0.1:5:8",
    "hit-two-point": "0.6:1.9:8",
    "expfun-density": "0.2:20:8:log",
    "expfun-moments": "1:5:5",
    "entrance-density": "0.05:10:8:log",
}


def _ar(a, r):
    return ["--alpha", _g(a), "--rho", _g(r)]


def eval_domain() -> dict:
    """Every eval request the interactive workload can draw, by request type.

    extrema-star appears twice (max and min) so each round holds both; the
    min density is the only eval request that runs nested quadrature.
    """
    kinds, dirs = ("star", "up", "down"), ("up", "down")
    cases = ("up-neg", "down-neg", "down-pos")
    d = {
        "rogozin-density": [
            _ar(a, r) + ["--a", _g(top), "--x", _g(x)]
            for a, r in TWO_SIDED
            for x in LEVELS
            for top in LEVELS
            if x < top
        ],
        "exit-two-sided": [
            ["--kind", k, "--direction", dr] + _ar(a, r) + ["--u", _g(u), "--v", _g(-v)]
            for k in kinds
            for dr in dirs
            for a, r in TWO_SIDED
            for u in LEVELS
            for v in LEVELS
        ],
        "exit-one-sided": [
            ["--kind", k, "--direction", dr]
            + _ar(a, r)
            + (["--u", _g(b)] if dr == "up" else ["--v", _g(-b)])
            for k in kinds
            for dr in dirs
            for a, r in TWO_SIDED
            for b in LEVELS
        ],
        "min-cdf-up": [_ar(a, r) for a, r in TWO_SIDED],
        "max-cdf-down": [_ar(a, r) for a, r in TWO_SIDED],
        "extrema-star-max": [_ar(a, r) + ["--which", "max"] for a, r in TWO_SIDED],
        "extrema-star-min": [_ar(a, r) + ["--which", "min"] for a, r in TWO_SIDED],
        "scale-fn": [["--case", c, "--alpha", _g(a)] for c in cases for a in ONE_SIDED_ALPHAS],
        "psi": [["--case", c, "--alpha", _g(a)] for c in cases for a in ONE_SIDED_ALPHAS],
        "ruin": [
            ["--case", c, "--alpha", _g(a), "--x", _g(x)]
            for c in cases
            for a in ONE_SIDED_ALPHAS
            for x in LEVELS
        ],
        "hit-two-point": [
            ["--alpha", _g(a), "--a", _g(ta), "--b", _g(tb)]
            for a in ONE_SIDED_ALPHAS
            for ta in LEVELS
            for tb in LEVELS
            if ta != tb
        ],
        "expfun-density": [
            ["--kind", k, "--alpha", _g(a)] for k in ("up", "star") for a in ONE_SIDED_ALPHAS
        ],
        "expfun-moments": [["--alpha", _g(a)] for a in ONE_SIDED_ALPHAS],
        "entrance-density": [
            ["--alpha", _g(a), "--t", _g(t)] for a in ONE_SIDED_ALPHAS for t in LEVELS
        ],
        "tails": [["--alpha", _g(a)] for a in ONE_SIDED_ALPHAS],
    }
    out = {}
    for label, tails in d.items():
        law = "extrema-star" if label.startswith("extrema-star") else label
        grid = ["--grid", _GRID[law]] if law in _GRID else []
        out[label] = [["eval", "--law", law] + t + grid for t in tails]
    return out


QUICK_SUITES = ("esscher", "normalization", "hitting", "extrema", "montecarlo")
SIM_PATHS = 1000
SIM_STEPS = (1e-3, 1e-2)


# Classes of simulate requests whose check fails in some seeds, for the
# reasons found when the benchmark was defined (see RATIONALE.md).  They are
# drawn like every other request; their failures count in ``failed`` but do
# not make a run incorrect.  An entry matches a request whose options take
# one of the listed values for every listed option.
MAY_FAIL = (
    ({"--rho": ("0.3", "0.7")},
     "closed-form exit laws use alpha*rho where P(X_1 > 0) = rho needs alpha*(1 - rho)"),
    ({"--step": ("0.01",)},
     "at step 1e-2 the drift to half the step understates the grid bias"),
    ({"--alpha": ("1.8",), "--u": ("3.0",)},
     "at alpha 1.8 and upper level 3 the weighted up-exit frequency misses its band"),
)


def expectation(op: "Op", refs: dict):
    """("fail" | "may-fail" | "pass", reason) for an op at this commit.

    Eval requests that failed when the references were recorded are listed
    in ``reference.json`` under "failing" and must fail; a fix shows up as
    an op that passes against that list.
    """
    known = refs.get("failing", {}).get(op.key)
    if known is not None:
        return "fail", known
    argv = op.key.split()
    if argv[0] == "simulate":
        opt = dict(zip(argv[1::2], argv[2::2]))
        for match, why in MAY_FAIL:
            if all(opt.get(k) in v for k, v in match.items()):
                return "may-fail", why
    return "pass", ""


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    if not lines:
        raise CheckFailed("no CSV header")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _check_eval(argv, path, refs):
    key = " ".join(argv)
    ref = refs["eval"].get(key)
    if ref is None:
        raise CheckFailed(f"no reference for {key!r}")
    header, rows = _read_csv(path)
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        raise CheckFailed(f"{key}: header/rows {header} x {len(rows)} differ from reference")
    # References keep 12 significant digits, below every tolerance used here.
    rel, abs_ = EVAL_TOL[argv[2]]
    for got, want in zip(rows, ref["rows"]):
        if isinstance(want[0], str):
            if got[0] != want[0]:
                raise CheckFailed(f"{key}: row label {got[0]} vs {want[0]}")
        else:
            _close(float(got[0]), want[0], 1e-11, 0.0, f"{key} grid point")
        _close(float(got[1]), want[1], max(rel, 1e-11), abs_, f"{key} at {got[0]}")
        if len(got) > 2:
            bound = float(got[2])
            if not (math.isfinite(bound) and bound >= 0.0):
                raise CheckFailed(f"{key}: bad error bound {got[2]}")
    return len(rows)


def _balanced(rng, items, n):
    """n items: every item equally often (the remainder drawn), shuffled."""
    out = list(items) * (n // len(items)) + rng.sample(list(items), n % len(items))
    rng.shuffle(out)
    return out


def simulate_design(seed: int, rounds: int, n_paths=SIM_PATHS):
    """The six simulate requests of each round of a run of ``rounds`` rounds.

    Each round runs star, up and down once at each step.  Over the run, the
    requests at one step give each level as u to ``rounds`` requests, and
    within each u the levels as -v and the two-sided (alpha, rho) pairs
    recur equally often (as far as the count allows: with 8 rounds each
    pair once); the cells are then shuffled over the rounds.  The cost of a
    request at step 1e-3 grows up to tenfold with u and with alpha*rho, so
    this keeps the cost of a run from swinging with the seed, while every
    grid point stays reachable.
    """
    rng = random.Random(f"interactive:{seed}:simulate:{rounds}")
    design = [[] for _ in range(rounds)]
    for step in SIM_STEPS:
        cells = [
            (u, v, a, r)
            for u in LEVELS
            for v, (a, r) in zip(_balanced(rng, LEVELS, rounds), _balanced(rng, TWO_SIDED, rounds))
        ]
        rng.shuffle(cells)
        for i, (u, v, a, r) in enumerate(cells):
            round_, kind = divmod(i, 3)
            design[round_].append(
                ["simulate", "--kind", ("star", "up", "down")[kind]] + _ar(a, r) + [
                    "--u", _g(u), "--v", _g(-v), "--step", _g(step),
                    "--n-paths", str(n_paths), "--seed", str(rng.randrange(2**31)),
                ]
            )
    return design


def _check_simulate(argv, path, sim_tests):
    """Weighted up-exit frequency within z SE + 2 x step-halving drift.

    z is ``z_crit(sim_tests)``: the run's ``sim_tests`` simulate checks
    share one false-alarm rate (see pooled.py).
    """
    opt = dict(zip(argv[1::2], argv[2::2]))
    kind = {"star": Kind.STAR, "up": Kind.UP, "down": Kind.DOWN}[opt["--kind"]]
    p = StableParams(float(opt["--alpha"]), float(opt["--rho"]))
    w = ExitWindow(float(opt["--v"]), float(opt["--u"]))
    n, step, seed = int(opt["--n-paths"]), float(opt["--step"]), int(opt["--seed"])
    header, rows = _read_csv(path)
    if header != ["path_id", "side", "theta", "h_weight", "steps_used"] or len(rows) != n:
        raise CheckFailed(f"simulate output has {len(rows)} rows, wanted {n}")
    weights = np.array([float(r[3]) for r in rows])
    up = np.array([r[1] == "up" for r in rows])
    theta = np.array([float(r[2]) for r in rows])
    exited = up | np.array([r[1] == "down" for r in rows])
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(theta[exited]))):
        raise CheckFailed("non-finite simulate output")
    wu = weights * up
    est = float(np.sum(wu)) / n
    se = float(np.std(wu)) / math.sqrt(n)
    finer = montecarlo.simulate_exit(kind, p, w, SimConfig(n, step / 2, seed))
    bias = abs(finer.weighted_event_mean(finer.side == SIDE_UP) - est)
    target = exit_mass_two_sided(kind, p, w, Direction.UP)
    z = z_crit(sim_tests)
    if abs(est - target) > z * se + 2.0 * bias:
        raise CheckFailed(
            f"up-exit frequency {est:.5f} vs {target:.5f} "
            f"(se {se:.4g}, drift {bias:.4g}, z {z:.3f})"
        )
    return n


# Requests per round of each eval type.  The closed-form laws (a few ms
# each) are drawn most often, so that op_p50_s sits inside their cluster.
EVAL_DRAWS = {
    "rogozin-density": 6,
    "exit-two-sided": 6,
    "exit-one-sided": 6,
    "min-cdf-up": 6,
    "max-cdf-down": 6,
    "extrema-star-max": 6,
    "scale-fn": 6,
    "psi": 6,
    "ruin": 6,
    "extrema-star-min": 2,
    "hit-two-point": 2,
    "expfun-density": 2,
    "expfun-moments": 2,
    "entrance-density": 2,
    "tails": 2,
}


def interactive_ops(rng: random.Random, simulates, sim_tests, suites, out_dir: str, refs: dict,
                    tiny=False):
    """One round: eval of every law but triple-law, six simulates, ``suites``.

    ``sim_tests`` is the number of simulate requests in the whole run.
    """
    domain = eval_domain()
    requests = [
        rng.choice(domain[label]) for label in sorted(domain) for _ in range(EVAL_DRAWS[label])
    ]
    requests += simulates
    requests += [["verify", s] for s in suites]
    if tiny:
        requests = [requests[0], requests[-7 - len(suites)], requests[-2 - len(suites)]]
        requests.append(["verify", "esscher"])
    # The order is fixed by request type: an op's time depends on what ran
    # before it in the process, so a drawn order would add to the spread.
    ops = []
    for i, argv in enumerate(requests):
        path = os.path.join(out_dir, f"op{i}.out")
        label = argv[0] if argv[0] != "eval" else "eval:" + argv[2]
        if argv[0] == "verify":
            label = "verify:" + argv[1]

        def run(argv=argv, path=path):
            return cli.main(argv + ["--out", path])

        def canonical(rc, argv=argv, path=path):
            with open(path, "rb") as fh:
                text = fh.read()
            if argv[0] == "verify":  # the report carries its own wall time
                report = json.loads(text)
                report.pop("runtime")
                text = json.dumps(report, sort_keys=True).encode()
            return rc, text

        def check(rc, argv=argv, path=path):
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            if argv[0] == "eval":
                return _check_eval(argv, path, refs)
            if argv[0] == "simulate":
                return _check_simulate(argv, path, sim_tests)
            with open(path, encoding="utf-8") as fh:
                if not verify.report_passed(json.load(fh)):
                    raise CheckFailed("report not passed")
            return 0

        ops.append(Op(label, " ".join(argv), run, check, canonical))
    return ops


# ---------------------------------------------------------------- paths

PATHS_PARAMS = StableParams(1.5, 0.5)
PATHS_WINDOW = ExitWindow(-0.5, 0.5)
PATHS_STEP = 1e-4
PATHS_N = 1000


def paths_ops(rng: random.Random, pool: dict, tiny=False):
    """Criterion 7's Monte Carlo at PATHS_N paths per kind, seeded streams.

    The STAR up-exit fraction and the tilt-reweighting z-score are checked
    once per run on all its rounds (``pooled.paths_checks``); the checks
    here put the round's sufficient statistics for them into ``pool``.
    """
    p, w = PATHS_PARAMS, PATHS_WINDOW
    n, step = (50, 1e-3) if tiny else (PATHS_N, PATHS_STEP)
    seed = rng.randrange(2**31)
    st = {}

    def sim(kind, s, n=n):
        return lambda: montecarlo.simulate_exit(kind, p, w, SimConfig(n, step, s))

    def check_star(star):
        star.require_censoring_below(1e-3)
        st["star"] = star

    def check_report(report):
        st["bias"] = montecarlo.extrapolated_bias(report, "p_up")
        star = st["star"]
        up_mass = exit_mass_two_sided(Kind.STAR, p, w, Direction.UP)
        down_mass = exit_mass_two_sided(Kind.STAR, p, w, Direction.DOWN)
        exits = (star.side == SIDE_UP) | (star.side == SIDE_DOWN)
        pool.update(
            star_target=up_mass / (up_mass + down_mass),
            star_exit=int(np.count_nonzero(exits)),
            star_up=int(np.count_nonzero(star.side == SIDE_UP)),
            p_up=report[-2]["p_up"],
            p_up_fine=report[-1]["p_up"],
        )

    def keep(name):
        def check(out):
            st[name] = out
        return check

    def check_cdf(out):
        # The interpolant's documented accuracy is a few times 1e-5.
        cdf, mass = out
        _close(mass, exit_mass_two_sided(Kind.UP, p, w, Direction.UP), 1e-4, 0.0,
               "interpolant mass")
        st["cdf"] = cdf

    def run_ks():
        up = st["up"]
        sel = up.side == SIDE_UP
        return montecarlo.ks_distance(up.theta[sel], st["cdf"], weights=up.h_weight[sel])

    def check_ks(ks):
        up = st["up"]
        sel = up.side == SIDE_UP
        hw = up.h_weight[sel]
        n_eff = float(np.sum(hw)) ** 2 / float(np.sum(hw**2))
        floor = 0.8 * step ** ((1.0 - p.alpha_rho_hat) / p.alpha)
        tol = 2.5 * 1.36 / math.sqrt(n_eff) + 2.0 * st["bias"] + floor
        if not ks <= tol:
            raise CheckFailed(f"weighted KS {ks:.4f} above {tol:.4f}")

    def check_tilt(down):
        # Reweighted DOWN up-exits against UP up-exits: their means must agree.
        pos = down.exit_position()
        x_down = down.h_weight * np.where(np.isnan(pos), 0.0, pos) * (down.side == SIDE_UP)
        up = st["up"]
        x_up = up.h_weight * (up.side == SIDE_UP)
        sums = [float(np.sum(x)) for x in (x_down, x_down**2, x_up, x_up**2)]
        if not all(math.isfinite(v) for v in sums):
            raise CheckFailed("non-finite tilt reweighting sums")
        pool.update(zip(("down_s", "down_q", "up_s", "up_q"), sums), tilt_n=n)

    # Order follows the data dependencies (KS needs the UP run and the CDF).
    return [
        Op("simulate:star", f"seed={seed}", sim(Kind.STAR, seed), check_star),
        Op("refinement", f"seed={seed} levels=2",
           lambda: montecarlo.step_refinement_report(
               Kind.STAR, p, w, SimConfig(n, step, seed), levels=2),
           check_report),
        Op("simulate:up", f"seed={seed + 1}", sim(Kind.UP, seed + 1), keep("up")),
        Op("interpolant", "up overshoot cdf",
           lambda: exit_laws.overshoot_cdf_interpolant(Kind.UP, p, Direction.UP, window=w),
           check_cdf),
        Op("ks", "weighted ks", run_ks, check_ks),
        Op("simulate:down", f"seed={seed + 2}", sim(Kind.DOWN, seed + 2), check_tilt),
    ]


def build(workload: str, seed: int, round_: int, rounds: int, out_dir: str, refs: dict,
          tiny=False, pool=None):
    """The op list of round ``round_`` of a ``rounds``-round run of ``workload``.

    Checks of ops whose correctness is judged on the whole run put their
    statistics into ``pool`` (paths only).
    """
    rng = random.Random(f"{workload}:{seed}:{round_}")
    if workload == "interactive":
        design = simulate_design(seed, rounds, 50 if tiny else SIM_PATHS)
        # The quick suites run once per run, in round 0 (which the traced
        # run repeats): their inputs are fixed, so they add cost, not spread.
        suites = QUICK_SUITES if round_ == 0 else ()
        sim_tests = sum(len(r) for r in design)
        return interactive_ops(rng, design[round_], sim_tests, suites, out_dir, refs, tiny)
    if workload == "paths":
        return paths_ops(rng, {} if pool is None else pool, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def load_references():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
