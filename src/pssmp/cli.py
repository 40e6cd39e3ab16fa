"""Command-line surface: evaluate laws to CSV, simulate paths, run checks.

Three subcommands: ``eval`` tabulates any registered law over a grid,
``simulate`` streams per-path exit records, ``verify`` runs the named
cross-validation suite and emits a versioned JSON report.  Output is
plain CSV/JSON so any downstream tool can consume it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, expfun
from .errors import (
    BudgetError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    NumericError,
)
from .exit_laws import (
    Direction,
    ExitLawQuery,
    ExitWindow,
    exit_density_one_sided,
    exit_density_two_sided,
    extrema_density_star,
    max_cdf_down,
    min_cdf_up,
)
from .expfun import ExpCase, ExpFunctionalModel, TailCheck
from .hitting import HitQuery, hit_closed_ratio
from .montecarlo import SIDE_LABELS, SimConfig, simulate_exit
from .scale import (
    Case,
    SpectralCase,
    TripleLawPoint,
    psi_down,
    psi_up,
    ruin_probability,
    scale_fn,
    triple_law_density,
)
from .stable import Kind, StableParams, rogozin_overshoot_density
from .verify import report_passed, run_suite

LAWS = (
    "rogozin-density",
    "exit-two-sided",
    "exit-one-sided",
    "min-cdf-up",
    "max-cdf-down",
    "extrema-star",
    "scale-fn",
    "psi",
    "ruin",
    "triple-law",
    "hit-two-point",
    "expfun-density",
    "expfun-moments",
    "entrance-density",
    "tails",
)

_KINDS = {"up": Kind.UP, "star": Kind.STAR, "down": Kind.DOWN}
_CASES = {
    "up-neg": Case.UP_NEG,
    "down-neg": Case.DOWN_NEG,
    "down-pos": Case.DOWN_POS,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def parse_grid(spec: str) -> np.ndarray:
    """Parse A:B:N[:log] into an array of N grid points."""
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise DomainError(f"bad grid spec {spec!r}; expected A:B:N[:log]")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"grid endpoints must be finite, got {spec!r}")
    if n < 2:
        raise DomainError("grid needs at least 2 points")
    if len(parts) == 4:
        if a <= 0.0 or b <= 0.0:
            raise DomainError("log grids need positive endpoints")
        return np.geomspace(a, b, n)
    return np.linspace(a, b, n)


def load_config(path: str) -> dict:
    """Flat key=value config file; blank lines and #-comments ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{i}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_CONFIG_CASTS = {
    "alpha": float,
    "rho": float,
    "c_plus": float,
    "c_minus": float,
    "u": float,
    "v": float,
    "x": float,
    "a": float,
    "b": float,
    "t": float,
    "m": float,
    "q_ladder": float,
    "phi": float,
    "eta": float,
    "step": float,
    "n_paths": int,
    "seed": int,
    "law": str,
    "kind": str,
    "case": str,
    "direction": str,
    "which": str,
    "grid": str,
    "out": str,
    "suite": str,
}


def _merge_config(args: argparse.Namespace):
    """Apply config-file values where the command line left the default."""
    if not args.config:
        return
    file_values = load_config(args.config)
    for key, raw in file_values.items():
        if key not in _CONFIG_CASTS:
            raise ConfigurationError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, _CONFIG_CASTS[key](raw))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PSSMP_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"PSSMP_SEED must be an integer, got {env!r}") from None


def _params(args) -> StableParams:
    return StableParams(
        args.alpha if args.alpha is not None else 1.5,
        args.rho if args.rho is not None else 0.5,
        args.c_plus if args.c_plus is not None else 1.0,
        args.c_minus if args.c_minus is not None else 1.0,
    )


def _window(args) -> ExitWindow:
    return ExitWindow(
        args.v if args.v is not None else -0.5,
        args.u if args.u is not None else 0.5,
    )


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta_block(pairs) -> list:
    lines = [f"# artifact_version={__version__}"]
    for k, v in pairs:
        lines.append(f"# {k}={_fmt(v)}")
    return lines


def _eval_rows(args):
    """Dispatch one law evaluation: returns (header, rows, metadata pairs)."""
    law = args.law
    p = _params(args)
    meta = [("law", law), ("alpha", p.alpha), ("rho", p.rho),
            ("c_plus", p.c_plus), ("c_minus", p.c_minus)]
    grid = parse_grid(args.grid) if args.grid else None
    default = {
        "rogozin-density": "0.01:5:50",
        "exit-two-sided": "0.01:5:50",
        "exit-one-sided": "0.01:5:50",
        "min-cdf-up": "0:5:50",
        "max-cdf-down": "0:5:50",
        "extrema-star": "0.01:5:50",
        "scale-fn": "0.01:5:50",
        "psi": "0:8:50",
        "ruin": "0.1:5:50",
        "triple-law": "0.01:3:50",
        "hit-two-point": "0.6:1.9:20",
        "expfun-density": "0.2:20:50:log",
        "expfun-moments": "1:5:5",
        "entrance-density": "0.05:10:50:log",
    }
    if grid is None and law in default:
        grid = parse_grid(default[law])

    kind = _KINDS[args.kind] if args.kind else Kind.UP
    case = _CASES[args.case] if args.case else Case.UP_NEG
    direction = Direction.DOWN if args.direction == "down" else Direction.UP
    x = args.x if args.x is not None else 1.0

    if law == "rogozin-density":
        a = args.a if args.a is not None else 2.0
        # A start point outside (0, a) falls back to a/2; the metadata
        # records the point evaluated.
        x0 = x if 0.0 < x < a else a / 2.0
        meta += [("a", a), ("x", x0)]
        return (
            ("y", "value"),
            [(y, rogozin_overshoot_density(p, a, x0, y)) for y in grid],
            meta,
        )
    if law in ("exit-two-sided", "exit-one-sided"):
        meta += [("kind", kind.value), ("direction", direction.value)]
        if law == "exit-two-sided":
            w = _window(args)
            meta += [("u", w.u), ("v", w.v)]
            rows = [
                (t, exit_density_two_sided(ExitLawQuery(kind, p, direction, t, window=w)))
                for t in grid
            ]
        else:
            if direction is Direction.UP:
                u = args.u if args.u is not None else 0.5
                meta += [("u", u)]
                rows = [
                    (t, exit_density_one_sided(ExitLawQuery(kind, p, direction, t, u=u)))
                    for t in grid
                ]
            else:
                v = args.v if args.v is not None else -0.5
                meta += [("v", v)]
                rows = [
                    (t, exit_density_one_sided(ExitLawQuery(kind, p, direction, t, v=v)))
                    for t in grid
                ]
        return ("theta", "value"), rows, meta
    if law == "min-cdf-up":
        return ("z", "value"), [(z, min_cdf_up(p, z)) for z in grid], meta
    if law == "max-cdf-down":
        return ("z", "value"), [(z, max_cdf_down(p, z)) for z in grid], meta
    if law == "extrema-star":
        which = args.which or "max"
        meta += [("which", which)]
        return (
            ("z", "value"),
            [(z, extrema_density_star(p, z, which=which)) for z in grid],
            meta,
        )
    if law in ("scale-fn", "psi", "ruin"):
        s = SpectralCase(case, p.alpha, m=args.m, q_ladder=args.q_ladder)
        meta += [("case", case.value), ("m", s.mean)]
        if law == "scale-fn":
            return ("x", "value"), [(z, scale_fn(s, z)) for z in grid], meta
        if law == "psi":
            fn = psi_up if case is Case.UP_NEG else psi_down
            return ("theta", "value"), [(t, fn(s, t)) for t in grid], meta
        meta += [("x", x)]
        return ("y", "value"), [(y, ruin_probability(s, x, y)) for y in grid], meta
    if law == "triple-law":
        s = SpectralCase(case, p.alpha, m=args.m, q_ladder=args.q_ladder)
        barrier = (
            (args.v if args.v is not None else -1.0)
            if case in (Case.UP_NEG, Case.DOWN_NEG)
            else (args.u if args.u is not None else 1.0)
        )
        eta = args.eta if args.eta is not None else abs(barrier) / 2.0
        phi = args.phi if args.phi is not None else eta + 0.5
        meta += [("case", case.value), ("barrier", barrier), ("phi", phi), ("eta", eta)]
        rows = [
            (t, triple_law_density(s, TripleLawPoint(barrier, t, phi, eta)))
            for t in grid
        ]
        return ("theta", "value"), rows, meta
    if law == "hit-two-point":
        a = args.a if args.a is not None else 0.5
        b = args.b if args.b is not None else 2.0
        meta += [("a", a), ("b", b)]
        rows = [
            (xx, hit_closed_ratio(HitQuery(p.alpha, xx, a, b)))
            for xx in grid
            if min(abs(xx - a), abs(xx - b)) > 1e-6
        ]
        return ("x", "value"), rows, meta
    if law == "expfun-density":
        meta += [("kind", kind.value)]
        if kind is Kind.STAR:
            model = ExpFunctionalModel(
                ExpCase.STAR_SPECTRALLY_POSITIVE, p.alpha, p.c_plus
            )
            vals = [expfun.density_I_star(model, xx) for xx in grid]
        else:
            model = ExpFunctionalModel(
                ExpCase.UP_SPECTRALLY_NEGATIVE, p.alpha, p.c_minus
            )
            vals = [expfun.density_I(model, xx) for xx in grid]
        rows = [(xx, sv.value, sv.tail_bound) for xx, sv in zip(grid, vals)]
        return ("x", "value", "error_bound"), rows, meta
    if law == "expfun-moments":
        model = ExpFunctionalModel(ExpCase.UP_SPECTRALLY_NEGATIVE, p.alpha, p.c_minus)
        ks = sorted({max(1, int(round(k))) for k in grid})
        return ("k", "value"), [(float(k), expfun.neg_moment_I(model, k)) for k in ks], meta
    if law == "entrance-density":
        t = args.t if args.t is not None else 1.0
        meta += [("t", t)]
        model = ExpFunctionalModel(ExpCase.UP_SPECTRALLY_NEGATIVE, p.alpha, p.c_minus)
        rows = []
        for xx in grid:
            sv = expfun.entrance_density(model, t, xx)
            rows.append((xx, sv.value, sv.tail_bound))
        return ("x", "value", "error_bound"), rows, meta
    if law == "tails":
        up = ExpFunctionalModel(ExpCase.UP_SPECTRALLY_NEGATIVE, p.alpha, p.c_minus)
        star = ExpFunctionalModel(ExpCase.STAR_SPECTRALLY_POSITIVE, p.alpha, p.c_plus)
        rows = [
            ("up-right", expfun.tail_exponent_check(up, TailCheck.UP_RIGHT)),
            ("star-left", expfun.tail_exponent_check(star, TailCheck.STAR_LEFT)),
        ]
        return ("check", "slope"), rows, meta
    raise DomainError(f"unknown law {law!r}")


def cmd_eval(args) -> int:
    if not args.law or args.law not in LAWS:
        raise DomainError(
            f"--law must be one of: {', '.join(LAWS)} (got {args.law!r})"
        )
    header, rows, meta = _eval_rows(args)
    lines = _meta_block(meta)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(val) for val in row))
    _emit(lines, args.out)
    return 0


def cmd_simulate(args) -> int:
    kind = _KINDS[args.kind] if args.kind else Kind.STAR
    p = _params(args)
    w = _window(args)
    cfg = SimConfig(
        args.n_paths if args.n_paths is not None else 1000,
        args.step if args.step is not None else 1e-3,
        _resolve_seed(args),
    )
    sample = simulate_exit(kind, p, w, cfg)
    meta = [
        ("kind", kind.value),
        ("alpha", p.alpha),
        ("rho", p.rho),
        ("c_plus", p.c_plus),
        ("c_minus", p.c_minus),
        ("u", w.u),
        ("v", w.v),
        ("n_paths", cfg.n_paths),
        ("step", cfg.step),
        ("seed", cfg.seed),
        ("max_time", cfg.max_time),
        ("censored", sample.n_censored),
    ]
    lines = _meta_block(meta)
    lines.append("path_id,side,theta,h_weight,steps_used")
    for i in range(cfg.n_paths):
        lines.append(
            ",".join(
                (
                    str(i),
                    SIDE_LABELS[sample.side[i]],
                    _fmt(float(sample.theta[i])),
                    _fmt(float(sample.h_weight[i])),
                    str(int(sample.steps_used[i])),
                )
            )
        )
    _emit(lines, args.out)
    return 0


def cmd_verify(args) -> int:
    suite = args.suite or "all"
    kwargs = {}
    if args.n_paths is not None:
        kwargs["n_paths"] = args.n_paths
    if args.step is not None:
        kwargs["step"] = args.step
    report = run_suite(suite, seed=_resolve_seed(args), **kwargs)
    text = json.dumps(report, indent=2, default=float)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0 if report_passed(report) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pssmp",
        description="Evaluate, simulate and cross-check exit laws of "
        "stable-process transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "simulate", "verify"):
        sp = sub.add_parser(name)
        if name == "verify":
            sp.add_argument("suite", nargs="?", default=None)
        sp.add_argument("--law", default=None)
        sp.add_argument("--kind", choices=sorted(_KINDS), default=None)
        sp.add_argument("--case", choices=sorted(_CASES), default=None)
        sp.add_argument("--direction", choices=("up", "down"), default=None)
        sp.add_argument("--which", choices=("max", "min"), default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--rho", type=float, default=None)
        sp.add_argument("--c-plus", dest="c_plus", type=float, default=None)
        sp.add_argument("--c-minus", dest="c_minus", type=float, default=None)
        sp.add_argument("--u", type=float, default=None)
        sp.add_argument("--v", type=float, default=None)
        sp.add_argument("--x", type=float, default=None)
        sp.add_argument("--a", type=float, default=None)
        sp.add_argument("--b", type=float, default=None)
        sp.add_argument("--t", type=float, default=None)
        sp.add_argument("--m", type=float, default=None)
        sp.add_argument("--q-ladder", dest="q_ladder", type=float, default=None)
        sp.add_argument("--phi", type=float, default=None)
        sp.add_argument("--eta", type=float, default=None)
        sp.add_argument("--grid", default=None)
        sp.add_argument("--n-paths", dest="n_paths", type=int, default=None)
        sp.add_argument("--step", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _merge_config(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_verify(args)
    except (DomainError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, ConvergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
