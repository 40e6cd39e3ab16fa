"""Command-line surface: evaluate laws to CSV, simulate paths, run checks.

Three subcommands: ``eval`` tabulates any registered law over a grid,
``simulate`` streams per-path exit records, ``verify`` runs the named
cross-validation suite and emits a versioned JSON report.  Output is
plain CSV/JSON so any downstream tool can consume it.

Two tables drive it: ``_OPTIONS`` (each option's converter or allowed
values and default) and ``_LAW_TABLE`` (each law's CSV header, default grid,
row function and the model it reads, whose metadata the CSV records: (alpha,
rho), or a one-sided model with or without its jump weight).  One converter, ``_cast``, checks every option value,
whether it came as a flag or as a config-file line; the command line is a
plain walk over ``--flag value`` pairs (see ``_parse``).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, expfun
from .errors import (
    BudgetError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    NumericError,
    WorkerError,
)
from .exit_laws import (
    Direction,
    ExitWindow,
    exit_density_one_sided,
    exit_density_two_sided,
    extrema_density_star,
    max_cdf_down,
    min_cdf_up,
)
from .hitting import HitQuery, hit_closed_ratio
from .montecarlo import SIDE_LABELS, SimConfig, simulate_exit
from .scale import (
    Case,
    SpectralCase,
    TripleLawPoint,
    psi,
    ruin_probability,
    scale_fn,
    triple_law_density,
)
from .stable import Kind, StableParams, rogozin_overshoot_density
from .verify import SUITES, report_passed, run_suite


def _finite(text: str) -> float:
    """float() for numeric options, with nan and +-inf refused."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


# Option -> (converter, or the tuple of allowed values; default used when
# neither a flag nor the config file sets it, None where it depends on the
# law or the command).  The parsed request keeps None for an option not
# given, so that config values can fill in what the command line left out.
# ``suite`` is the positional argument of ``verify``; every other entry is
# a ``--flag``.  A converter raises ValueError with the message to print.
_OPTIONS = {
    "suite": (str, None),
    "law": (str, None),
    "kind": (tuple(sorted(k.value for k in Kind)), "up"),
    "case": (tuple(sorted(c.value for c in Case)), "up-neg"),
    "direction": (("up", "down"), "up"),
    "which": (("max", "min"), "max"),
    "alpha": (_finite, 1.5),
    "rho": (_finite, 0.5),
    "jump_weight": (_finite, 1.0),
    "u": (_finite, 0.5),
    "v": (_finite, -0.5),
    "x": (_finite, 1.0),
    "a": (_finite, None),
    "b": (_finite, 2.0),
    "t": (_finite, 1.0),
    "phi": (_finite, None),
    "eta": (_finite, None),
    "grid": (str, None),
    "n_paths": (_integer, 1000),
    "step": (_finite, 1e-3),
    "seed": (_integer, 0),
    "out": (str, None),
}


def _arg(args, name: str, default=None):
    """The option's value, else ``default``, else its ``_OPTIONS`` default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return default if default is not None else _OPTIONS[name][1]


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


# Each grid point becomes one law evaluation and one CSV row; 1e6 rows of
# the fastest law already take seconds and tens of megabytes.
_MAX_GRID_POINTS = 10**6


def parse_grid(spec: str) -> np.ndarray:
    """Parse A:B:N[:log] into an array of N grid points, N at most 1e6."""
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise DomainError(f"bad grid spec {spec!r}; expected A:B:N[:log]")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(
            f"bad grid spec {spec!r}; A and B must be numbers and N an integer"
        ) from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"grid endpoints must be finite, got {spec!r}")
    if n < 2:
        raise DomainError("grid needs at least 2 points")
    if n > _MAX_GRID_POINTS:
        raise BudgetError(
            f"grid of {n} points exceeds the {_MAX_GRID_POINTS:.0e} point cap"
        )
    if len(parts) == 4:
        if a <= 0.0 or b <= 0.0:
            raise DomainError("log grids need positive endpoints")
        return np.geomspace(a, b, n)
    return np.linspace(a, b, n)


def load_config(path: str) -> dict:
    """Flat key=value config file; blank lines and #-comments ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for i, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigurationError(f"{path}:{i}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc})") from None
    return values


def _cast(key: str, raw: str, where: str):
    """Convert and check one value of option ``key``.

    ``where`` names the value's source in the error: ``option --alpha``
    for a flag, ``config key 'alpha'`` for a config-file line.
    """
    spec = _OPTIONS[key][0]
    if isinstance(spec, tuple):
        if raw in spec:
            return raw
        problem = f"invalid choice: {raw!r} (choose from {', '.join(spec)})"
    else:
        try:
            return spec(raw)
        except ValueError as exc:
            problem = str(exc)
    raise ConfigurationError(f"{where}: {problem}")


def _merge_config(args):
    """Apply config-file values where the command line left the default."""
    if not args.config:
        return
    for key, raw in load_config(args.config).items():
        if key not in _OPTIONS:
            raise ConfigurationError(f"unknown config key {key!r}")
        value = _cast(key, raw, f"config key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _stable(args):
    """The two-sided model (alpha, rho) and its metadata pairs."""
    p = StableParams(_arg(args, "alpha"), _arg(args, "rho"))
    return p, [("alpha", p.alpha), ("rho", p.rho)]


def _spectral(args, case: Case | None = None, weighted: bool = True):
    """The one-sided model of ``case``, else of --case, and its metadata
    pairs: alpha, the --case, and the jump weight and m where the law reads
    them.  A law that does not keeps the unit weight, and ignores
    --jump-weight as it does every option it does not read."""
    meta = [] if case else [("case", _arg(args, "case"))]
    weight = _arg(args, "jump_weight") if weighted else 1.0
    s = SpectralCase(case or Case(_arg(args, "case")), _arg(args, "alpha"), weight)
    if weighted:
        meta += [("jump_weight", weight), ("m", s.m)]
    return s, [("alpha", s.alpha)] + meta


# ruin is a ratio of W, and K normalizes the triple law: neither reads m.
_unweighted = functools.partial(_spectral, weighted=False)
# The functionals of I, and I* too: a model has one active side, one weight.
_up_neg = functools.partial(_spectral, case=Case.UP_NEG)


def _window(args) -> ExitWindow:
    return ExitWindow(_arg(args, "v"), _arg(args, "u"))


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(meta, header, rows, out):
    """Write '#'-prefixed metadata lines, the header line and the rows,
    each row one line already formatted, floats as %.17g."""
    lines = [f"# artifact_version={__version__}"]
    lines += [f"# {k}={_fmt(v)}" for k, v in meta]
    lines.append(header)
    lines += rows
    _emit(lines, out)


# ------------------------------------------------------------------ laws
#
# Each row function takes (args, model, grid) and returns the metadata
# pairs that follow the model's, then the CSV rows.


def _rogozin_density(args, p, grid):
    a, x = _arg(args, "a", 2.0), _arg(args, "x")
    rows = [(y, rogozin_overshoot_density(p, a, x, y)) for y in grid]
    return [("a", a), ("x", x)], rows


def _exit_meta(args):
    kind, direction = Kind(_arg(args, "kind")), Direction(_arg(args, "direction"))
    return kind, direction, [("kind", kind.value), ("direction", direction.value)]


def _exit_two_sided(args, p, grid):
    kind, direction, meta = _exit_meta(args)
    w = _window(args)
    rows = [(t, exit_density_two_sided(kind, p, w, direction, t)) for t in grid]
    return meta + [("u", w.u), ("v", w.v)], rows


def _exit_one_sided(args, p, grid):
    kind, direction, meta = _exit_meta(args)
    side = "u" if direction is Direction.UP else "v"
    barrier = _arg(args, side)
    rows = [(t, exit_density_one_sided(kind, p, direction, barrier, t)) for t in grid]
    return meta + [(side, barrier)], rows


def _pointwise(fn):
    """Row function of a law of (model, z) alone."""
    return lambda args, p, grid: ([], [(z, fn(p, z)) for z in grid])


def _extrema_star(args, p, grid):
    which = _arg(args, "which")
    rows = [(z, extrema_density_star(p, z, which=which)) for z in grid]
    return [("which", which)], rows


def _ruin(args, s, grid):
    x = _arg(args, "x")
    return [("x", x)], [(y, ruin_probability(s, x, y)) for y in grid]


def _triple_law(args, s, grid):
    # Only DownPos passes above, through u; the other cases pass below v.
    side, fallback = ("u", 1.0) if s.case is Case.DOWN_POS else ("v", -1.0)
    barrier = _arg(args, side, fallback)
    eta = _arg(args, "eta", abs(barrier) / 2.0)
    phi = _arg(args, "phi", eta + 0.5)
    meta = [(side, barrier), ("phi", phi), ("eta", eta)]
    rows = [
        (t, triple_law_density(s, TripleLawPoint(barrier, t, phi, eta))) for t in grid
    ]
    return meta, rows


def _hit_two_point(args, p, grid):
    if p.rho != 0.5:
        raise DomainError(f"hit-two-point is symmetric: rho must be 0.5, got {p.rho}")
    a, b = _arg(args, "a", 0.5), _arg(args, "b")
    # A point on a target gives 1 at a and 0 at b; one near a target exits 2.
    rows = [(xx, hit_closed_ratio(HitQuery(p.alpha, xx, a, b))) for xx in grid]
    return [("a", a), ("b", b)], rows


def _with_bounds(grid, series_values):
    """Rows (x, value, error bound) of a series density.

    A row whose bound exceeds both 1e-3 |value| and 1e-10 carries no
    digits worth printing, and is refused.
    """
    rows = []
    for xx, sv in zip(grid, series_values):
        if sv.tail_bound > max(1e-3 * abs(sv.value), 1e-10):
            raise ConvergenceError(
                f"series value {sv.value:.6g} at x={xx:g} has error bound "
                f"{sv.tail_bound:.3g}; use the tail asymptotics",
                best_estimate=sv.value,
                error_estimate=sv.tail_bound,
            )
        rows.append((xx, sv.value, sv.tail_bound))
    return rows


def _star(up: SpectralCase) -> SpectralCase:
    """The DownPos model of I*, with the jump weight of the UpNeg one."""
    return SpectralCase(Case.DOWN_POS, up.alpha, up.jump_weight)


def _expfun_density(args, up, grid):
    kind = Kind(_arg(args, "kind"))
    if kind is Kind.DOWN:
        raise DomainError("expfun-density has kinds up and star, not down")
    if kind is Kind.STAR:
        vals = [expfun.density_I_star(_star(up), xx) for xx in grid]
    else:
        vals = [expfun.density_I(up, xx) for xx in grid]
    return [("kind", kind.value)], _with_bounds(grid, vals)


def _expfun_moments(args, model, grid):
    ks = sorted({max(1, int(round(k))) for k in grid})
    return [], [(float(k), expfun.neg_moment_I(model, k)) for k in ks]


def _entrance_density(args, model, grid):
    t = _arg(args, "t")
    vals = [expfun.entrance_density(model, t, xx) for xx in grid]
    return [("t", t)], _with_bounds(grid, vals)


def _tails(args, up, grid):
    rows = [
        ("up-right", expfun.tail_exponent_check(up)),
        ("star-left", expfun.tail_exponent_check(_star(up))),
    ]
    return [], rows


class _Law(NamedTuple):
    header: str
    grid: str | None  # default grid spec; None for a law that takes no grid
    rows: Callable
    model: Callable  # args -> (the model the law reads, its metadata pairs)


_LAW_TABLE = {
    "rogozin-density": _Law("y,value", "0.01:5:50", _rogozin_density, _stable),
    "exit-two-sided": _Law("theta,value", "0.01:5:50", _exit_two_sided, _stable),
    "exit-one-sided": _Law("theta,value", "0.01:5:50", _exit_one_sided, _stable),
    "min-cdf-up": _Law("z,value", "0:5:50", _pointwise(min_cdf_up), _stable),
    "max-cdf-down": _Law("z,value", "0:5:50", _pointwise(max_cdf_down), _stable),
    "extrema-star": _Law("z,value", "0.01:5:50", _extrema_star, _stable),
    "scale-fn": _Law("x,value", "0.01:5:50", _pointwise(scale_fn), _spectral),
    "psi": _Law("theta,value", "0:8:50", _pointwise(psi), _spectral),
    "ruin": _Law("y,value", "0.1:5:50", _ruin, _unweighted),
    "triple-law": _Law("theta,value", "0.01:3:50", _triple_law, _unweighted),
    "hit-two-point": _Law("x,value", "0.6:1.9:20", _hit_two_point, _stable),
    "expfun-density": _Law("x,value,error_bound", "0.2:20:50:log", _expfun_density, _up_neg),
    "expfun-moments": _Law("k,value", "1:5:5", _expfun_moments, _up_neg),
    "entrance-density": _Law("x,value,error_bound", "0.05:10:50:log", _entrance_density, _up_neg),
    "tails": _Law("check,slope", None, _tails, _up_neg),
}
LAWS = tuple(_LAW_TABLE)


def cmd_eval(args) -> int:
    law = _LAW_TABLE.get(args.law)
    if law is None:
        raise DomainError(
            f"--law must be one of: {', '.join(LAWS)} (got {args.law!r})"
        )
    model, meta = law.model(args)
    spec = args.grid or law.grid
    grid = parse_grid(spec) if spec else None
    law_meta, rows = law.rows(args, model, grid)
    # One format per row, the bytes _fmt gives value by value: every column
    # holds floats but the check names of tails.
    row = ",".join("%s" if c == "check" else "%.17g" for c in law.header.split(","))
    _emit_csv([("law", args.law)] + meta + law_meta, law.header, [row % r for r in rows], args.out)
    return 0


def cmd_simulate(args) -> int:
    """Simulate the paths and write one CSV row per path.

    Each row is one "%d,%s,%.17g,%.17g,%d" over the columns' tolist()
    values: the bytes _fmt would give value by value, formatted once a row.
    """
    kind = Kind(_arg(args, "kind", "star"))
    p, param_meta = _stable(args)
    w = _window(args)
    cfg = SimConfig(_arg(args, "n_paths"), _arg(args, "step"), _arg(args, "seed"))
    sample = simulate_exit(kind, p, w, cfg)
    meta = [("kind", kind.value)] + param_meta + [
        ("u", w.u),
        ("v", w.v),
        ("n_paths", cfg.n_paths),
        ("step", cfg.step),
        ("seed", cfg.seed),
        ("max_time", cfg.max_time),
        ("censored", sample.n_censored),
    ]
    columns = zip(
        range(cfg.n_paths),
        [SIDE_LABELS[c] for c in sample.side.tolist()],
        sample.theta.tolist(),
        sample.h_weight.tolist(),
        sample.steps_used.tolist(),
    )
    rows = ["%d,%s,%.17g,%.17g,%d" % row for row in columns]
    _emit_csv(meta, "path_id,side,theta,h_weight,steps_used", rows, args.out)
    return 0


def cmd_verify(args) -> int:
    # Unset, n_paths and step keep the suite's defaults, not those of simulate.
    given = {k: v for k in ("n_paths", "step") if (v := getattr(args, k)) is not None}
    report = run_suite(args.suite or "all", seed=_arg(args, "seed"), **given)
    _emit([json.dumps(report, indent=2, default=float)], args.out)
    return 0 if report_passed(report) else 1


_COMMANDS = {
    "eval": "tabulate a law over a grid as CSV",
    "simulate": "simulate seeded exit records, one CSV row per path",
    "verify": "run a cross-validation suite and write its JSON report",
}

# Long flag -> (option, the prefix of its value errors).  --config names the
# file and --help takes no value, so neither is an _OPTIONS entry.
_FLAGS = {
    f"--{k.replace('_', '-')}": (k, f"option --{k.replace('_', '-')}")
    for k in (*_OPTIONS, "config", "help")
    if k != "suite"
}

# Each command's request before its flags: every option unset, the suite
# positional on verify only.
_UNSET = {
    command: {
        "command": command,
        "config": None,
        **{k: None for k in _OPTIONS if k != "suite" or command == "verify"},
    }
    for command in _COMMANDS
}


def _flag(flag: str):
    """The (option, error prefix) of ``flag``, written out or a unique prefix."""
    hit = _FLAGS.get(flag)
    if hit is not None:
        return hit
    matches = [f for f in _FLAGS if f.startswith(flag)] if len(flag) > 2 else []
    if len(matches) == 1:
        return _FLAGS[matches[0]]
    if matches:
        raise ConfigurationError(f"ambiguous option {flag}: could be {', '.join(matches)}")
    raise ConfigurationError(f"unknown option {flag}")


def _parse(argv: list) -> SimpleNamespace | None:
    """The request of ``argv``, or None where it asks for help.

    ``argv`` is a command, then ``--flag value`` or ``--flag=value`` pairs,
    each flag written out or as a unique prefix; ``verify`` takes its suite
    anywhere between them.  The token after a flag is always its value, so
    ``--v -1e-3`` parses, unless it starts with ``--``.  Every value passes
    ``_cast``; an option not given stays None.
    """
    if not argv or argv[0] not in _UNSET:
        first = argv[0] if argv else ""
        if first == "-h" or (len(first) > 2 and "--help".startswith(first)):
            return None
        raise ConfigurationError(
            f"expected a command ({', '.join(_COMMANDS)}) first, got {first!r}"
        )
    request = dict(_UNSET[argv[0]])
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if token[:2] == "--":
            flag, eq, value = token.partition("=")
            key, where = _flag(flag)
            if key == "help":
                return None
            if not eq:
                if i == n or argv[i][:2] == "--":
                    raise ConfigurationError(f"{where} expects a value")
                value = argv[i]
                i += 1
            request[key] = value if key == "config" else _cast(key, value, where)
        elif token == "-h":
            return None
        elif argv[0] == "verify" and request["suite"] is None and token[:1] != "-":
            request["suite"] = token
        else:
            raise ConfigurationError(f"unexpected argument {token!r}")
    return SimpleNamespace(**request)


def _usage() -> str:
    """The -h text, written from the command, option, law and suite tables."""
    metavar = {_finite: "FLOAT", _integer: "INT"}
    lines = [
        "usage: pssmp {eval,simulate,verify} [SUITE] [--option VALUE] ...",
        "",
        "Evaluate, simulate and cross-check exit laws of stable-process transforms.",
        "",
        "commands:",
        *(f"  {c:<10}{what}" for c, what in _COMMANDS.items()),
        "",
        "options (--option=VALUE works too, and so does a unique prefix: --alph):",
    ]
    for key, (spec, _) in _OPTIONS.items():
        if key != "suite":
            if isinstance(spec, tuple):
                values = "{" + ",".join(spec) + "}"
            else:
                values = metavar.get(spec, key.upper())
            lines.append(f"  --{key.replace('_', '-')} {values}")
    lines += [
        "  --config FILE  key=value lines for any option above; flags win",
        "  -h, --help     print this text and exit",
        "",
        f"SUITE: {', '.join(SUITES)} or all (the default)",
        f"LAW: {', '.join(LAWS)}",
        "GRID: A:B:N or A:B:N:log",
        "",
        "The token after a flag is always its value, so --v -1e-3 works.",
        "A usage error exits 2 with one 'error:' line on stderr.",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_usage())
            return 0
        _merge_config(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_verify(args)
    except (DomainError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, ConvergenceError, NumericError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
