"""Path simulation of stable processes with h-transform reweighting.

Empirical oracles for the closed-form exit laws: a stable path started
at 1 is simulated on a fixed time grid until it leaves the window
(e^v, e^u); the killed / conditioned-to-stay-positive / conditioned-to-
hit-zero laws are all read off the same plain stable path by
classification (killing at 0) or by Doob h-weights at the exit position.
Grid-crossing bias is first-class and measured by step refinement, not
assumed away.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import numbers
import os
import signal
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetError, DomainError, WorkerError
from .exit_laws import ExitWindow
from .stable import Kind, StableParams, increment_sampler, path_rng

__all__ = [
    "SIDE_UP",
    "SIDE_DOWN",
    "SIDE_KILLED",
    "SIDE_CENSORED",
    "SIDE_LABELS",
    "SimConfig",
    "ExitSampleSet",
    "simulate_exit",
    "step_refinement_report",
    "extrapolated_bias",
    "ks_distance",
    "moment_check",
    "resolved_overshoot_cutoff",
]

SIDE_UP, SIDE_DOWN, SIDE_KILLED, SIDE_CENSORED = 0, 1, 2, 3
SIDE_LABELS = ("up", "down", "killed", "censored")

_MAX_GRID_POINTS = 10**8
# The arrays of one run take about 42 bytes a path, so 1e7 paths take
# about 0.4 GB; more is refused before anything is allocated.
_MAX_PATHS = 10**7
# Runs of fewer paths than this per worker stay in one process, where a
# fork costs more than it saves; no run uses more than _MAX_WORKERS.
_PATHS_PER_WORKER = 256
_MAX_WORKERS = 8
_BLOCK = 512
_BATCH = 32

@dataclass(frozen=True)
class SimConfig:
    """Path count, time step, seed and truncation horizon for one run."""

    n_paths: int
    step: float
    seed: int
    max_time: float = 50.0

    def __post_init__(self):
        if not isinstance(self.n_paths, numbers.Integral) or self.n_paths < 1:
            raise DomainError(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if self.n_paths > _MAX_PATHS:
            raise BudgetError(
                f"n_paths={self.n_paths} exceeds the {_MAX_PATHS:.0e} path cap"
            )
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise DomainError(
                f"seed must be an integer in [0, 2^64), got {self.seed!r}"
            )
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise DomainError(f"step must be finite and positive, got {self.step}")
        if not (math.isfinite(self.max_time) and self.max_time > 0.0):
            raise DomainError(
                f"max_time must be finite and positive, got {self.max_time}"
            )
        if self.max_time / self.step > _MAX_GRID_POINTS:
            raise BudgetError(
                f"max_time/step exceeds the {_MAX_GRID_POINTS:.0e} grid-point cap"
            )

    @property
    def max_steps(self) -> int:
        return int(self.max_time / self.step)


@dataclass(frozen=True)
class ExitSampleSet:
    """Per-path exit records plus the configuration that produced them.

    ``side`` holds small-int codes (see SIDE_LABELS); ``theta`` is the
    log-overshoot, NaN unless the side is up or down; ``h_weight`` is the
    Doob weight at the exit position (1 for the killed kind, 0 for
    censored paths); ``steps_used`` counts grid steps to termination.
    """

    kind: Kind
    params: StableParams
    window: ExitWindow
    config: SimConfig
    side: np.ndarray
    theta: np.ndarray
    h_weight: np.ndarray
    steps_used: np.ndarray

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(self.side == SIDE_CENSORED))

    @property
    def censored_fraction(self) -> float:
        return self.n_censored / self.config.n_paths

    def require_censoring_below(self, max_fraction: float = 1e-3):
        if self.censored_fraction >= max_fraction:
            raise BudgetError(
                f"{self.n_censored} of {self.config.n_paths} paths censored "
                f"(>= {max_fraction:.1e}); raise max_time or lower the horizon"
            )

    def exit_position(self) -> np.ndarray:
        """Process-scale position at exit, NaN for killed/censored paths."""
        pos = np.full(self.side.shape, np.nan)
        up = self.side == SIDE_UP
        dn = self.side == SIDE_DOWN
        pos[up] = np.exp(self.window.u + self.theta[up])
        pos[dn] = np.exp(self.window.v - self.theta[dn])
        return pos

    def weighted_event_mean(self, event: np.ndarray) -> float:
        """Unnormalized h-weighted frequency: the conditioned-law probability.

        The start point is 1, so no x^gamma divisor appears.
        """
        return float(np.sum(self.h_weight * event) / self.config.n_paths)


def _run_paths(draw, n_paths, seed, levels, eu, ev, start=0):
    """Run paths start..start+n_paths-1 to exit at each level; returns
    (position, steps, exited) arrays of shape (len(levels), n_paths),
    entry [j, i] for level j of path start + i.

    ``levels`` holds a (scale, max_steps) pair per level, coarsest first.
    The last, of scale 1, steps by draw's increments and a level of scale
    s by s times them, so it stands at 1 + s (x - 1) where the last stands
    at x and leaves the window when x passes t = 1 + (e - 1)/s, e = e^u or
    e^v.  The coarser the level, the nearer 1 its barriers and the earlier
    its horizon, so no level ends after a finer one.  Each block is
    scanned once for every row's highest and lowest position; only the
    rows whose extremes pass a barrier of their path's level, or whose
    horizon falls in the block, are searched for the column where the
    level ends.  A row that ends a coarser level is checked again at the
    next level, whose farther barriers no earlier column can reach.  A
    coarser level's exit position is e + s (x - t), beyond its barrier.

    Path i draws from path_rng(seed, i) in blocks of _BLOCK steps, each
    one draw(rngs, _BLOCK) call: the block's 2 _BLOCK uniforms, half for
    the angles and half for the exponentials.  The path stops when its
    last level reaches a position at or beyond a barrier, or its horizon,
    which may fall inside a block; the rest of that block is drawn and
    unused.  Up to _BATCH paths advance in lockstep, one row each, and
    each block is drawn, summed and scanned over the running rows.  A
    finished path's row goes at once to the next path, whose stream
    re-keys the row's generator in place.  Each stream is consumed as by
    a path run alone, so the result does not depend on the batching.
    Smaller blocks are slower, even with more rows, because the per-row
    generator calls dominate: 500 paths at step 1e-4 took a median
    34.5 ns of process time per used step in blocks of 512 x 32 and
    37.2 ns in blocks of 256 x 64 (12 runs each, one core of a 2-CPU
    x86-64 host).
    """
    n_levels = len(levels)
    pos = np.ones((n_levels, n_paths))
    steps = np.zeros((n_levels, n_paths), dtype=np.int64)
    exited = np.zeros((n_levels, n_paths), dtype=bool)
    scale, horizon = (np.array(a) for a in zip(*levels))
    # 1 + (e - 1)/s, written so that scale 1 keeps e^u and e^v exactly.
    top, bottom = (e + (1.0 / scale - 1.0) * (e - 1.0) for e in (eu, ev))
    if horizon[-1] < 1:
        return pos, steps, exited
    rows = min(_BATCH, n_paths)
    buf = np.empty(rows * _BLOCK)  # viewed as C-contiguous (running rows, _BLOCK)
    path = np.arange(rows)  # path index held by each row
    rngs = [path_rng(seed, start + i) for i in range(rows)]
    x = np.ones(rows)  # position at the end of the row's last block
    done = np.zeros(rows, dtype=np.int64)  # steps taken by the row's path
    lev = np.zeros(rows, dtype=np.int64)  # level the row's path runs at
    next_path = rows
    live = rows  # rows 0..live-1 hold a running path
    while live:
        out = buf[: live * _BLOCK].reshape(live, _BLOCK)
        blk = draw(rngs[:live], _BLOCK, out=out)
        np.cumsum(blk, axis=1, out=blk)
        blk += x[:live, None]
        # A row can end its level in this block only if its highest or
        # lowest position is past a barrier, or its horizon falls inside.
        hi, lo = blk.max(axis=1), blk.min(axis=1)
        cand = np.arange(live)  # rows that may end their level here
        freed = []  # rows whose last level ended
        while cand.size:
            lv = lev[cand]
            left = horizon[lv] - done[cand]  # steps before the horizon
            ends = (hi[cand] >= top[lv]) | (lo[cand] <= bottom[lv]) | (left <= _BLOCK)
            cand, lv, left = cand[ends], lv[ends], left[ends]
            part = blk[cand]
            h = (part >= top[lv, None]) | (part <= bottom[lv, None])
            first = h.argmax(axis=1)
            crossed = h[np.arange(cand.size), first] & (first < left)
            last = np.where(crossed, first, left - 1)  # the column it ends on
            i = path[cand]
            pos[lv, i], steps[lv, i] = blk[cand, last], done[cand] + last + 1
            exited[lv, i] = crossed
            finer = lv < n_levels - 1
            freed += cand[~finer].tolist()
            # A row that ended a coarser level may end the next one here too;
            # no column before the coarser end can reach its farther barriers.
            cand = cand[finer]
            lev[cand] += 1
        x[:live] = blk[:, -1]
        done[:live] += _BLOCK
        # Hand each freed row to the next path; with none left, move the
        # last running row into it.  Descending order means every row above
        # the one being filled is already settled.
        for r in sorted(freed, reverse=True):
            if next_path < n_paths:
                path[r], x[r], done[r], lev[r] = next_path, 1.0, 0, 0
                rngs[r] = path_rng(seed, start + next_path, reuse=rngs[r])
                next_path += 1
            else:
                live -= 1
                path[r], rngs[r], x[r], done[r], lev[r] = (
                    path[live], rngs[live], x[live], done[live], lev[live]
                )
    for lv in range(n_levels - 1):
        up = pos[lv] >= top[lv]
        e, t = np.where(up, eu, ev), np.where(up, top[lv], bottom[lv])
        pos[lv] = e + scale[lv] * (pos[lv] - t)
    return pos, steps, exited


def _n_workers(n_paths: int) -> int:
    """Processes for a run of n_paths: min(CPUs, 8, n_paths // 256), or 1.

    The CPUs are those of this process's affinity set.  Below 2 the run
    stays in this process, as it does where os.fork is missing.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, _MAX_WORKERS, n_paths // _PATHS_PER_WORKER))


def _shared_rows(n):
    """side, theta, h_weight and steps_used of n paths, in one anonymous
    shared mmap that forked children write into; theta starts NaN and
    the others zeroed."""
    buf = mmap.mmap(-1, 25 * n)
    theta = np.frombuffer(buf, np.float64, n, 0)
    h_weight = np.frombuffer(buf, np.float64, n, 8 * n)
    steps = np.frombuffer(buf, np.int64, n, 16 * n)
    side = np.frombuffer(buf, np.int8, n, 24 * n)
    theta.fill(np.nan)
    return side, theta, h_weight, steps


def _run_chunks(fill, bounds):
    """Call fill(lo, hi) on each chunk: chunk 0 here, the rest in children.

    Chunk j is paths bounds[j]..bounds[j+1]-1, and fill writes its rows
    into memory the children share with this process.  A child leaves
    only through os._exit (0 once its rows are written, 1 on any
    exception), so it runs no atexit hook and flushes no inherited buffer.
    Every child is reaped before this returns or raises: a child that
    fails, is killed or cannot be started or reaped raises WorkerError,
    and on any exception the children still running are killed and reaped.
    """
    children = {}  # pid -> chunk index
    try:
        for j in range(1, len(bounds) - 1):
            try:
                pid = os.fork()
            except OSError as exc:
                raise WorkerError(
                    f"could not start the worker for path chunk {j}: {exc}"
                ) from None
            if pid == 0:
                code = 1
                try:
                    fill(bounds[j], bounds[j + 1])
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = j
        fill(bounds[0], bounds[1])
        for pid, j in list(children.items()):
            try:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            except ChildProcessError:
                code = None
            del children[pid]
            if code != 0:
                how = (
                    "was reaped elsewhere" if code is None
                    else f"exited with code {code}" if code > 0
                    else f"was killed by signal {-code}"
                )
                raise WorkerError(
                    f"the worker for path chunk {j} (paths {bounds[j]}.."
                    f"{bounds[j + 1] - 1}) {how}; its rows are not used"
                )
    finally:
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _simulate(kind, p, window, cfg, n_levels=1):
    """The sets at steps 2^j cfg.step, j = n_levels - 1, ..., 0, off one run."""
    p.require_two_sided()
    try:
        eu = math.exp(window.u)
    except OverflowError:
        raise DomainError(
            f"upper barrier e^u overflows a float at u={window.u}"
        ) from None
    ev = math.exp(window.v)
    draw = increment_sampler(p, cfg.step)
    h_exp = kind.h_exponent(p)
    n = cfg.n_paths
    coarser = range(n_levels - 1, -1, -1)
    cfgs = [replace(cfg, step=cfg.step * 2**j) for j in coarser]
    try:
        levels = [(2.0 ** (j / p.alpha), c.max_steps) for j, c in zip(coarser, cfgs)]
    except OverflowError:
        raise DomainError(
            f"level scale 2^(j/alpha) overflows a float at alpha={p.alpha} "
            f"with {n_levels} levels"
        ) from None
    k = _n_workers(n)
    rows = [a.reshape(n_levels, n) for a in _shared_rows(n_levels * n)]
    side, theta, h_weight, steps = rows

    def fill(lo, hi):
        pos, steps[:, lo:hi], exited = _run_paths(
            draw, hi - lo, cfg.seed, levels, eu, ev, lo
        )
        up = exited & (pos >= eu)
        ruined = exited & (pos <= 0.0)
        down = exited & ~up & ~ruined
        c_side, c_theta, c_weight = side[:, lo:hi], theta[:, lo:hi], h_weight[:, lo:hi]
        c_side[:] = SIDE_CENSORED
        c_side[up] = SIDE_UP
        c_side[down] = SIDE_DOWN
        # Ruin: absorption for the killed kind; for the conditioned kinds it
        # is impossible, so the path stays censored with weight 0.
        if kind is Kind.STAR:
            c_side[ruined] = SIDE_KILLED
            c_weight[ruined] = 1.0
        # math.log and ** on Python floats, which numpy's log and power
        # differ from in the last bits.
        x_up, x_down = pos[up].tolist(), pos[down].tolist()
        c_theta[up] = [math.log(x) - window.u for x in x_up]
        c_weight[up] = [x**h_exp for x in x_up]
        c_theta[down] = [window.v - math.log(x) for x in x_down]
        c_weight[down] = [x**h_exp for x in x_down]

    _run_chunks(fill, [n * j // k for j in range(k + 1)])
    for a in rows:
        a.setflags(write=False)
    return [
        ExitSampleSet(kind, p, window, c, *(a[j] for a in rows))
        for j, c in enumerate(cfgs)
    ]


def simulate_exit(
    kind: Kind,
    p: StableParams,
    window: ExitWindow,
    cfg: SimConfig,
) -> ExitSampleSet:
    """Simulate first exit of the stable path from (e^v, e^u) for all paths.

    The path starts at 1 and is observed at multiples of cfg.step; the
    first grid point at or beyond a barrier terminates it.  The killed
    kind classifies nonpositive positions as killed; the conditioned
    kinds assign the Doob weight at the exit position and censor ruined
    paths (weight 0).  Horizon exhaustion also censors.  Each call runs
    its paths; nothing is kept from one call to the next.

    Path i is defined on its own stream path_rng(cfg.seed, i), the i-th
    disjoint PCG64DXSM substream of the seed, drawn in blocks of 512
    steps: 1024 uniforms a block, 512 for the angles, then 512 for the
    exponentials.  A path that ends inside a block, at a barrier or at
    the horizon, has still drawn the whole block.  Paths run in lockstep
    batches of 32, bit-identical to running each path alone; theta and
    the weight are math.log and ** of the exit positions as Python
    floats.

    A run of n paths uses k = min(CPUs in the affinity set, 8, n // 256)
    processes when k >= 2 (so 512 paths or more, on 2 CPUs or more, where
    os.fork exists); otherwise it runs here alone.  range(n) is cut into
    k contiguous chunks.  This process runs the first; forked children
    run the others and write their rows into one shared anonymous mmap,
    and all are reaped before the set is returned, every row bit-identical
    to the one-process run.  A worker that fails raises WorkerError; its
    rows are never returned.
    """
    return _simulate(kind, p, window, cfg)[0]


def step_refinement_report(
    kind: Kind,
    p: StableParams,
    window: ExitWindow,
    cfg: SimConfig,
    levels: int,
) -> list[dict]:
    """Simulate at step, step/2, ..., reporting estimator drift.

    Level j runs at cfg.step / 2^j with the configured seed (common random
    numbers).  Path i draws the same variates at every level, and its
    increments at step 2^m dt are 2^(m/alpha) times those at dt, so every
    level is read off one run at the finest step.  That level is
    bit-identical to simulate_exit at its step; a coarser one equals
    simulate_exit at its own step up to its positions' last bits, which
    decide a side or a step only for a path within rounding of a barrier.
    The rows carry the up-exit probability estimate and the mean up-side
    overshoot so downstream tolerances can cite the observed bias decay.
    """
    if not isinstance(levels, numbers.Integral) or levels < 2:
        raise DomainError(f"levels must be an integer >= 2, got {levels!r}")
    fine = replace(cfg, step=math.ldexp(cfg.step, 1 - levels))
    rows = []
    for level, s in enumerate(_simulate(kind, p, window, fine, levels)):
        up = s.side == SIDE_UP
        w_up = float(np.sum(s.h_weight[up]))
        rows.append(
            {
                "level": level,
                "step": s.config.step,
                "p_up": w_up / s.config.n_paths,
                "mean_theta_up": (
                    float(np.sum(s.h_weight[up] * s.theta[up])) / w_up
                    if w_up > 0.0
                    else float("nan")
                ),
                "censored_fraction": s.censored_fraction,
            }
        )
    return rows


def extrapolated_bias(report: list[dict], field: str) -> float:
    """Residual-bias estimate at the finest level: the last inter-level drift.

    For a first-order-in-step bias the drift between consecutive halved
    levels bounds the remaining bias at the finer of the two.
    """
    if len(report) < 2:
        raise DomainError("need a report with >= 2 levels")
    if any(field not in row for row in report[-2:]):
        raise DomainError(f"the report rows have no field {field!r}")
    return abs(report[-1][field] - report[-2][field])


def _weights_or_ones(samples, weights):
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("empty sample set")
    if weights is None:
        weights = np.ones_like(samples)
    else:
        weights = np.asarray(weights, dtype=float)
    if weights.shape != samples.shape or np.any(weights < 0.0):
        raise DomainError("weights must be nonnegative and match the samples")
    total = float(weights.sum())
    if total <= 0.0:
        raise DomainError("weights must have positive sum")
    return samples, weights, total


def resolved_overshoot_cutoff(p: StableParams, step: float) -> float:
    """Smallest overshoot a grid of this step resolves: 5 * step^(1/alpha).

    One grid step moves the path by about step^(1/alpha), so an observed
    overshoot below a few of those says where the grid landed, not where
    the path crossed.  Above five increment scales the grid-observed up
    overshoots of criterion 7 (alpha = 1.5, rho = 1/2, window (-1/2, 1/2),
    step 1e-4, 1e5 paths) give a weighted KS distance at most 1.35 times
    the statistical level 1.36/sqrt(n_eff) of the closed form at seeds 1-3.
    """
    return 5.0 * step ** (1.0 / p.alpha)


def ks_distance(samples, cdf, weights=None, cutoff=None) -> float:
    """Sup distance between the weighted empirical CDF and a model CDF.

    With a cutoff the sup runs over x >= cutoff only; the weight of the
    samples below it still counts in the empirical CDF.  The cutoff must
    be a nonnegative number.
    """
    if cutoff is not None and not cutoff >= 0.0:
        raise DomainError("cutoff must be a nonnegative number")
    samples, weights, total = _weights_or_ones(samples, weights)
    order = np.argsort(samples, kind="stable")
    xs = samples[order]
    # ecdf[i] is the empirical CDF just below xs[i], ecdf[i + 1] at xs[i].
    ecdf = np.concatenate(([0.0], np.cumsum(weights[order]) / total))
    if cutoff is not None:
        k = int(np.searchsorted(xs, cutoff))
        xs = np.concatenate(([cutoff], xs[k:]))
        ecdf = np.concatenate(([ecdf[k]], ecdf[k:]))
    f = np.array([cdf(x) for x in xs])
    upper = np.max(np.abs(ecdf[1:] - f))
    lower = np.max(np.abs(ecdf[:-1] - f))
    return float(max(upper, lower))


def moment_check(samples, k, target, tolerance_sd, weights=None) -> dict:
    """z-score of the weighted k-th sample moment against a target value."""
    if k < 1 or int(k) != k:
        raise DomainError("k must be a positive integer")
    samples, weights, total = _weights_or_ones(samples, weights)
    xk = samples ** float(k)
    mean = float(np.sum(weights * xk) / total)
    # Effective-sample-size variance of the weighted mean.
    var = float(np.sum(weights * (xk - mean) ** 2) / total)
    n_eff = total**2 / float(np.sum(weights**2))
    se = math.sqrt(var / n_eff) if n_eff > 0 else float("inf")
    z = (mean - target) / se if se > 0 else math.copysign(math.inf, mean - target)
    return {
        "measured": mean,
        "target": target,
        "se": se,
        "z": z,
        "passed": abs(z) <= tolerance_sd,
    }
