import math
import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pssmp.errors import BudgetError, DomainError, WorkerError
from pssmp.exit_laws import ExitWindow, exit_mass_two_sided, Direction
from pssmp import montecarlo
from pssmp.montecarlo import (
    SIDE_CENSORED,
    SIDE_DOWN,
    SIDE_KILLED,
    SIDE_LABELS,
    SIDE_UP,
    ExitSampleSet,
    SimConfig,
    extrapolated_bias,
    ks_distance,
    moment_check,
    simulate_exit,
    step_refinement_report,
)
from pssmp.stable import Kind, StableParams, increment_sampler, path_rng
from pssmp.verify import run_suite

P = StableParams(1.5, 0.5)
W = ExitWindow(v=-0.5, u=0.5)
CFG = SimConfig(n_paths=300, step=2e-3, seed=123)


@pytest.fixture(scope="module")
def star_run():
    return simulate_exit(Kind.STAR, P, W, CFG)


def _assert_same_rows(a, b):
    assert np.array_equal(a.side, b.side)
    assert np.array_equal(a.theta, b.theta, equal_nan=True)
    assert np.array_equal(a.h_weight, b.h_weight)
    assert np.array_equal(a.steps_used, b.steps_used)


class TestSimulation:
    def test_reruns_are_bit_identical(self, star_run):
        _assert_same_rows(star_run, simulate_exit(Kind.STAR, P, W, CFG))

    def test_seed_changes_output(self, star_run):
        other = simulate_exit(Kind.STAR, P, W, SimConfig(300, 2e-3, 124))
        assert not np.array_equal(star_run.theta, other.theta, equal_nan=True)

    def test_side_codes_and_labels(self, star_run):
        assert set(np.unique(star_run.side)) <= {
            SIDE_UP,
            SIDE_DOWN,
            SIDE_KILLED,
            SIDE_CENSORED,
        }
        assert SIDE_LABELS[SIDE_KILLED] == "killed"
        # The killed kind sees all three outcomes at this window size.
        assert np.count_nonzero(star_run.side == SIDE_UP) > 0
        assert np.count_nonzero(star_run.side == SIDE_DOWN) > 0
        assert np.count_nonzero(star_run.side == SIDE_KILLED) > 0

    def test_theta_and_weights_consistent(self, star_run):
        exited = (star_run.side == SIDE_UP) | (star_run.side == SIDE_DOWN)
        assert np.all(star_run.theta[exited] >= 0.0)
        assert np.all(np.isnan(star_run.theta[~exited]))
        # killed kind: weight 1 on every non-censored path
        assert np.all(star_run.h_weight[star_run.side != SIDE_CENSORED] == 1.0)

    def test_conditioned_kind_weights(self):
        s = simulate_exit(Kind.UP, P, W, CFG)
        pos = s.exit_position()
        live = (s.side == SIDE_UP) | (s.side == SIDE_DOWN)
        assert np.allclose(s.h_weight[live], pos[live] ** Kind.UP.h_exponent(P))
        # ruin is impossible under the conditioned law: censored, weight 0
        assert np.all(s.h_weight[s.side == SIDE_CENSORED] == 0.0)
        assert not np.any(s.side == SIDE_KILLED)

    def test_exit_positions_respect_barriers(self, star_run):
        pos = star_run.exit_position()
        up = star_run.side == SIDE_UP
        dn = star_run.side == SIDE_DOWN
        assert np.all(pos[up] >= math.exp(W.u))
        assert np.all(pos[dn] <= math.exp(W.v))

    def test_censoring_control(self, star_run):
        star_run.require_censoring_below(1.0)
        tight = ExitSampleSet(
            star_run.kind,
            star_run.params,
            star_run.window,
            star_run.config,
            np.full(star_run.side.shape, SIDE_CENSORED, dtype=np.int8),
            star_run.theta,
            star_run.h_weight,
            star_run.steps_used,
        )
        with pytest.raises(BudgetError):
            tight.require_censoring_below(1e-3)

    def test_up_fraction_near_model_value(self, star_run):
        # Coarse-step sanity band: 3 standard errors plus a generous
        # grid-bias allowance; the tight version lives in the acceptance
        # suite at a much smaller step.
        target = exit_mass_two_sided(Kind.STAR, P, W, Direction.UP)
        up = star_run.weighted_event_mean(star_run.side == SIDE_UP)
        se = math.sqrt(target * (1.0 - target) / CFG.n_paths)
        assert abs(up - target) < 3.0 * se + 0.05

    @pytest.mark.parametrize("alpha", [0.2, 0.8, 1.2, 1.9])
    def test_no_floating_point_error_across_the_feasible_skews(self, alpha):
        # The endpoint test of the sampler fixes U; here W is drawn too,
        # through the log/exp kernel inside the path loop.
        lo, hi = max(0.0, 1.0 - 1.0 / alpha), min(1.0, 1.0 / alpha)
        cfg = SimConfig(n_paths=64, step=1e-2, seed=5)
        with np.errstate(all="raise"):
            for rho in (0.5, lo + 1e-3, hi - 1e-3):
                s = simulate_exit(Kind.UP, StableParams(alpha, rho), W, cfg)
                up = s.side == SIDE_UP
                assert np.all(np.isfinite(s.theta[up])), (alpha, rho)
                assert np.all(np.isfinite(s.h_weight)), (alpha, rho)

    def test_seed_range(self):
        SimConfig(1, 1e-3, 2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(DomainError):
                SimConfig(1, 1e-3, seed)

    def test_barrier_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            simulate_exit(Kind.STAR, P, ExitWindow(-0.5, 800.0), SimConfig(1, 1e-3, 0))

    def test_budget_cap(self):
        with pytest.raises(BudgetError):
            SimConfig(n_paths=10, step=1e-8, seed=0, max_time=50.0)

    def test_path_cap(self):
        # Refused before any array is allocated; the cap itself is allowed.
        with pytest.raises(BudgetError, match="path cap"):
            SimConfig(n_paths=10**7 + 1, step=1e-3, seed=0)
        assert SimConfig(n_paths=10**7, step=1e-3, seed=0).n_paths == 10**7


def _per_path(draw, n_paths, seed, max_steps, eu, ev, start=0):
    """The per-path definition of the grid simulation: path start + i alone
    on path_rng(seed, start + i), in whole 512-step blocks, to its first
    barrier crossing or the horizon."""
    pos = np.ones(n_paths)
    steps = np.zeros(n_paths, dtype=np.int64)
    exited = np.zeros(n_paths, dtype=bool)
    for i in range(n_paths):
        rng, x, done = path_rng(seed, start + i), 1.0, 0
        while done < max_steps:
            path = x + np.cumsum(draw([rng], 512)[0])[: max_steps - done]
            hit = np.flatnonzero((path >= eu) | (path <= ev))
            k = int(hit[0]) if hit.size else path.size - 1
            if hit.size or done + path.size == max_steps:
                pos[i], steps[i], exited[i] = path[k], done + k + 1, hit.size > 0
                break
            x, done = float(path[-1]), done + 512
    return pos, steps, exited


def _one_level(draw, n_paths, seed, max_steps, eu, ev, start=0):
    """The batched simulator's rows for a single level of max_steps steps."""
    rows = montecarlo._run_paths(draw, n_paths, seed, [(1.0, max_steps)], eu, ev, start)
    return tuple(a[0] for a in rows)


def _as_levels(rows_of):
    """A _run_paths stand-in for a one-level run, from a function with
    _per_path's signature."""

    def run(draw, n_paths, seed, levels, eu, ev, start=0):
        [(scale, max_steps)] = levels
        assert scale == 1.0
        return tuple(a[None] for a in rows_of(draw, n_paths, seed, max_steps, eu, ev, start))

    return run


class TestLockstepBatch:
    """The batched simulator reproduces the per-path definition bit for bit."""

    @pytest.mark.parametrize(
        "kind, p, window, cfg",
        [
            (Kind.STAR, P, W, SimConfig(70, 2e-3, 11)),
            (Kind.UP, P, W, SimConfig(70, 2e-3, 11)),
            (Kind.DOWN, P, W, SimConfig(70, 2e-3, 11)),
            (Kind.UP, P, W, SimConfig(5, 2e-3, 12)),
            # Several blocks per path, so rows pass from path to path mid-run.
            (Kind.STAR, P, W, SimConfig(70, 1e-4, 17)),
            (Kind.STAR, StableParams(0.8, 0.3), W, SimConfig(40, 2e-3, 13)),
            (Kind.DOWN, StableParams(0.8, 0.7), W, SimConfig(40, 2e-3, 14)),
            (Kind.STAR, StableParams(1.0, 0.5), W, SimConfig(40, 2e-3, 15)),
            # 2500 steps: four whole blocks, then a horizon 452 steps into
            # the fifth.
            (Kind.UP, P, ExitWindow(-3.0, 3.0), SimConfig(40, 1e-3, 16, max_time=2.5)),
        ],
    )
    def test_matches_per_path_definition(self, monkeypatch, kind, p, window, cfg):
        _assert_matches_per_path(monkeypatch, kind, p, window, cfg)

    def test_horizon_case_censors_several_paths(self):
        s = simulate_exit(
            Kind.UP, P, ExitWindow(-3.0, 3.0), SimConfig(40, 1e-3, 16, max_time=2.5)
        )
        assert s.config.max_steps % 512 != 0
        censored = s.steps_used == s.config.max_steps
        assert np.count_nonzero(censored) >= 3
        assert np.all(s.side[censored] == SIDE_CENSORED)

    # Window (-0.3, 0.3) at step 1e-4: paths last about 1200 steps, so
    # exits fall in several blocks and a horizon near 2048 censors some.
    NARROW = ExitWindow(-0.3, 0.3)

    # Horizons below, at and one past the end of the fourth block.
    @pytest.mark.parametrize(
        "p, max_steps",
        [(P, 2047), (P, 2048), (P, 2049), (StableParams(1.0, 0.5), 2049)],
    )
    def test_horizon_near_a_block_end_matches_per_path(self, monkeypatch, p, max_steps):
        cfg = SimConfig(100, 1e-4, 29, max_time=(max_steps + 0.5) * 1e-4)
        assert cfg.max_steps == max_steps
        batched = _assert_matches_per_path(monkeypatch, Kind.STAR, p, self.NARROW, cfg)
        exited = batched.side != SIDE_CENSORED
        # Exits in the fourth block or later, and censored paths.
        assert np.any(exited & (batched.steps_used > 1536))
        assert np.any(~exited)

    @pytest.mark.parametrize("max_steps", [1, 10, 511, 512, 513])
    def test_short_horizons_match_per_path(self, max_steps):
        # Horizons inside, at the end of and one past the first block.
        draw = increment_sampler(P, 1e-5)
        args = (40, 6, max_steps, math.exp(0.05), math.exp(-0.05))
        got = _one_level(draw, *args)
        for a, b in zip(got, _per_path(draw, *args)):
            assert np.array_equal(a, b)
        _, steps, exited = got
        assert np.any(~exited) and np.all(steps[~exited] == max_steps)

    def test_exits_on_first_and_last_columns(self, monkeypatch):
        # Seed 11 has paths that exit on the first and on the last step of
        # a block; the test is void unless both happen.
        cfg = SimConfig(100, 1e-4, 11)
        s = simulate_exit(Kind.STAR, P, self.NARROW, cfg)
        col = (s.steps_used - 1) % 512  # column of the exit in its block
        exited = s.side != SIDE_CENSORED
        assert np.any(exited & (col == 0)), "no exit on a block's first column"
        assert np.any(exited & (col == 511)), "no exit on a block's last column"
        batched = _assert_matches_per_path(monkeypatch, Kind.STAR, P, self.NARROW, cfg)
        _assert_same_rows(batched, s)

    def test_reused_stream_equals_fresh_stream(self):
        # Re-keying resets the state and the buffered 32-bit half that a
        # float32 draw leaves behind.
        g = path_rng(8, 3)
        g.random(7)
        g.standard_exponential(5)
        g.random(3, dtype=np.float32)
        assert path_rng(8, 40, reuse=g) is g
        fresh = path_rng(8, 40)
        assert np.array_equal(g.random(50), fresh.random(50))
        assert np.array_equal(g.standard_exponential(50), fresh.standard_exponential(50))
        assert np.array_equal(
            g.random(5, dtype=np.float32), fresh.random(5, dtype=np.float32)
        )
        with pytest.raises(DomainError):
            path_rng(8, 2**64, reuse=g)
        # Both key halves at their extremes, re-keyed from a used generator.
        for seed, index in ((2**64 - 1, 2**64 - 1), (2**63, 2**63), (2**64 - 1, 0)):
            g.random(3)
            assert path_rng(seed, index, reuse=g) is g
            fresh = path_rng(seed, index)
            assert np.array_equal(g.random(50), fresh.random(50))
            assert np.array_equal(
                g.standard_exponential(50), fresh.standard_exponential(50)
            )

    @settings(max_examples=30)
    @given(
        alpha=st.one_of(st.just(1.0), st.floats(0.5, 1.95)),
        skew=st.floats(0.02, 0.98),
        v=st.floats(-1.0, -0.05),
        u=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**64 - 1),
        # More than the 32 rows half of the time, so rows pass between paths.
        n_paths=st.one_of(st.integers(1, 40), st.integers(33, 40)),
        step=st.sampled_from([1e-3, 1e-4]),
        max_time=st.floats(0.01, 0.5),
        # The first path of a chunk that a forked worker runs.
        start=st.one_of(st.just(0), st.integers(1, 2**63)),
    )
    def test_property_bit_equal_to_per_path(
        self, alpha, skew, v, u, seed, n_paths, step, max_time, start
    ):
        # skew places rho inside the two-sided range: (0, 1) for alpha <= 1,
        # (1 - 1/alpha, 1/alpha) for alpha > 1.
        lo = max(0.0, 1.0 - 1.0 / alpha)
        p = StableParams(alpha, lo + skew * (1.0 - 2.0 * lo))
        assert p.two_sided
        cfg = SimConfig(n_paths, step, seed, max_time=max_time)
        draw = increment_sampler(p, step)
        args = (n_paths, seed, cfg.max_steps, math.exp(u), math.exp(v), start)
        for got, want in zip(_one_level(draw, *args), _per_path(draw, *args)):
            assert np.array_equal(got, want)

    def test_draws_match_per_path_count(self):
        # Each path draws whole blocks up to the block of its exit or of the
        # horizon.  Nothing is drawn for a row that has no path.
        cfg = SimConfig(50, 1e-3, 3, max_time=2.5)
        base = increment_sampler(P, cfg.step)
        drawn = []

        def counting_draw(rngs, n, out=None):
            drawn.append(len(rngs) * n)
            return base(rngs, n, out=out)

        window = ExitWindow(-3.0, 3.0)
        _, steps, _ = _one_level(
            counting_draw, cfg.n_paths, cfg.seed, cfg.max_steps,
            math.exp(window.u), math.exp(window.v),
        )
        assert np.any(steps == cfg.max_steps)
        assert sum(drawn) == int((-(-steps // 512) * 512).sum())


def _assert_matches_per_path(monkeypatch, kind, p, window, cfg):
    """Run simulate_exit batched and per path; assert bit equality."""
    batched = simulate_exit(kind, p, window, cfg)
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_run_paths", _as_levels(_per_path))
        single = simulate_exit(kind, p, window, cfg)
    _assert_same_rows(batched, single)
    return batched


def _classify_per_path(kind, p, window, pos, exited):
    """The per-path classification loop that simulate_exit's masks replace:
    side, theta and h_weight of each raw exit position, one at a time."""
    eu, h_exp = math.exp(window.u), kind.h_exponent(p)
    side = np.zeros(len(pos), dtype=np.int8)
    theta = np.full(len(pos), np.nan)
    h_weight = np.zeros(len(pos))
    for i in range(len(pos)):
        x = float(pos[i])
        if not exited[i]:
            side[i] = SIDE_CENSORED
            continue
        if x >= eu:
            side[i] = SIDE_UP
            theta[i] = math.log(x) - window.u
            h_weight[i] = x**h_exp
        elif x <= 0.0:
            side[i] = SIDE_KILLED if kind is Kind.STAR else SIDE_CENSORED
            h_weight[i] = 1.0 if kind is Kind.STAR else 0.0
        else:
            side[i] = SIDE_DOWN
            theta[i] = window.v - math.log(x)
            h_weight[i] = x**h_exp
    return side, theta, h_weight


class TestClassification:
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("p", [StableParams(0.8, 0.3), StableParams(1.5, 0.5)])
    def test_masks_equal_the_per_path_loop(self, monkeypatch, kind, p):
        # log(exp(b)) == b at both barriers, so theta is exactly 0 there.
        window = ExitWindow(v=-0.5, u=0.5)
        eu, ev = math.exp(window.u), math.exp(window.v)
        exits = [eu, ev, 0.0, -0.0, -0.3, -math.inf, math.inf, 3.0 * eu,
                 0.5 * ev, np.nextafter(eu, 9.0), np.nextafter(ev, -9.0),
                 np.nextafter(0.0, 1.0)]
        # Horizon rows: not exited, wherever the path stands.
        horizon = [1.0, eu, ev, 0.0, -0.3]
        pos = np.array(exits + horizon)
        exited = np.array([True] * len(exits) + [False] * len(horizon))
        steps = np.arange(1, len(pos) + 1, dtype=np.int64)

        def chosen_rows(draw, n_paths, seed, max_steps, eu_, ev_, start=0):
            assert (n_paths, start, eu_, ev_) == (len(pos), 0, eu, ev)
            return pos.copy(), steps.copy(), exited.copy()

        monkeypatch.setattr(montecarlo, "_run_paths", _as_levels(chosen_rows))
        s = simulate_exit(kind, p, window, SimConfig(len(pos), 1e-3, 0))
        side, theta, h_weight = _classify_per_path(kind, p, window, pos, exited)
        assert np.array_equal(s.side, side)
        assert np.array_equal(s.theta, theta, equal_nan=True)
        assert np.array_equal(s.h_weight, h_weight, equal_nan=True)
        assert np.array_equal(s.steps_used, steps)
        # The rows exactly at e^u and e^v exit there, with theta 0.
        assert s.side[0] == SIDE_UP and s.theta[0] == 0.0
        assert s.side[1] == SIDE_DOWN and s.theta[1] == 0.0
        assert set(s.side[len(exits):].tolist()) == {SIDE_CENSORED}


class TestRefinement:
    def test_report_shape_and_bias(self):
        rows = step_refinement_report(
            Kind.STAR, P, W, SimConfig(150, 4e-3, 7), levels=2
        )
        assert [r["level"] for r in rows] == [0, 1]
        assert rows[1]["step"] == pytest.approx(rows[0]["step"] / 2.0)
        for r in rows:
            assert 0.0 <= r["p_up"] <= 1.0
        bias = extrapolated_bias(rows, "p_up")
        assert 0.0 <= bias < 0.2

    def test_levels_validation(self):
        for levels in (1, 0, -3, 2.5, 3.0, math.nan, "3", None):
            with pytest.raises(DomainError, match="levels"):
                step_refinement_report(Kind.STAR, P, W, CFG, levels=levels)
        with pytest.raises(DomainError):
            extrapolated_bias([{"p_up": 0.5}], "p_up")
        with pytest.raises(DomainError, match="p_dn"):
            extrapolated_bias([{"p_up": 0.5}, {"p_up": 0.4}], "p_dn")

    def test_finest_step_past_the_grid_cap_is_refused_before_any_run(self, monkeypatch):
        calls = _count_run_paths(monkeypatch)
        # 2e-3 / 2^20 is past the 1e8 grid points of max_time 50.
        with pytest.raises(BudgetError):
            step_refinement_report(Kind.STAR, P, W, CFG, levels=21)
        with pytest.raises(DomainError):  # the step underflows to 0
            step_refinement_report(Kind.STAR, P, W, CFG, levels=10**6)
        assert calls == []


def _count_run_paths(monkeypatch):
    """Patch _run_paths to count its calls; returns the list it appends to."""
    calls = []
    real = montecarlo._run_paths

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(montecarlo, "_run_paths", counted)
    return calls


def _report_row(level, s):
    """A report row computed from a sample set, as the report defines it."""
    up = s.side == SIDE_UP
    w_up = float(np.sum(s.h_weight[up]))
    return {
        "level": level,
        "step": s.config.step,
        "p_up": w_up / s.config.n_paths,
        "mean_theta_up": float(np.sum(s.h_weight[up] * s.theta[up])) / w_up,
        "censored_fraction": s.censored_fraction,
    }


SMALL_CFG = SimConfig(60, 4e-3, 10)


class TestRefinementLevels:
    """Every level of a report is read off the finest level's paths, and
    equals simulate_exit at its own step: sides and steps exactly, theta
    and the weights up to rounding."""

    @pytest.mark.parametrize(
        "kind, p, window, cfg, levels",
        [
            (Kind.STAR, P, W, SimConfig(120, 4e-3, 61), 2),
            (Kind.UP, P, W, SimConfig(120, 4e-3, 62), 2),
            (Kind.DOWN, P, W, SimConfig(120, 4e-3, 63), 2),
            (Kind.STAR, StableParams(1.0, 0.5), W, SimConfig(120, 4e-3, 64), 2),
            (Kind.STAR, StableParams(0.8, 0.3), W, SimConfig(120, 4e-3, 65), 3),
            (Kind.UP, StableParams(1.2, 0.5), W, SimConfig(120, 4e-3, 66), 3),
            (Kind.DOWN, StableParams(0.8, 0.7), W, SimConfig(120, 4e-3, 67), 3),
            # Several paths censored at the horizon of each level, and an up
            # exit at each level.
            (Kind.UP, P, ExitWindow(-3.0, 3.0), SimConfig(60, 2e-3, 31, max_time=2.5), 2),
        ],
        ids=["star", "up", "down", "cauchy", "star-3", "up-3", "down-3", "horizon"],
    )
    def test_each_level_equals_a_run_at_its_step(self, kind, p, window, cfg, levels):
        fine = SimConfig(cfg.n_paths, cfg.step / 2 ** (levels - 1), cfg.seed, cfg.max_time)
        sets = montecarlo._simulate(kind, p, window, fine, levels)
        _assert_same_rows(sets[-1], simulate_exit(kind, p, window, fine))
        rows = step_refinement_report(kind, p, window, cfg, levels)
        for level, (s, row) in enumerate(zip(sets, rows)):
            assert s.config == SimConfig(
                cfg.n_paths, cfg.step / 2**level, cfg.seed, cfg.max_time
            )
            alone = simulate_exit(kind, p, window, s.config)
            assert np.array_equal(s.side, alone.side)
            assert np.array_equal(s.steps_used, alone.steps_used)
            # theta is a log-position, so an absolute bound on it bounds the
            # exit position relatively.
            np.testing.assert_allclose(s.theta, alone.theta, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(s.h_weight, alone.h_weight, rtol=1e-12, atol=0.0)
            for a in (s.side, s.theta, s.h_weight, s.steps_used):
                assert not a.flags.writeable
            # mean_theta_up is defined only with some up-exit weight.
            assert np.sum(alone.h_weight[alone.side == SIDE_UP]) > 0.0
            want = _report_row(level, alone)
            assert row.keys() == want.keys()
            for key in row:
                assert row[key] == pytest.approx(want[key], rel=1e-12, abs=0.0)
        if cfg.max_time < 50.0:
            coarse = sets[0]
            censored = coarse.steps_used == coarse.config.max_steps
            assert np.count_nonzero(censored) >= 3
            assert np.all(coarse.side[censored] == SIDE_CENSORED)
            assert coarse.config.max_steps < sets[-1].config.max_steps

    def test_a_coarse_exit_lies_beyond_its_barrier(self):
        # Rounding cannot move a coarser level's exit back inside the window.
        s = montecarlo._simulate(Kind.STAR, P, W, SimConfig(300, 1e-3, 68), 3)
        for level in s:
            pos = level.exit_position()
            assert np.all(pos[level.side == SIDE_UP] >= math.exp(W.u))
            assert np.all(pos[level.side == SIDE_DOWN] <= math.exp(W.v))
            assert np.all(level.theta[~np.isnan(level.theta)] >= 0.0)

    def test_a_coarse_level_on_its_barrier_exits_at_the_window_barrier(self):
        # The first step puts the last level exactly on the coarser level's
        # upper barrier t = 1 + (e^u - 1)/s, and then no step moves it.  At
        # u = 0.08, 1 + s (t - 1) rounds to just below e^u.
        s = 2.0 ** (1.0 / 1.5)
        eu, ev = math.exp(0.08), math.exp(-0.5)
        t = eu + (1.0 / s - 1.0) * (eu - 1.0)
        assert 1.0 + s * (t - 1.0) < eu

        def draw(rngs, n, out):
            out[:] = 0.0
            out[:, 0] = t - 1.0
            return out

        pos, steps, exited = montecarlo._run_paths(draw, 3, 0, [(s, 10), (1.0, 20)], eu, ev)
        assert pos[0].tolist() == [eu] * 3
        assert steps[0].tolist() == [1] * 3 and exited[0].all()
        assert steps[1].tolist() == [20] * 3 and not exited[1].any()
        assert pos[1].tolist() == [t] * 3

    def test_a_level_with_no_step_before_its_horizon_censors_every_path(self):
        # max_time 3e-3: one step at 2e-3 and none at 4e-3.
        cfg = SimConfig(40, 4e-3, 69, max_time=3e-3)
        sets = montecarlo._simulate(Kind.STAR, P, W, replace(cfg, step=2e-3), 2)
        assert sets[0].config.max_steps == 0 and sets[1].config.max_steps == 1
        assert np.all(sets[0].side == SIDE_CENSORED)
        assert np.all(sets[0].steps_used == 0)
        _assert_same_rows(sets[1], simulate_exit(Kind.STAR, P, W, sets[1].config))

    def test_report_does_not_depend_on_what_ran_before(self, monkeypatch):
        calls = _count_run_paths(monkeypatch)
        fresh = step_refinement_report(Kind.STAR, P, W, SMALL_CFG, levels=2)
        base = simulate_exit(Kind.STAR, P, W, SMALL_CFG)
        after_base = step_refinement_report(Kind.STAR, P, W, SMALL_CFG, levels=2)
        simulate_exit(Kind.STAR, P, W, SimConfig(150, 4e-3, 10))
        after_larger = step_refinement_report(Kind.STAR, P, W, SMALL_CFG, levels=2)
        # Each report is one pass at the finest step, whatever ran before.
        assert calls == [60, 60, 60, 150, 60]
        assert fresh == after_base == after_larger
        assert all(math.isfinite(v) for r in fresh for v in r.values())
        assert fresh[0] == _report_row(0, base)


class TestStatelessRuns:
    """A run depends on its arguments alone."""

    @pytest.mark.parametrize(
        "kind, p, window, cfg",
        [
            (Kind.STAR, P, W, SimConfig(70, 2e-3, 41)),
            (Kind.UP, P, W, SimConfig(70, 2e-3, 42)),
            (Kind.DOWN, P, W, SimConfig(70, 2e-3, 43)),
            (Kind.STAR, StableParams(1.0, 0.5), W, SimConfig(70, 2e-3, 44)),
            # Horizon censoring: several paths stop at max_time.
            (Kind.UP, P, ExitWindow(-3.0, 3.0), SimConfig(40, 1e-3, 16, max_time=2.5)),
        ],
        ids=["star", "up", "down", "cauchy", "horizon"],
    )
    def test_run_is_a_prefix_of_a_larger_run(self, kind, p, window, cfg):
        big = simulate_exit(kind, p, window, cfg)
        n = cfg.n_paths // 2 + 1
        small = simulate_exit(
            kind, p, window, SimConfig(n, cfg.step, cfg.seed, cfg.max_time)
        )
        for name in ("side", "theta", "h_weight", "steps_used"):
            assert np.array_equal(
                getattr(small, name), getattr(big, name)[:n], equal_nan=True
            )
        if cfg.max_time < 50.0:
            assert big.n_censored >= 2

    def test_simulate_exit_always_simulates(self, monkeypatch):
        # The determinism check of verify compares two real runs.
        calls = _count_run_paths(monkeypatch)
        a = simulate_exit(Kind.STAR, P, W, SMALL_CFG)
        b = simulate_exit(Kind.STAR, P, W, SMALL_CFG)
        assert calls == [60, 60] and a is not b
        _assert_same_rows(a, b)

    def test_sample_arrays_are_read_only(self, star_run):
        for name in ("side", "theta", "h_weight", "steps_used"):
            a = getattr(star_run, name)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


def _force_workers(monkeypatch, k):
    """Size every run at k processes; returns the list of forks made here."""
    forks = []
    real_fork = os.fork
    parent = os.getpid()

    def fork():
        if os.getpid() == parent:
            forks.append(1)
        return real_fork()

    monkeypatch.setattr(montecarlo, "_n_workers", lambda n_paths: k)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_CFG = SimConfig(1001, 2e-3, 51)


class TestSplitRuns:
    """A run split over forked workers equals the one-process run."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind, p, window, cfg",
        [
            (Kind.STAR, P, W, SPLIT_CFG),
            (Kind.UP, P, W, SPLIT_CFG),
            (Kind.DOWN, P, W, SPLIT_CFG),
            (Kind.STAR, StableParams(1.0, 0.5), W, SPLIT_CFG),
            # Horizon censoring: several paths stop at max_time.
            (Kind.UP, P, ExitWindow(-3.0, 3.0), SimConfig(600, 1e-3, 16, max_time=2.5)),
        ],
        ids=["star", "up", "down", "cauchy", "horizon"],
    )
    def test_rows_equal_the_serial_run(self, monkeypatch, kind, p, window, cfg, workers):
        with monkeypatch.context() as m:
            _force_workers(m, 1)
            serial = simulate_exit(kind, p, window, cfg)
        forks = _force_workers(monkeypatch, workers)
        split = simulate_exit(kind, p, window, cfg)
        assert len(forks) == workers - 1
        _assert_no_child_left()
        _assert_same_rows(split, serial)
        assert split.n_censored == serial.n_censored
        if cfg.max_time < 50.0:
            assert serial.n_censored >= 2
        for a in (split.side, split.theta, split.h_weight, split.steps_used):
            assert not a.flags.writeable

    def test_chunks_are_contiguous_and_cover_every_path(self, monkeypatch):
        calls = _count_run_paths(monkeypatch)
        _force_workers(monkeypatch, 3)
        simulate_exit(Kind.STAR, P, W, SPLIT_CFG)
        # Only the parent's own chunk, paths 0..332, is recorded here; the
        # children record theirs in their copies of the list.
        assert calls == [333]
        assert [SPLIT_CFG.n_paths * j // 3 for j in range(4)] == [0, 333, 667, 1001]

    @pytest.mark.parametrize("levels", [2, 3])
    def test_refinement_report_is_the_same(self, monkeypatch, levels):
        cfg = SimConfig(600, 4e-3, 9)
        with monkeypatch.context() as m:
            _force_workers(m, 1)
            serial = step_refinement_report(Kind.STAR, P, W, cfg, levels=levels)
        forks = _force_workers(monkeypatch, 2)
        split = step_refinement_report(Kind.STAR, P, W, cfg, levels=levels)
        assert len(forks) == 1
        assert split == serial
        _assert_no_child_left()

    def test_montecarlo_suite_report_is_the_same(self, monkeypatch):
        with monkeypatch.context() as m:
            _force_workers(m, 1)
            serial = run_suite("montecarlo", n_paths=600)
        forks = _force_workers(monkeypatch, 2)
        split = run_suite("montecarlo", n_paths=600)
        assert len(forks) >= 4
        _assert_no_child_left()
        del serial["runtime"], split["runtime"]
        assert split == serial


class TestWorkerHygiene:
    """No worker outlives simulate_exit, whatever happens to it."""

    def _patch_chunks(self, monkeypatch, parent_chunk=None, child_chunk=None):
        real = montecarlo._run_paths

        def run_paths(draw, n_paths, seed, levels, eu, ev, start=0):
            hook = parent_chunk if start == 0 else child_chunk
            if hook is not None:
                hook()
            return real(draw, n_paths, seed, levels, eu, ev, start)

        monkeypatch.setattr(montecarlo, "_run_paths", run_paths)
        _force_workers(monkeypatch, 3)

    def test_successful_run_reaps_every_worker(self, monkeypatch):
        _force_workers(monkeypatch, 3)
        simulate_exit(Kind.STAR, P, W, SPLIT_CFG)
        _assert_no_child_left()

    def test_worker_that_raises_is_an_error(self, monkeypatch):
        def fail():
            raise RuntimeError("worker failure")

        self._patch_chunks(monkeypatch, child_chunk=fail)
        with pytest.raises(
            WorkerError, match=r"chunk 1 \(paths 333\.\.666\) exited with code 1"
        ):
            simulate_exit(Kind.STAR, P, W, SPLIT_CFG)
        _assert_no_child_left()

    def test_killed_worker_is_an_error(self, monkeypatch):
        self._patch_chunks(
            monkeypatch, child_chunk=lambda: os.kill(os.getpid(), signal.SIGKILL)
        )
        with pytest.raises(WorkerError, match=r"chunk 1 .* killed by signal 9"):
            simulate_exit(Kind.STAR, P, W, SPLIT_CFG)
        _assert_no_child_left()

    def test_error_in_own_chunk_kills_the_workers(self, monkeypatch):
        def fail():
            raise ValueError("parent chunk failure")

        # The workers would run for a minute if they were not killed.
        self._patch_chunks(
            monkeypatch, parent_chunk=fail, child_chunk=lambda: time.sleep(60)
        )
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="parent chunk failure"):
            simulate_exit(Kind.STAR, P, W, SPLIT_CFG)
        assert time.perf_counter() - t0 < 30.0
        _assert_no_child_left()

    def test_failed_fork_is_an_error(self, monkeypatch):
        # The first worker starts, the second cannot: the first is reaped.
        calls = []
        real_fork = os.fork

        def fork():
            calls.append(1)
            if len(calls) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(montecarlo, "_n_workers", lambda n_paths: 3)
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(
            WorkerError, match="could not start the worker for path chunk 2"
        ):
            simulate_exit(Kind.STAR, P, W, SPLIT_CFG)
        _assert_no_child_left()


class TestWorkerCount:
    """min(CPUs, 8, n // 256) processes, serial below 2; starts nothing."""

    @pytest.mark.parametrize(
        "cpus, n_paths, want",
        [
            (1, 1, 1), (1, 511, 1), (1, 512, 1), (1, 10**6, 1),
            (2, 1, 1), (2, 511, 1), (2, 512, 2), (2, 10**6, 2),
            (64, 1, 1), (64, 511, 1), (64, 512, 2), (64, 10**6, 8),
        ],
    )
    def test_sizing(self, monkeypatch, cpus, n_paths, want):
        def no_fork():
            raise AssertionError("the sizing helper started a process")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", no_fork)
        assert montecarlo._n_workers(n_paths) == want <= 8

    def test_no_fork_means_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.delattr(os, "fork")
        assert montecarlo._n_workers(10**6) == 1


class TestStatistics:
    def test_ks_uniform_self_test(self):
        rng = np.random.default_rng(5)
        x = rng.random(100_000)
        assert ks_distance(x, lambda t: min(max(t, 0.0), 1.0)) < 0.006

    def test_ks_weighted_reduces_to_plain(self):
        rng = np.random.default_rng(6)
        x = rng.random(500)
        cdf = lambda t: min(max(t, 0.0), 1.0)
        plain = ks_distance(x, cdf)
        weighted = ks_distance(x, cdf, weights=np.full(500, 3.0))
        assert weighted == pytest.approx(plain, abs=1e-15)

    def test_ks_detects_wrong_model(self):
        rng = np.random.default_rng(7)
        x = rng.random(2000)
        assert ks_distance(x, lambda t: min(max(t, 0.0), 1.0) ** 2) > 0.2

    def test_ks_validation(self):
        with pytest.raises(DomainError):
            ks_distance([], lambda t: t)
        with pytest.raises(DomainError):
            ks_distance([0.5], lambda t: t, weights=np.array([-1.0]))

    def test_ks_cutoff_zero_is_full_range(self):
        rng = np.random.default_rng(10)
        x = rng.random(2000)
        w = rng.random(2000)
        cdf = lambda t: min(max(t, 0.0), 1.0) ** 0.8
        assert ks_distance(x, cdf, weights=w, cutoff=0.0) == ks_distance(
            x, cdf, weights=w
        )

    def test_ks_cutoff_counts_weight_below(self):
        # Exact uniform quantiles with the lower half displaced to 0: the
        # full-range sup sees the displacement, the sup over x >= 1/2 does
        # not, because the empirical CDF still holds the displaced half.
        n = 1000
        x = (np.arange(n) + 0.5) / n
        x[x < 0.5] = 0.0
        cdf = lambda t: min(max(t, 0.0), 1.0)
        assert ks_distance(x, cdf) == pytest.approx(0.5, abs=1e-12)
        assert ks_distance(x, cdf, cutoff=0.5) == pytest.approx(0.5 / n, abs=1e-12)
        assert ks_distance(x[x >= 0.5], cdf, cutoff=0.5) > 0.5

    def test_ks_cutoff_validation(self):
        for bad in (-1e-3, math.nan):
            with pytest.raises(DomainError):
                ks_distance([0.5], lambda t: t, cutoff=bad)

    def test_moment_check(self):
        rng = np.random.default_rng(8)
        x = rng.standard_exponential(50_000)
        ok = moment_check(x, 1, 1.0, tolerance_sd=4.0)
        assert ok["passed"] and abs(ok["z"]) < 4.0
        assert ok["se"] == pytest.approx(1.0 / math.sqrt(50_000), rel=0.1)
        bad = moment_check(x, 1, 2.0, tolerance_sd=4.0)
        assert not bad["passed"]
        with pytest.raises(DomainError):
            moment_check(x, 0, 1.0, 3.0)

    def test_moment_check_weighted_ess(self):
        # Concentrating weight on a few samples inflates the reported SE.
        rng = np.random.default_rng(9)
        x = rng.standard_exponential(1000)
        flat = moment_check(x, 1, 1.0, 3.0)
        w = np.ones(1000)
        w[:10] = 100.0
        spiky = moment_check(x, 1, 1.0, 3.0, weights=w)
        assert spiky["se"] > flat["se"]
