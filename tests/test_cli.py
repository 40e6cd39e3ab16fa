import argparse
import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pssmp
from pssmp.cli import (
    _LAW_TABLE,
    _OPTIONS,
    LAWS,
    _finite,
    _fmt,
    _integer,
    _parse,
    load_config,
    main,
    parse_grid,
)
from pssmp.errors import ConfigurationError, DomainError, WorkerError
from pssmp.exit_laws import ExitWindow, min_cdf_up
from pssmp.montecarlo import (
    SIDE_CENSORED,
    SIDE_DOWN,
    SIDE_KILLED,
    SIDE_LABELS,
    SimConfig,
    simulate_exit,
)
from pssmp.scale import Case, SpectralCase, default_m
from pssmp.stable import Kind, StableParams
from pssmp.verify import SUITES, run_suite


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGridAndConfig:
    def test_parse_grid_linear(self):
        g = parse_grid("0:1:5")
        assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_parse_grid_log(self):
        g = parse_grid("1:100:3:log")
        assert np.allclose(g, [1.0, 10.0, 100.0])

    def test_parse_grid_rejects(self):
        for bad in ("0:1", "0:1:1", "0:1:5:cubic", "-1:1:5:log", "0:1:x", "a:1:3", "0:1:2.5"):
            with pytest.raises(DomainError):
                parse_grid(bad)

    def test_parse_grid_rejects_non_finite_endpoints(self):
        for bad in ("nan:1:3", "0:inf:3", "-inf:1:3", "1:nan:3:log"):
            with pytest.raises(DomainError, match="finite"):
                parse_grid(bad)

    def test_load_config(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\nalpha = 1.2\njump-weight=2.0\n\nseed=9\n")
        values = load_config(str(f))
        assert values == {"alpha": "1.2", "jump_weight": "2.0", "seed": "9"}
        bad = tmp_path / "bad.cfg"
        bad.write_text("alpha 1.2\n")
        with pytest.raises(ConfigurationError):
            load_config(str(bad))


class TestEval:
    def test_csv_round_trip_is_exact(self, capsys):
        rc, out, _ = run(
            capsys, "eval", "--law", "min-cdf-up", "--grid", "0.5:2:4"
        )
        assert rc == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "z,value"
        p = StableParams(1.5, 0.5)
        for line in lines[1:]:
            z_s, v_s = line.split(",")
            # %.17g print guarantees bit-exact float round trips
            assert min_cdf_up(p, float(z_s)) == float(v_s)

    def test_metadata_header(self, capsys):
        rc, out, _ = run(capsys, "eval", "--law", "psi", "--alpha", "1.3")
        assert rc == 0
        assert "# law=psi" in out
        assert "# alpha=1.3" in out

    @pytest.mark.parametrize("law", LAWS)
    def test_laws_evaluate_cleanly(self, capsys, law):
        rc, out, err = run(capsys, "eval", "--law", law, "--grid", "0.2:2:5")
        assert rc == 0, err
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) >= 2

    @pytest.mark.parametrize("case", ["up-neg", "down-neg", "down-pos"])
    def test_spectral_m_follows_the_jump_weight(self, capsys, case):
        # A one-sided model has one active side, so one --jump-weight serves
        # every case.
        def m_of(*opts):
            rc, out, _ = run(capsys, "eval", "--law", "psi", "--case", case, *opts)
            assert rc == 0
            return float(next(l for l in out.splitlines() if l.startswith("# m="))[4:])

        assert m_of() == default_m(1.5)
        m = m_of("--alpha", "1.5", "--jump-weight", "2")
        assert m == 2.0 * default_m(1.5) == SpectralCase(Case(case), 1.5, 2.0).m

    def test_downneg_triple_law_needs_no_ladder_rate(self, capsys):
        # The down-neg law is the Esscher tilt of up-neg, a function of
        # alpha alone: it runs without a ladder rate, records none, and
        # --q-ladder is an unknown option.
        rc, out, _ = run(capsys, "eval", "--law", "triple-law", "--case", "down-neg")
        assert rc == 0 and "ladder" not in out
        rc, out, err = run(
            capsys, "eval", "--law", "triple-law", "--case", "down-neg", "--q-ladder", "0.7"
        )
        assert rc == 2 and out == "" and "--q-ladder" in err

    def test_m_is_the_jump_weight(self, capsys):
        # A mean normalization m is the jump weight m / default_m(alpha): it
        # has no option of its own, and --m is an unknown option.
        rc, out, err = run(capsys, "eval", "--law", "psi", "--m", "2")
        assert rc == 2 and out == "" and "unknown option --m" in err
        weight = 2.0 / default_m(1.5)
        rc, out, _ = run(capsys, "eval", "--law", "psi", "--jump-weight", repr(weight))
        assert rc == 0
        m = float(next(l for l in out.splitlines() if l.startswith("# m="))[4:])
        assert m == pytest.approx(2.0, rel=1e-15)

    def test_rogozin_start_outside_interval_is_refused(self, capsys):
        # --x is evaluated as given: inside (0, a) the metadata records it,
        # outside it the law's DomainError exits 2 (earlier versions
        # evaluated a/2 there instead).
        rc, out, _ = run(capsys, "eval", "--law", "rogozin-density", "--x", "0.5")
        assert rc == 0 and "# a=2\n" in out and "# x=0.5\n" in out
        for x in ("-3", "0", "2", "5"):
            rc, out, err = run(capsys, "eval", "--law", "rogozin-density", "--x", x)
            assert rc == 2 and out == "" and "0 < x < a" in err

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        rc, out, _ = run(
            capsys, "eval", "--law", "min-cdf-up", "--out", str(dest)
        )
        assert rc == 0 and out == ""
        assert dest.read_text().startswith("# artifact_version=")

    @pytest.mark.parametrize(
        "argv",
        [["--law", law, "--grid", "0.2:2:5"] for law in LAWS]
        + [["--law", "hit-two-point", "--a", "0.5", "--grid", "0.5:0.6:3"]],
    )
    def test_rows_equal_value_by_value_formatting(self, capsys, argv):
        # Each row is formatted once; the bytes are those of _fmt on each value.
        rc, out, _ = run(capsys, "eval", *argv)
        args = _parse(["eval", *argv])
        law = _LAW_TABLE[args.law]
        _, rows = law.rows(args, law.model(args)[0], parse_grid(args.grid))
        want = [",".join(map(_fmt, row)) for row in rows]
        assert rc == 0 and out.splitlines()[-len(want):] == want

    def test_law_registry_complete(self):
        assert LAWS == tuple(_LAW_TABLE)
        for name, law in _LAW_TABLE.items():
            assert law.header.split(",")[-1] in ("value", "error_bound", "slope")
            if name == "tails":
                assert law.grid is None
            else:
                assert len(parse_grid(law.grid)) >= 2


class TestSimulate:
    ARGS = (
        "simulate",
        "--kind",
        "star",
        "--n-paths",
        "25",
        "--step",
        "5e-3",
        "--seed",
        "4",
    )

    def test_reruns_byte_identical(self, capsys):
        rc1, out1, _ = run(capsys, *self.ARGS)
        rc2, out2, _ = run(capsys, *self.ARGS)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_record_format(self, capsys):
        _, out, _ = run(capsys, *self.ARGS)
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "path_id,side,theta,h_weight,steps_used"
        assert len(lines) == 26
        for line in lines[1:]:
            pid, side, theta, h, steps = line.split(",")
            assert side in ("up", "down", "killed", "censored")
            assert int(steps) >= 0
            if side in ("up", "down"):
                assert float(theta) >= 0.0

    @pytest.mark.parametrize("kind", ["star", "up", "down"])
    @pytest.mark.parametrize("alpha,rho", [("0.8", "0.3"), ("1.5", "0.5")])
    def test_rows_equal_value_by_value_formatting(self, capsys, monkeypatch, kind, alpha, rho):
        # A horizon of 1 censors paths of every kind, so that killed (star),
        # censored and NaN-theta rows all reach the CSV.
        runs = []

        def short_horizon(kind_, p, w, cfg):
            runs.append(simulate_exit(kind_, p, w, SimConfig(cfg.n_paths, cfg.step, cfg.seed, 1.0)))
            return runs[-1]

        monkeypatch.setattr(pssmp.cli, "simulate_exit", short_horizon)
        rc, out, _ = run(
            capsys, "simulate", "--kind", kind, "--alpha", alpha, "--rho", rho,
            "--u", "1", "--v", "-3", "--n-paths", "200", "--step", "0.05", "--seed", "3",
        )
        assert rc == 0
        (s,) = runs
        want = [
            ",".join(
                _fmt(val)
                for val in (i, SIDE_LABELS[s.side[i]], float(s.theta[i]),
                            float(s.h_weight[i]), int(s.steps_used[i]))
            )
            for i in range(200)
        ]
        lines = out.splitlines()
        header = lines.index("path_id,side,theta,h_weight,steps_used")
        assert lines[header + 1:] == want
        sides = set(s.side.tolist())
        assert SIDE_CENSORED in sides and np.isnan(s.theta).any()
        assert (SIDE_KILLED in sides) == (kind == "star")

    def test_environment_sets_no_seed(self, capsys, monkeypatch):
        # The seed comes from --seed or a config key, else 0; earlier
        # versions also read PSSMP_SEED.
        argv = ("simulate", "--n-paths", "2", "--step", "5e-3")
        monkeypatch.delenv("PSSMP_SEED", raising=False)
        rc, plain, _ = run(capsys, *argv)
        assert rc == 0 and "# seed=0\n" in plain
        for env in ("77", "abc"):
            monkeypatch.setenv("PSSMP_SEED", env)
            rc, out, _ = run(capsys, *argv)
            assert rc == 0 and out == plain


class TestVerify:
    def test_json_report(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        rc, out, _ = run(
            capsys, "verify", "hitting", "--seed", "1", "--out", str(dest)
        )
        assert rc == 0
        report = json.loads(dest.read_text())
        assert report["schema"] == "report_v1"
        assert report["suite"] == "hitting"
        assert report["seed"] == 1
        for check in report["checks"]:
            assert {"name", "law", "status", "measured", "target", "tolerance"} <= set(check)
            assert check["status"] in ("pass", "fail", "finding")

    def test_unknown_suite(self, capsys):
        rc, _, err = run(capsys, "verify", "no-such-suite")
        assert rc == 2 and "suite" in err

    def test_run_suite_refuses_unknown_options(self):
        with pytest.raises(TypeError):
            run_suite("hitting", n_pathz=3)


class TestExitCodes:
    def test_usage_errors_are_2(self, capsys):
        assert run(capsys, "eval", "--law", "no-such-law")[0] == 2
        assert run(capsys, "eval", "--law", "psi", "--grid", "junk")[0] == 2
        assert run(capsys, "eval", "--law", "psi", "--alpha", "3.0")[0] == 2
        assert run(capsys, "eval", "--no-such-flag")[0] == 2
        # Non-finite numbers are refused before they reach a law (psi
        # printed nan rows for a nan mean normalization).
        assert run(capsys, "eval", "--law", "psi", "--jump-weight", "nan")[0] == 2
        assert run(capsys, "eval", "--law", "exit-one-sided", "--u", "inf")[0] == 2

    def test_one_sided_parameters_rejected_where_two_sided_needed(self, capsys):
        # rho = 1 - 1/alpha is a spectrally one-sided boundary.
        rc, _, err = run(
            capsys, "eval", "--law", "extrema-star", "--rho", repr(1.0 - 1.0 / 1.5)
        )
        assert rc == 2 and "two-sided" in err

    @pytest.mark.parametrize("weight", ["1e-310", "1e308"])
    def test_tail_grid_past_the_float_range_is_2(self, capsys, weight):
        # geomspace / c overflowed to inf at a tiny jump weight (a raw
        # LinAlgError from the fit, with LAPACK lines on stderr, then an
        # error naming only "x"); c itself overflows at a huge one.
        rc, out, err = run(capsys, "eval", "--law", "tails", "--jump-weight", weight)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"jump weight {float(weight):g}" in err and "[200, 2000]/c" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--grid", "2e305:2e305:2"),
            ("--jump-weight", "1e-3", "--grid", "3e305:3e305:2"),
        ],
    )
    def test_moments_past_the_gamma_range_are_3(self, capsys, flags):
        # log Gamma(k alpha) overflows here; a -log x fallback for it made
        # these rows print a moment of 0 with exit 0.
        rc, out, err = run(capsys, "eval", "--law", "expfun-moments", *flags)
        assert rc == 3 and out == "" and "exceeds the float range" in err

    @pytest.mark.parametrize(
        "flags",
        [("expfun-density", "--kind", "down"), ("hit-two-point", "--rho", "0.3")],
    )
    def test_law_refuses_flags_it_does_not_evaluate(self, capsys, flags):
        # There is no DOWN functional, and the two-point law is the
        # symmetric one: each printed another law under these flags.
        rc, out, err = run(capsys, "eval", "--law", *flags)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_budget_errors_are_3(self, capsys):
        rc, _, _ = run(
            capsys, "simulate", "--n-paths", "1", "--step", "1e-8"
        )
        assert rc == 3

    def test_path_count_over_the_cap_is_3(self, capsys, monkeypatch):
        # Refused by SimConfig: nothing is simulated or allocated.
        def no_run(*args):
            raise AssertionError("simulate_exit was called")

        monkeypatch.setattr(pssmp.cli, "simulate_exit", no_run)
        rc, out, err = run(capsys, "simulate", "--n-paths", "10000000000000")
        assert rc == 3 and out == ""
        assert err.startswith("error:") and "path cap" in err

    def test_worker_failure_is_3(self, capsys, monkeypatch):
        def lost_worker(*args):
            raise WorkerError("the worker for path chunk 1 was killed by signal 9")

        monkeypatch.setattr(pssmp.cli, "simulate_exit", lost_worker)
        rc, out, err = run(capsys, "simulate", "--n-paths", "1000")
        assert rc == 3 and out == "" and "chunk 1" in err

    def test_verify_montecarlo_with_every_path_killed_is_3(self, capsys):
        # No killed-kind path leaves the window, so there is no up fraction.
        # The seeds are found by simulating the suite's killed-kind run, so
        # they follow the streams whatever their layout.
        p, w = StableParams(1.5, 0.5), ExitWindow(-0.5, 0.5)
        cases = [
            (n_paths, seed)
            for n_paths in (1, 2)
            for seed in range(300)
            if np.all(
                simulate_exit(Kind.STAR, p, w, SimConfig(n_paths, 2e-3, seed)).side
                == SIDE_KILLED
            )
        ]
        assert sum(n == 1 for n, _ in cases) >= 3 and any(n == 2 for n, _ in cases)
        for n_paths, seed in cases:
            rc, out, err = run(
                capsys, "verify", "montecarlo",
                "--n-paths", str(n_paths), "--seed", str(seed),
            )
            assert rc == 3 and out == ""
            assert err.startswith("error:") and "n_paths" in err

    def test_verify_montecarlo_with_no_up_exit_is_3(self, capsys):
        # The one up-kind path leaves downwards: the KS check has no sample.
        # The suite runs it at seed + 1, with the suite's parameters below.
        for seed in (1, 3, 4, 5):
            up_run = simulate_exit(
                Kind.UP, StableParams(1.5, 0.5), ExitWindow(-0.5, 0.5),
                SimConfig(1, 2e-3, seed + 1),
            )
            assert up_run.side.tolist() == [SIDE_DOWN], seed
            rc, out, err = run(
                capsys, "verify", "montecarlo", "--n-paths", "1", "--seed", str(seed)
            )
            assert rc == 3 and out == ""
            assert "up-overshoot-ks" in err and "--n-paths" in err

    def test_seed_outside_64_bits_is_2(self, capsys):
        # Seeds are not masked: -1 and 2^64 - 1 would otherwise share a stream.
        for seed in ("-1", str(2**64)):
            rc, out, err = run(capsys, "simulate", "--n-paths", "2", "--seed", seed)
            assert rc == 2 and "seed" in err and out == ""
        top = str(2**64 - 1)
        rc, _, _ = run(
            capsys, "simulate", "--n-paths", "2", "--step", "5e-3", "--seed", top
        )
        assert rc == 0
        rc, _, err = run(capsys, "verify", "esscher", "--seed", "-1")
        assert rc == 2 and "seed" in err

    def test_barrier_overflow_in_simulate_is_2(self):
        src = os.path.dirname(os.path.dirname(pssmp.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "pssmp.cli", "simulate", "--u", "800"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and "overflow" in proc.stderr

    def test_increment_scale_overflow_in_simulate_is_2(self, capsys):
        rc, out, err = run(
            capsys, "simulate", "--alpha", "0.05", "--step", "1e16", "--n-paths", "2"
        )
        assert rc == 2 and out == "" and "overflow" in err

    def test_barrier_and_theta_next_to_zero_in_eval_are_finite(self, capsys):
        rc, out, _ = run(
            capsys, "eval", "--law", "exit-two-sided", "--kind", "star",
            "--direction", "down", "--v", "-1e-300", "--grid", "1e-300:1e-299:2",
        )
        assert rc == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(values) == 2 and all(math.isfinite(v) for v in values)

    def test_large_barriers_in_eval_are_finite(self, capsys):
        rc, out, _ = run(
            capsys, "eval", "--law", "exit-two-sided", "--u", "800", "--v", "-800"
        )
        assert rc == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert values and all(math.isfinite(v) for v in values)

    def test_triple_law_at_the_barrier_is_infinite(self, capsys):
        rc, out, _ = run(capsys, "eval", "--law", "triple-law", "--eta", "1")
        assert rc == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert values and all(v == math.inf for v in values)

    def test_triple_law_beyond_float_range_is_2(self, capsys):
        rc, out, err = run(capsys, "eval", "--law", "triple-law", "--v", "-800")
        assert rc == 2 and out == "" and "float range" in err

    def test_values_past_the_float_range_are_3(self, capsys):
        # Gamma(theta + alpha) overflows past theta = 171, the ratio psi
        # needs does not; E(I^-k) itself leaves the float range past k ~ 180.
        rc, out, _ = run(capsys, "eval", "--law", "psi", "--grid", "1:1000:3")
        assert rc == 0
        assert float(out.splitlines()[-1].split(",")[1]) == pytest.approx(74761.2370884, rel=1e-11)
        for law, grid in (("psi", "1:1e300:3"), ("expfun-moments", "1:1000:3")):
            rc, out, err = run(capsys, "eval", "--law", law, "--grid", grid)
            assert rc == 3 and out == "" and "float range" in err, (law, err)
        rc, out, _ = run(capsys, "eval", "--law", "expfun-moments", "--grid", "150:151:2")
        assert rc == 0 and out.splitlines()[-2].startswith("150,2.34589042228")

    def test_down_neg_scale_fn_past_exp_range(self, capsys):
        # W carries e^x for down-neg: e^x alone overflows past x = 709.78,
        # W itself only past x = 710.5 at alpha 1.5.
        rc, out, err = run(
            capsys, "eval", "--law", "scale-fn", "--case", "down-neg", "--grid", "0:800:3"
        )
        assert rc == 3 and out == "" and "float range" in err
        rc, out, _ = run(
            capsys, "eval", "--law", "scale-fn", "--case", "down-neg", "--grid", "709:710.4:3"
        )
        assert rc == 0
        values = [float(l.split(",")[1]) for l in out.splitlines()[-3:]]
        want = math.exp(710.4 - math.log(default_m(1.5)))
        assert math.isfinite(values[-1]) and values[-1] == pytest.approx(want, rel=1e-12)

    def test_down_neg_ruin_past_exp_range_is_finite(self, capsys):
        # A ratio of two scale-function values past the float range.
        rc, out, _ = run(
            capsys, "eval", "--law", "ruin", "--case", "down-neg", "--x", "800",
            "--grid", "0.5:2:3",
        )
        assert rc == 0
        for line in out.splitlines()[-3:]:
            y, value = map(float, line.split(","))
            assert value == pytest.approx(math.exp(-y), rel=1e-15)

    def test_grid_over_the_point_cap_is_3(self, capsys):
        rc, out, err = run(capsys, "eval", "--law", "psi", "--grid", "0:1:10000000000000")
        assert rc == 3 and out == "" and "cap" in err
        assert len(parse_grid("0:1:1000000")) == 10**6

    def test_non_numeric_grid_is_2(self, capsys):
        rc, out, err = run(capsys, "eval", "--law", "psi", "--grid", "0:1:x")
        assert rc == 2 and out == "" and "grid" in err

    def test_non_finite_grid_is_2(self, capsys):
        rc, out, err = run(
            capsys, "eval", "--law", "exit-two-sided", "--grid", "nan:1:3"
        )
        assert rc == 2 and out == "" and "finite" in err

    def test_hit_two_point_keeps_points_on_targets(self, capsys):
        # x = a has hit a at time 0 (probability 1), x = b has hit b (0).
        for grid, first, last in (("0.5:0.6:3", "1", None), ("1.9:2:3", None, "0")):
            rc, out, _ = run(
                capsys, "eval", "--law", "hit-two-point", "--a", "0.5", "--grid", grid
            )
            rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
            assert rc == 0 and len(rows) == 3
            assert first is None or rows[0][1] == first
            assert last is None or rows[-1][1] == last

    @pytest.mark.parametrize(
        "opts", [["--a", "2"], ["--a", "0.5", "--grid", "0.500000001:1:2"]]
    )
    def test_hit_two_point_equal_or_near_targets_are_2(self, capsys, opts):
        rc, out, err = run(capsys, "eval", "--law", "hit-two-point", *opts)
        assert rc == 2 and out == "" and "near-coincident" in err

    @pytest.mark.parametrize(
        "opts",
        [
            ["--b", "5e-324"],
            ["--a", "1e200", "--b", "2e200", "--grid", "1.2e200:1.8e200:3"],
            ["--a", "1e-300", "--b", "2e-300", "--grid", "1.2e-300:1.8e-300:3"],
        ],
    )
    def test_hit_two_point_at_extreme_scales(self, capsys, opts):
        rc, out, err = run(capsys, "eval", "--law", "hit-two-point", *opts)
        assert rc == 0, err
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert rows and all(0.0 <= float(l.split(",")[1]) <= 1.0 for l in rows)

    def test_hit_two_point_is_scale_invariant(self, capsys):
        def values(*opts):
            _, out, _ = run(capsys, "eval", "--law", "hit-two-point", *opts)
            rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
            return [float(l.split(",")[1]) for l in rows]

        unit = values("--a", "1", "--b", "2", "--grid", "1.2:1.8:3")
        big = values("--a", "1e200", "--b", "2e200", "--grid", "1.2e200:1.8e200:3")
        assert big == pytest.approx(unit, rel=1e-14)

    @pytest.mark.parametrize("which", ["max", "min"])
    def test_extrema_star_beyond_float_range_is_inf(self, capsys, which):
        rc, out, err = run(
            capsys, "eval", "--law", "extrema-star", "--alpha", "0.02",
            "--rho", "0.5", "--which", which, "--grid", "5e-324:1:2",
        )
        assert rc == 0, err
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert rows[0][1] == "inf" and 0.0 < float(rows[1][1]) < math.inf

    @pytest.mark.parametrize(
        "opts",
        [
            ("expfun-density", "--kind", "star", "--alpha", "1.7", "--grid", "0.01:0.1:3"),
            ("expfun-density", "--kind", "star", "--alpha", "1.9", "--grid", "0.001:0.01:3"),
            ("entrance-density", "--alpha", "1.99", "--t", "0.25", "--grid", "20:2000:3"),
        ],
    )
    def test_series_rows_without_digits_are_3(self, capsys, opts):
        # Each grid has a point where the series cancels to a meaningless
        # value whose honest error bound exceeds it; no row is printed.
        rc, out, err = run(capsys, "eval", "--law", *opts)
        assert rc == 3 and "error bound" in err
        assert out == ""

    @pytest.mark.parametrize(
        "opts",
        [
            ("expfun-density", "--kind", "star", "--alpha", "1.2", "--grid", "0.05:0.2:3"),
            ("expfun-density", "--kind", "up", "--alpha", "1.5", "--grid", "0.001:0.01:3"),
            ("entrance-density", "--alpha", "1.5", "--t", "0.01", "--grid", "20:2000:3"),
        ],
    )
    def test_series_overflow_is_3(self, capsys, opts):
        # Terms past the float range end the series as not converged.
        rc, _, err = run(capsys, "eval", "--law", *opts)
        assert rc == 3 and "did not converge" in err

    @pytest.mark.parametrize(
        "opts, names",
        [
            (
                ("entrance-density", "--alpha", "1.5", "--t", "1"),
                "entrance density at x=5e-324",
            ),
            (
                ("expfun-density", "--kind", "star", "--alpha", "1.2"),
                "density of I* at x=5e-324",
            ),
        ],
    )
    def test_subnormal_x_is_2_and_names_x(self, capsys, opts, names):
        # t/x, or the Jacobian x^(-1-1/alpha), exceeds the float range.
        rc, out, err = run(capsys, "eval", "--law", *opts, "--grid", "5e-324:1e-300:2")
        assert rc == 2 and out == ""
        assert err.startswith("error:") and names in err

    @pytest.mark.parametrize(
        "opts,grid,first",
        [
            # y^-k is past the float range at y = 5e-324 (the row was nan).
            (("--alpha", "1.99", "--a", "1e-300", "--x", "1e-308"), "5e-324:1e-300:2", "inf"),
            # y + a overflows, the density does not (both rows were nan).
            (("--alpha", "1.5", "--a", "1e308", "--x", "1e300"), "1e308:1.7e308:2", None),
        ],
    )
    def test_rogozin_density_at_the_float_range_is_0(self, capsys, opts, grid, first):
        rc, out, err = run(
            capsys, "eval", "--law", "rogozin-density", *opts, "--grid", grid
        )
        assert rc == 0 and err == ""
        values = [l.split(",")[1] for l in out.splitlines()[-2:]]
        assert "nan" not in values
        assert all(float(v) > 0.0 for v in values)
        if first is not None:
            assert values[0] == first

    def test_triple_law_next_to_its_pole_is_0(self, capsys):
        # theta + phi = 1e-300 raised a raw OverflowError (a traceback).
        rc, out, err = run(
            capsys, "eval", "--law", "triple-law", "--case", "up-neg", "--alpha", "1.5",
            "--v", "-1", "--eta", "0", "--phi", "1e-300", "--grid", "0:1e-300:2",
        )
        assert rc == 0 and err == ""
        assert [l.split(",")[1] for l in out.splitlines()[-2:]] == ["inf", "inf"]

    def test_triple_law_at_a_deep_barrier(self, capsys):
        # The kernel's product underflowed before the division by K and
        # printed 0 for both rows; the values are a 100-digit mpmath
        # evaluation of the same law.
        rc, out, err = run(
            capsys, "eval", "--law", "triple-law", "--case", "up-neg", "--alpha", "1.5",
            "--v", "-600", "--eta", "300", "--phi", "300", "--grid", "0.5:1:2",
        )
        assert rc == 0 and err == ""
        values = [float(l.split(",")[1]) for l in out.splitlines()[-2:]]
        want = [1.618259776561164e-66, 7.644117920936417e-67]
        assert values == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_missing_config_file_is_2(self, capsys):
        assert run(capsys, "eval", "--law", "psi", "--config", "/nope.cfg")[0] == 2

    def test_config_file_not_utf8_is_2(self, capsys, tmp_path):
        # It used to escape as a UnicodeDecodeError traceback with exit 1.
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"alpha=1.5\n\xff\xfe\n")
        rc, out, err = run(capsys, "eval", "--law", "psi", "--config", str(cfg))
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "UTF-8" in err


@functools.cache
def _reference_parser():
    """argparse built from _OPTIONS: the parser the command line used to be."""
    parser = argparse.ArgumentParser(prog="pssmp")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "simulate", "verify"):
        sp = sub.add_parser(name)
        for dest, (spec, _) in _OPTIONS.items():
            check = {"choices": spec} if isinstance(spec, tuple) else {"type": spec}
            if dest == "suite":
                if name == "verify":
                    sp.add_argument("suite", nargs="?", default=None, **check)
                continue
            sp.add_argument("--" + dest.replace("_", "-"), default=None, **check)
        sp.add_argument("--config", default=None)
    return parser


def _reference(argv):
    return vars(_reference_parser().parse_args(argv))


_FLAG_KEYS = [k for k in _OPTIONS if k != "suite"] + ["config"]
_FLAGS = ["--" + k.replace("_", "-") for k in _FLAG_KEYS] + ["--help"]


def _unique_prefixes(flag):
    """The abbreviations of ``flag`` that name it alone, and the flag itself."""
    return [
        flag[:n]
        for n in range(3, len(flag) + 1)
        if flag[:n] == flag or [f for f in _FLAGS if f.startswith(flag[:n])] == [flag]
    ]


def _values(key):
    """Values of ``key`` that argparse takes after a space too: no
    exponent notation on negative numbers, no text starting with '-'."""
    spec = _OPTIONS[key][0] if key in _OPTIONS else str
    if isinstance(spec, tuple):
        return st.sampled_from(spec)
    if spec is _finite:
        return st.floats(-1e6, 1e6).map(lambda v: f"{v:.6f}")
    if spec is _integer:
        return st.integers(-(10**20), 10**20).map(str)
    if key == "law":
        return st.sampled_from(LAWS)
    return st.text("abcdefgh0123456789:._/", min_size=1, max_size=12)


class TestParser:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["eval", "simulate", "verify"]))
    def test_same_request_as_argparse(self, data, command):
        # Any order, space or '=' form, unique prefixes; a repeated flag
        # keeps its last value.
        keys = data.draw(st.lists(st.sampled_from(_FLAG_KEYS), max_size=12))
        groups = []
        for key in keys:
            flag = data.draw(st.sampled_from(_unique_prefixes("--" + key.replace("_", "-"))))
            value = data.draw(_values(key))
            groups.append([f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value])
        if command == "verify" and data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(groups)))
            groups.insert(at, [data.draw(st.sampled_from(SUITES + ("all",)))])
        argv = [command] + [t for g in groups for t in g]
        assert vars(_parse(argv)) == _reference(argv)

    @pytest.mark.parametrize("command", ["eval", "simulate", "verify"])
    @pytest.mark.parametrize("form", ["space", "equals"])
    def test_every_option_at_once(self, command, form):
        plain = {_finite: "-0.25", _integer: "7", str: "x:1"}
        values = {
            k: spec[0] if isinstance(spec, tuple) else plain[spec]
            for k, (spec, _) in _OPTIONS.items()
            if k != "suite"
        }
        values["config"] = "run.cfg"
        argv = [command] + (["hitting"] if command == "verify" else [])
        for key, value in values.items():
            flag = "--" + key.replace("_", "-")
            argv += [f"{flag}={value}"] if form == "equals" else [flag, value]
        got = vars(_parse(argv))
        assert got == _reference(argv)
        assert all(got[k] is not None for k in values)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--alpha", "1.5"],
            ["frobnicate"],
            ["eval", "--no-such-flag", "1"],
            ["eval", "--c", "1"],
            ["eval", "--s=1"],
            ["eval", "--alpha"],
            ["eval", "--law", "--alpha", "1.2"],
            ["eval", "--kind", "sideways"],
            ["eval", "--alpha", "x1"],
            ["eval", "--alpha=nan"],
            ["simulate", "--seed", "1.5"],
            ["eval", "stray"],
            ["verify", "hitting", "scale"],
            ["eval", "--jump_weight", "2"],
            ["eval", "--c-plus", "1"],
            ["eval", "--c-minus", "1"],
        ],
    )
    def test_usage_errors_are_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        with pytest.raises(SystemExit) as refused:
            _reference_parser().parse_args(argv)
        assert refused.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["--he"], ["eval", "-h"], ["verify", "--alpha", "1", "--h"]]
    )
    def test_help_exits_0(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == "" and out.startswith("usage: pssmp")
        for name in [*_FLAGS, *LAWS, *SUITES]:
            assert name in out

    def test_negative_values_in_exponent_notation(self, capsys):
        # argparse refused the first form: its negative-number test does
        # not cover exponent notation.
        law = ("eval", "--law", "exit-two-sided", "--grid", "0.5:2:3")
        forms = (["--v", "-1e-3"], ["--v=-1e-3"], ["--v", "-0.001"])
        outs = [run(capsys, *law, *v) for v in forms]
        assert [rc for rc, _, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1] == outs[2][1] and "# v=-0.001\n" in outs[0][1]
        with pytest.raises(SystemExit):
            _reference_parser().parse_args(["eval", "--v", "-1e-3"])



# Other values of each option for the metadata test: every other choice,
# and for a number values that every law which reads it takes.
_OTHER_NUMBERS = {
    "alpha": ("1.2", "0.8"),
    "rho": ("0.4",),
    "jump_weight": ("2", "1e-310"),
    "u": ("0.7",),
    "v": ("-0.7",),
    "x": ("0.8",),
    "a": ("1.5",),
    "b": ("3",),
    "t": ("0.5",),
    "phi": ("1.5",),
    "eta": ("0.2",),
    "n_paths": ("50",),
    "step": ("2e-3",),
    "seed": ("1",),
}


def _rows(argv):
    """(exit code, the non-'#' lines) of a request, and its metadata keys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    lines = out.getvalue().splitlines()
    keys = {l[2:].partition("=")[0] for l in lines if l.startswith("# ")}
    return (rc, [l for l in lines if not l.startswith("#")]), keys


@pytest.mark.parametrize(
    "request_", [("eval", "--law", law) for law in LAWS] + [("simulate",)], ids=" ".join
)
def test_metadata_records_exactly_the_options_a_law_reads(request_):
    # A recorded option has a value that changes the rows or the exit code;
    # an option not recorded changes neither, whatever its value.  Earlier
    # versions recorded every stable parameter for every law: ruin recorded
    # rho, and exit-two-sided a jump weight, that changed nothing.
    plain, recorded = _rows(request_)
    assert plain[0] == 0
    for key, (spec, default) in _OPTIONS.items():
        if key in ("suite", "law", "grid", "out"):
            continue
        others = [v for v in spec if v != default] if isinstance(spec, tuple) else _OTHER_NUMBERS[key]
        flag = "--" + key.replace("_", "-")
        changed = [v for v in others if _rows(request_ + (flag, v))[0] != plain]
        if key in recorded:
            assert changed, f"{key} is recorded, but no value in {others} changes the output"
        else:
            assert not changed, f"{key} is not recorded, but {changed} changes the output"


class TestConfigPrecedence:
    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1.2\nrho=0.5\n")
        _, out, _ = run(
            capsys,
            "eval",
            "--law",
            "min-cdf-up",
            "--alpha",
            "1.8",
            "--config",
            str(cfg),
        )
        assert "# alpha=1.8" in out
        _, out2, _ = run(
            capsys, "eval", "--law", "min-cdf-up", "--config", str(cfg)
        )
        assert "# alpha=1.2" in out2

    @pytest.mark.parametrize(
        "line",
        [
            "alpah=1.2",
            "config=other.cfg",
            "kind=sideways",
            "case=nope",
            "direction=sideways",
            "alpha=abc",
            "seed=1.5",
            "m=nan",
            "c_plus=1",
            "c_minus=1",
        ],
    )
    def test_unknown_config_key_is_2(self, capsys, tmp_path, line):
        # Config values pass the same type and choice checks as flags.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc, out, err = run(
            capsys, "eval", "--law", "exit-two-sided", "--config", str(cfg)
        )
        assert rc == 2 and out == ""
        assert err.startswith("error:") and line.partition("=")[0] in err

    def test_config_suite_reaches_verify(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite=no-such-suite\n")
        rc, _, err = run(capsys, "verify", "--config", str(cfg))
        assert rc == 2 and "unknown suite 'no-such-suite'" in err

    def test_config_values_are_cast(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=star\ndirection=down\nu=2\ngrid=0.5:2:3\n")
        _, from_file, _ = run(
            capsys, "eval", "--law", "exit-two-sided", "--config", str(cfg)
        )
        _, from_flags, _ = run(
            capsys, "eval", "--law", "exit-two-sided", "--kind", "star",
            "--direction", "down", "--u", "2", "--grid", "0.5:2:3",
        )
        assert from_file == from_flags and "# direction=down" in from_file
        assert "# u=2\n" in from_file


# Every law answers a 3-point grid in a few milliseconds in-process, so the
# fuzz test draws from all of them.
_FUZZ_OPTIONS = (
    "kind", "case", "direction", "which", "alpha", "rho", "jump-weight",
    "u", "v", "x", "a", "b", "t", "phi", "eta", "grid",
)
_FUZZ_VALUES = (
    "1.5", "0.5", "-0.5", "0.3", "2", "1", "0", "-1", "1e-300", "1e-310", "5e-324",
    "1e200", "800", "-800",
    "nan", "inf", "-inf", "abc", "", "up", "down", "star", "max", "min",
    "up-neg", "down-neg", "down-pos", "0.2:2:3", "1:5:3:log", "0:1:1", "1:2:3:cubic",
    "0:1:x", "1:1000:3", "0:1e200:3", "0:800:3", "0:1:10000000000000", "3e305:3e305:2",
)


class TestFuzz:
    @settings(max_examples=75)
    @given(
        law=st.sampled_from(LAWS),
        options=st.dictionaries(
            st.sampled_from(_FUZZ_OPTIONS),
            st.tuples(st.sampled_from(_FUZZ_VALUES), st.booleans()),
            max_size=6,
        ),
    )
    # A side exponent rounded to 0 (a raw ValueError), log Gamma past the
    # float range (nan rows), a tail grid past it (a raw LinAlgError).
    @example(law="rogozin-density", options={"alpha": ("5e-324", True)})
    @example(law="exit-two-sided", options={"alpha": ("5e-324", False)})
    @example(law="extrema-star", options={"alpha": ("1e-320", True), "grid": ("0.5:1:2", True)})
    @example(law="tails", options={"jump-weight": ("1e-310", False)})
    def test_exit_code_is_documented(self, law, options):
        # Each option is given as a flag or as a config-file line.
        argv = ["eval", "--law", law]
        lines = []
        for name, (value, as_flag) in options.items():
            if as_flag:
                argv.append(f"--{name}={value}")
            else:
                lines.append(f"{name}={value}")
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv + ["--config", cfg])
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        rows = [l for l in out.getvalue().splitlines() if not l.startswith("#")]
        assert "nan" not in ",".join(rows)
