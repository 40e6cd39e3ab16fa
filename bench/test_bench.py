"""Fast tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each workload has a tiny instance (``worker.py --tiny``) that runs in a few
seconds; rounds run in fresh processes exactly as in the benchmark.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pooled  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _round(workload, seed, tmp_path, traced):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tiny", "--scratch", str(tmp_path)]
    if traced:
        cmd += ["--trace", "--spans", str(tmp_path / f"spans-{workload}.json")]
    proc = subprocess.run(cmd, env=bench_run.child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload, tmp_path):
    def keys(seed, round_=0):
        ops = workloads.build(workload, seed, round_, 10, str(tmp_path), {})
        return [(op.label, op.key) for op in ops]

    assert keys(11) == keys(11)
    # Different seeds, and different rounds of one seed, draw different lists.
    assert len({tuple(keys(seed)) for seed in range(10)}) > 1
    assert len({tuple(keys(11, r)) for r in range(10)}) > 1


def test_simulate_design_balances_levels_and_parameters_over_a_run():
    design = workloads.simulate_design(4, 8)
    assert [len(r) for r in design] == [6] * 8
    for step in ("0.001", "0.01"):
        reqs = [dict(zip(a[1::2], a[2::2])) for r in design for a in r if a[-5] == step]
        assert [q["--kind"] for q in reqs] == ["star", "up", "down"] * 8
        for u in ("0.25", "1.0", "3.0"):
            cell = [(q["--alpha"], q["--rho"], q["--v"]) for q in reqs if q["--u"] == u]
            assert len({(a, r) for a, r, _ in cell}) == len(cell) == 8
            assert all(2 <= [v for *_, v in cell].count(v) <= 3 for v in ("-0.25", "-1.0", "-3.0"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_round_matches_untraced_and_counts_repeat(workload, tmp_path):
    plain = _round(workload, 5, tmp_path, traced=False)
    first = _round(workload, 5, tmp_path, traced=True)
    second = _round(workload, 5, tmp_path, traced=True)
    for r in (plain, first):
        for ok, expect, failure in zip(r["ok"], r["expect"], r["failures"]):
            assert ok or expect != "pass", failure
            assert not ok or expect != "fail"
    assert plain["digests"] == first["digests"] == second["digests"]

    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    layers = first["layers"]
    assert layers["bench.unattributed_s"] > 0.0
    attributed = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    total = attributed + layers["bench.unattributed_s"]
    assert total == pytest.approx(layers["bench.traced_run_s"], rel=1e-6)
    with open(tmp_path / f"spans-{workload}.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    assert spans["ops"] and spans["functions"]


def test_layer_counts_come_from_returned_values(tmp_path):
    layers = _round("paths", 3, tmp_path, traced=True)["layers"]
    assert layers["montecarlo.paths"] == 50 * 3 + 50 * 2
    assert 0.0 < layers["stable.draw_utilization"] <= 1.0
    assert layers["stable.rng_streams"] == layers["montecarlo.paths"]
    assert layers["exit_laws.interpolant_build_s"] > 0.0


def test_known_failures_are_expected(tmp_path):
    refs = workloads.load_references()
    assert refs["failing"], "the recorded eval failures are part of the reference"
    ops = workloads.build("interactive", 2, 0, 1, str(tmp_path), refs)
    expect = {op.key: workloads.expectation(op, refs)[0] for op in ops}
    for key in refs["failing"]:
        op = workloads.Op("eval", key, None, None)
        assert workloads.expectation(op, refs)[0] == "fail"
    sims = [k for k in expect if k.startswith("simulate")]
    assert len(sims) == 6
    for key in sims:
        opt = dict(zip(key.split()[1::2], key.split()[2::2]))
        coarse = opt["--step"] == "0.01" or opt["--rho"] != "0.5"
        assert (expect[key] == "may-fail") == (coarse or (opt["--alpha"], opt["--u"]) == ("1.8", "3.0"))


def test_run_level_false_alarm_sets_each_band():
    assert pooled.z_crit(1) == pytest.approx(3.8906, abs=1e-4)
    assert pooled.z_crit(2) < pooled.z_crit(20) < pooled.z_crit(48)


def _pool(star_up, down_s=0.5):
    return {"star_target": 0.4, "star_exit": 1000, "star_up": star_up, "p_up": 0.4,
            "p_up_fine": 0.4, "down_s": down_s * 1000, "down_q": 1000 * down_s,
            "up_s": 500.0, "up_q": 500.0, "tilt_n": 1000}


def test_pooled_paths_checks_pass_the_target_and_flag_a_shift():
    assert [f for _, f in pooled.paths_checks([_pool(400)] * 10)] == [None, None]
    # 440 of 1000 in each round is 2.6 SE of one round, 8.2 SE of the ten.
    frac, tilt = pooled.paths_checks([_pool(440)] * 10)
    assert frac[1] and "star up fraction" in frac[1] and tilt[1] is None
    assert pooled.paths_checks([_pool(400, down_s=0.6)] * 10)[1][1]


def test_paths_round_fills_every_pooled_statistic(tmp_path):
    r = _round("paths", 3, tmp_path, traced=False)
    assert set(r["pool"]) == pooled.POOL_KEYS and r["round"] == 0


def test_missing_wrapped_name_raises(monkeypatch):
    monkeypatch.setitem(tracing.WRAPPED, "numerics", ("integrate_adaptive", "no_such_fn"))
    tr = tracing.Tracer()
    with pytest.raises(KeyError, match="numerics.no_such_fn"):
        tr.install()
    from pssmp import numerics, stable

    assert stable.integrate_adaptive is numerics.integrate_adaptive
    assert not hasattr(numerics.integrate_adaptive, "__wrapped__")


def test_uninstall_restores_every_site():
    from pssmp import montecarlo, numerics, scale, stable

    before = (scale.integrate_adaptive, montecarlo.increment_sampler, numerics.sum_series)
    tr = tracing.Tracer()
    tr.install()
    assert "pssmp.verify.integrate_adaptive" in tr.site_names()
    assert "pssmp.montecarlo.increment_sampler" in tr.site_names()
    assert "pssmp.expfun.sum_series" in tr.site_names()
    assert scale.integrate_adaptive is not before[0]
    tr.uninstall()
    assert (scale.integrate_adaptive, montecarlo.increment_sampler, numerics.sum_series) == before
    assert stable.integrate_adaptive is numerics.integrate_adaptive


def test_calibration_takes_out_kernel_time_and_scales():
    import worker

    speed = worker.SpeedSampler()
    ref = worker.CALIBRATION_REF_S
    speed.mid, speed.dur = [1.0, 2.0, 3.0], [2 * ref, 2 * ref, 2 * ref]
    # [1.5, 2.5] holds one pass; the host runs at half the reference speed.
    assert speed.busy(1.5, 2.5) == 2 * ref
    assert speed.calibrated(1.5, 2.5) == pytest.approx((1.0 - 2 * ref) / 2)


def test_benchmark_json_names_the_workloads_and_layer_metrics(tmp_path):
    spec = bench_run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = _round("paths", 3, tmp_path, traced=True)["layers"]
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(layers) | {"trace_overhead_frac"}


def test_percentile_matches_closest_rank_interpolation():
    xs = [float(i) for i in range(1, 101)]
    assert bench_run.percentile(xs, 50.0) == 50.5
    assert bench_run.percentile(xs, 90.0) == pytest.approx(90.1)
