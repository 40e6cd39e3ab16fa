"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload {interactive,paths} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each round runs an op list drawn from
(workload, seed, round index) in a fresh ``bench/worker.py`` process (so
scipy's lazy imports and ``scale._cached_K`` start cold, as for a CLI user)
against the checkout's ``src``, with BLAS and OpenMP pinned to one thread.
A run is a fixed number of rounds, S over the round time at the commit that
defined the benchmark, so a faster program measures the same inputs in less
time.  ``run_s`` is the mean round time: the run's simulate requests are
balanced over the whole run, not per round.  A few set-up-only processes
are added so that ``setup_s`` is a median of several.  Every op output is
checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs of round 0 and prints the per-layer metrics of the
traced ones plus ``trace_overhead_frac``.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A run is correct
when no op fails outside the failures known at the commit that defined the
benchmark and every recorded failing request still fails
(``workloads.expectation``).  On paths, two more checks judge the pooled
statistics of all the run's distinct rounds (``pooled.paths_checks``) and
count as ops.  Spans of traced rounds are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import pooled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 3
# Wall time of one round (worker start to exit) at the commit that defined
# the benchmark, on the host of bench/baseline.json; it only fixes how many
# rounds a run of S seconds has.
ROUND_S = {"interactive": 5.5, "paths": 4.4}
# Whole-invocation budget; a worker past it is killed and the run fails.
BUDGET_S = 170.0
# Percentile of op_tail_s per workload: the highest with >= 10 ops beyond
# it in a run at the commit that defined the benchmark that does not sit on
# the edge between two clusters of op types (paths: inside the simulations).
TAIL_PERCENTILE = {"interactive": 96.0, "paths": 70.0}

TIMED_UNITS = ("s", "1/s")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(Exception):
    pass


def load_spec():
    """BENCHMARK.json: metric names and units are defined there only."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env.pop("PSSMP_SEED", None)  # requests must not inherit a seed
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def percentile(xs, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def worker(args, deadline, *extra):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scratch", os.path.join(OUT, "tmp"),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f}s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def run(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "pssmp")):
        raise BenchError(f"no program source at {os.path.join(ROOT, 'src', 'pssmp')}")
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    hard_deadline = time.monotonic() + BUDGET_S

    setups = [worker(args, hard_deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    rounds_in_run = max(1, round(args.seconds / ROUND_S[args.workload]))
    n = 2 * max(1, rounds_in_run // 2) if args.trace else rounds_in_run
    rounds = []
    for i in range(n):
        # Traced runs repeat round 0, every other time traced, so that
        # traced and untraced rounds of one op list can be compared.
        traced = bool(args.trace) and i % 2 == 1
        extra = ["--round", str(0 if args.trace else i), "--rounds", str(rounds_in_run)]
        if traced:
            spans = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}-round{i}.json")
            extra += ["--trace", "--spans", spans]
        r = worker(args, hard_deadline, *extra)
        r["traced"] = traced
        rounds.append(r)
        setups.append(r["setup_s"])
    return setups, rounds


def summarize(args, spec, setups, rounds):
    plain = [r for r in rounds if not r["traced"]]
    ops = [
        (key, ok, failure, expect, why)
        for r in rounds
        for key, ok, failure, expect, why in zip(
            r["keys"], r["ok"], r["failures"], r["expect"], r["known"]
        )
    ]
    # Traced runs repeat round 0: pool each distinct round once.  A round
    # whose checks did not all run has already failed an op.
    pools = {}
    for r in rounds:
        if set(r["pool"]) == pooled.POOL_KEYS:
            pools.setdefault(r["round"], r["pool"])
    if args.workload == "paths":
        checks = pooled.paths_checks(list(pools.values())) if pools else [
            ("pooled paths checks", "no round produced its statistics")
        ]
        ops += [(key, failure is None, failure, "pass", "") for key, failure in checks]
    attempted = len(ops)
    failed = sum(not ok for _, ok, *_ in ops)
    unexpected = [
        f"UNEXPECTED {'FAILURE' if not ok else 'PASS'} [{key}]: {failure or why}"
        for key, ok, failure, expect, why in ops
        if (not ok and expect == "pass") or (ok and expect == "fail")
    ]
    known = {}
    for key, ok, _, expect, why in ops:
        if expect != "pass":
            counts = known.setdefault(why, [0, 0])
            counts[0] += 1
            counts[1] += not ok
    lines = [f"host {json.dumps(host_facts(), sort_keys=True)}"]
    lines.append(
        f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
        f"{attempted} ops, {failed} failed (failed_frac {failed / attempted:.4g})"
    )
    lines += [f"known defect: {bad} of {n} ops failed: {why}" for why, (n, bad) in known.items()]
    lines += unexpected
    if not args.trace:
        lat = [x for r in plain for x in r["latency_s"]]
        p = TAIL_PERCENTILE[args.workload]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.mean(r["run_s"] for r in plain),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": percentile(lat, p),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        beyond = sum(x > values["op_tail_s"] for x in lat)
        lat_raw = [x for r in plain for x in r["latency_raw_s"]]
        lines.append(
            f"op_tail_s is p{p:g} of {len(lat)} op latencies, {beyond} beyond it"
        )
        lines.append(
            "as measured, before calibration: "
            f"setup_s {statistics.median(r['setup_raw_s'] for r in plain):.6g}, "
            f"run_s {statistics.mean(r['run_raw_s'] for r in plain):.6g}, "
            f"op_p50_s {statistics.median(lat_raw):.6g}, "
            f"op_tail_s {percentile(lat_raw, p):.6g}"
        )
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        metrics = layer_summary(spec, rounds)
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def layer_summary(spec, rounds):
    """Per-layer metrics: counts must repeat exactly, times are medians."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    if any(r["digests"] != rounds[0]["digests"] for r in rounds):
        raise BenchError("traced and untraced rounds produced different outputs")
    overhead = statistics.median(r["run_s"] for r in traced) / statistics.median(
        r["run_s"] for r in plain
    ) - 1.0
    measured = dict(traced[0]["layers"], trace_overhead_frac=overhead)
    wanted = {m["name"] for m in spec["per_layer"]}
    if set(measured) != wanted:
        raise BenchError(
            f"per-layer metrics missing {sorted(wanted - set(measured))}, "
            f"unexpected {sorted(set(measured) - wanted)}"
        )
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_frac":
            value = overhead
        else:
            values = [r["layers"][name] for r in traced]
            if m["unit"] in TIMED_UNITS:
                value = statistics.median(values)
            elif any(v != values[0] for v in values):
                raise BenchError(f"per-layer count {name} differs between identical rounds")
            else:
                value = values[0]
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        setups, rounds = run(args)
        lines, result = summarize(args, spec, setups, rounds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
