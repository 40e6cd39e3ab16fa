"""Run the benchmark over ten seeds and record the spread and baseline.

    python3 bench/baseline.py

For every workload in BENCHMARK.json, at its ``run_seconds``: untraced runs
at seeds 1-10, five more untraced runs at seed 1, and one traced run at
seed 1.  Writes ``bench/baseline.json`` with, per end-to-end metric, the
median, the quartiles and the spread (interquartile range over the median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them) across the
ten seeds and across the six runs at seed 1, the traced per-layer table,
and the host facts.  Exits 1 if a run fails or is incorrect.  A spread of a
third of the metric's bound or more is printed as a warning, not a
failure: on a shared 2-CPU host the calibrated latency of millisecond ops
drifts by up to 10% over minutes, which no run length here removes (see
RATIONALE.md).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402

SEEDS = range(1, 11)
REPEATS = 5
OUT = os.path.join(HERE, "baseline.json")


def one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print("   ", line, flush=True)
    return json.loads(lines[-1])


def spread(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    spec = bench_run.load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": bench_run.host_facts(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeded = [one(workload, seed, seconds, 0) for seed in SEEDS]
        repeats = [seeded[0]] + [one(workload, SEEDS[0], seconds, 0) for _ in range(REPEATS)]
        entry = {"end_to_end": {}}
        for name, bound in bounds.items():
            across = spread(seeded, name)
            steady = name == "setup_s" or across["spread"] < bound / 3.0
            entry["end_to_end"][name] = {
                "unit": seeded[0]["metrics"][name]["unit"], "bound": bound,
                "seeds": across, "seed1_repeats": spread(repeats, name),
            }
            print(f"{workload} {name}: median {across['median']:.6g} spread across seeds "
                  f"{across['spread']:.4f}, at seed 1 {entry['end_to_end'][name]['seed1_repeats']['spread']:.4f} "
                  f"(bound {bound}){'' if steady else '  above a third of the bound'}", flush=True)
        traced = one(workload, SEEDS[0], seconds, 1)
        runs = seeded + repeats[1:] + [traced]
        ok &= all(r["correct"] for r in runs)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["attempted"] = sum(r["attempted"] for r in seeded)
        entry["failed"] = sum(r["failed"] for r in seeded)
        report["workloads"][workload] = entry
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
