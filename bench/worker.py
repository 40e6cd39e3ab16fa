"""One benchmark round in a fresh process; prints a JSON result line.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 bench/worker.py --workload W --seed N [--round K --rounds R] [--trace]
                            [--setup-only] [--tiny] --scratch DIR

The clock starts before ``pssmp`` is imported, so ``setup_s`` covers the
package import (numpy, scipy) and building the op list.  ``run_s`` covers
the ops and their checks.  With ``--trace`` the layer wrappers are installed
after set-up and the round writes its spans to ``--spans``.

Times are reported as measured (``*_raw``) and calibrated.  The host's CPU
speed changes by up to 1.7x in phases lasting seconds, so while a round
runs, SIGALRM times ``calibration_kernel`` (scipy quad with a Python
integrand, numpy draws and float arithmetic, none of it from ``pssmp``)
every 50 ms in this process.  Each op's time, less the kernel time inside
it, is scaled by CALIBRATION_REF_S over the mean kernel time from 1 s
before to 1 s after the op: the seconds the op would take on a host where
the kernel takes CALIBRATION_REF_S.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

import workloads  # noqa: E402  (imports pssmp)

# Median time of one calibration_kernel pass on the host that recorded the
# baseline (2-CPU Intel Xeon host); it only sets the scale of calibrated times.
CALIBRATION_REF_S = 5.0e-4

_KERNEL_RNG = np.random.default_rng(0)


def calibration_kernel():
    """A fixed mix of the work the layers do, independent of the program."""
    for _ in range(3):
        integrate.quad(lambda x: math.exp(-x * x) / (1.0 + x), 0.0, 3.0)
    np.cumsum(_KERNEL_RNG.standard_exponential(4096))
    s = 0.0
    for i in range(4000):
        s += math.sqrt(i)
    return s


class SpeedSampler:
    """Times calibration_kernel every PERIOD s from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so a kernel pass
    interrupts whatever is timed; ``busy`` gives the time to take back out.
    """

    PERIOD = 0.05
    WINDOW = 1.0

    def __init__(self):
        self.mid, self.dur = [], []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.mid.append(0.5 * (t0 + t1))
        self.dur.append(t1 - t0)

    def __enter__(self):
        calibration_kernel()  # its first pass pays one-time costs
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, t0, t1):
        """Kernel time of the passes centred inside [t0, t1]."""
        return sum(self.dur[bisect.bisect_left(self.mid, t0):bisect.bisect_right(self.mid, t1)])

    def scale(self, t0, t1):
        """CALIBRATION_REF_S over the mean kernel time around [t0, t1]."""
        lo = bisect.bisect_left(self.mid, t0 - self.WINDOW)
        hi = bisect.bisect_right(self.mid, t1 + self.WINDOW)
        window = self.dur[lo:hi] or self.dur[-1:]
        return CALIBRATION_REF_S * len(window) / sum(window)

    def calibrated(self, t0, t1):
        """Calibrated duration of [t0, t1], kernel passes taken out."""
        return (t1 - t0 - self.busy(t0, t1)) * self.scale(t0, t1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not workloads.cli.__file__.startswith(src + os.sep):
        raise SystemExit(f"pssmp imported from {workloads.cli.__file__}, not {src}")

    os.makedirs(args.scratch, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="round-", dir=args.scratch)
    try:
        refs, pool = {}, {}
        ops = workloads.build(
            args.workload, args.seed, args.round, args.rounds, out_dir, refs, args.tiny, pool
        )
        ready = time.perf_counter()
        with SpeedSampler() as speed:
            if args.setup_only:
                time.sleep(0.3)  # let the sampler see this moment's speed
                result = {}
            else:
                # References only serve the checks; loading them is not set-up.
                refs.update(workloads.load_references())
                result = run_round(ops, args.trace, speed, refs)
                result.update(round=args.round, pool=pool)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    # Set-up ran before the sampler; it is scaled by the speed just after.
    result["setup_raw_s"] = ready - _T0
    result["setup_s"] = (ready - _T0) * speed.scale(ready, ready)
    if args.setup_only:
        print(json.dumps(result))
        return
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = result.pop("trace", None)
    if trace is not None and args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    sys.stdout.write(json.dumps(result) + "\n")


def run_round(ops, traced, speed, refs):
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    marks, ok, failures, digests = [], [], [], []
    rows = 0
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            out, failure = None, None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    out = tracer.run_op(i, op.label, op.run)
            except Exception as exc:  # any error of the program fails the op
                failure = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if failure is None:
                try:
                    rows += op.check(out) or 0
                except Exception as exc:  # CheckFailed, or a check that cannot run
                    failure = f"{type(exc).__name__}: {exc}"
            digests.append(workloads.digest(op.canonical(out)) if failure is None else None)
            marks.append((t0, t1, time.perf_counter()))
            ok.append(failure is None)
            failures.append(failure)
    finally:
        if tracer is not None:
            tracer.uninstall()
    end = time.perf_counter()
    time.sleep(0.3)  # samples after the last op, for its calibration window
    lat = [speed.calibrated(t0, t1) for t0, t1, _ in marks]
    lat_raw = [t1 - t0 - speed.busy(t0, t1) for t0, t1, _ in marks]
    run_raw = sum(t2 - t0 - speed.busy(t0, t2) for t0, _, t2 in marks)
    expect = [workloads.expectation(op, refs) for op in ops]
    result = {
        "run_s": sum(speed.calibrated(t0, t2) for t0, _, t2 in marks),
        "run_raw_s": run_raw,
        "labels": [op.label for op in ops],
        "keys": [op.key for op in ops],
        "latency_s": lat,
        "latency_raw_s": lat_raw,
        "ok": ok,
        "failures": failures,
        "expect": [e for e, _ in expect],
        "known": [why for _, why in expect],
        "digests": digests,
    }
    if tracer is not None:
        result["layers"] = traced_table(tracer, marks, rows, speed.scale(start, end))
        result["trace"] = tracer.dump()
    return result


def traced_table(tracer, marks, rows, scale):
    """Per-layer metrics of a traced round, with the benchmark's own time.

    Span times include the calibration-kernel passes that interrupted them,
    so the traced round time here does too.  ``bench.unattributed_s`` is
    measured on its own: op time outside the library spans (the tracer's
    root frames) plus check time.  With one scale for the round, layer self
    times + unattributed must equal the traced round time.
    """
    from tracing import LAYERS, layer_metrics

    layers = layer_metrics(tracer, rows, scale)
    run = sum(t2 - t0 for t0, _, t2 in marks)
    in_spans = sum(covered for *_, covered in tracer.ops)
    unattributed = run - in_spans
    attributed = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    if unattributed < 0.0 or abs(attributed - in_spans * scale) > 1e-6 * run * scale:
        raise RuntimeError(
            f"layer self times {attributed:.9g} s do not add up to the span time "
            f"{in_spans * scale:.9g} s (unattributed {unattributed * scale:.9g} s)"
        )
    layers["bench.traced_run_s"] = run * scale
    layers["bench.unattributed_s"] = unattributed * scale
    return layers


if __name__ == "__main__":
    main()
