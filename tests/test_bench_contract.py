"""The benchmark's tracer must still find every library name it times, and
a traced round must stay self-consistent.

``bench/tracing.py`` wraps the functions listed in ``WRAPPED`` by name and
raises when one is missing, so a rename or deletion in ``src`` would fail
the traced benchmark run.  The traced run also fails when the layer self
times of a round do not add up to its span time, which happens when a
wrapped function runs off the main thread (the tracer keeps one span
stack).  These tests install the tracer here, where tier-1 runs, and change
nothing under ``bench/``.
"""

import importlib
import os

import pytest

import pssmp.stable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench(monkeypatch):
    """The bench modules, imported from the bench directory."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_tracer_wraps_every_listed_name(bench):
    tracing, _ = bench
    original = pssmp.stable.killed_resolvent_u
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for layer, names in tracing.WRAPPED.items():
            assert {f"{layer}.{name}" for name in names} <= set(tracer.calls)
        assert pssmp.stable.killed_resolvent_u is not original
    finally:
        tracer.uninstall()
    assert pssmp.stable.killed_resolvent_u is original


def _traced_paths_round(tracing, workloads, tmp_path):
    """The tiny paths op list of one seed, run and checked under a fresh Tracer;
    returns the tracer and the digest of each op's output."""
    ops = workloads.build("paths", 3, 0, 1, str(tmp_path), {}, tiny=True, pool={})
    tracer = tracing.Tracer()
    digests = []
    tracer.install()
    try:
        for i, op in enumerate(ops):
            out = tracer.run_op(i, op.label, op.run)
            op.check(out)
            digests.append(workloads.digest(op.canonical(out)))
    finally:
        tracer.uninstall()
    return tracer, digests


def test_traced_paths_rounds_repeat_and_add_up(bench, tmp_path):
    tracing, workloads = bench
    rounds = [_traced_paths_round(tracing, workloads, tmp_path) for _ in range(2)]
    (first, digests), (second, again) = rounds
    assert digests == again
    counts = [
        {k: v for k, v in tracing.layer_metrics(t, 0).items() if not k.endswith("_s")}
        for t in (first, second)
    ]
    assert counts[0] == counts[1]
    # Three simulate_exit runs of 50 paths; the refinement op calls none.
    assert counts[0]["montecarlo.paths"] == 50 * 3
    for tracer in (first, second):
        layers = tracing.layer_metrics(tracer, 0)
        attributed = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        in_spans = sum(covered for *_, covered in tracer.ops)
        assert abs(attributed - in_spans) <= 1e-6 * in_spans
