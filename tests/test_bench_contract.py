"""The benchmark's tracer must still find every library name it times.

``bench/tracing.py`` wraps the functions listed in ``WRAPPED`` by name and
raises when one is missing, so a rename or deletion in ``src`` would fail
the traced benchmark run.  This test installs the tracer here, where tier-1
runs, and changes nothing under ``bench/``.
"""

import importlib
import os

import pssmp.stable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_wraps_every_listed_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    tracing = importlib.import_module("tracing")
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
