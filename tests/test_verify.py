"""The verify suites pass at their default seed and options."""

import functools

import pytest

from pssmp.verify import SUITES, report_passed, run_suite

# ``expfun`` is left out: it takes about 30 s, almost all of it in the
# series densities of the exponential functional, and joins these tests
# once the UP functional's density comes from Kanter's integral (ROADMAP
# item 4).
QUICK = [s for s in SUITES if s != "expfun"]

FIELDS = {"name", "law", "status", "measured", "target", "tolerance", "detail"}


@functools.cache
def _report(suite):
    return run_suite(suite)


@pytest.mark.parametrize("suite", QUICK)
def test_suite_passes(suite):
    """Every check passes or is a documented finding."""
    report = _report(suite)
    assert report["checks"]
    assert [c["name"] for c in report["checks"] if c["status"] == "fail"] == []
    assert report_passed(report)


def test_every_check_follows_the_one_pass_rule():
    """A check passes exactly when |measured - target| <= tolerance; every
    record carries its target, and no two checks share a name."""
    checks = [c for suite in QUICK for c in _report(suite)["checks"]]
    for c in checks:
        assert set(c) == FIELDS, c["name"]
        if c["status"] == "finding":
            assert c["tolerance"] is None, c["name"]
        else:
            passed = abs(c["measured"] - c["target"]) <= c["tolerance"]
            assert c["status"] == ("pass" if passed else "fail"), c["name"]
    names = [c["name"] for c in checks]
    assert len(names) == len(set(names))
