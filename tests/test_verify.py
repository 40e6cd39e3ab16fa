"""The verify suites pass at their default seed and options."""

import pytest

from pssmp.verify import SUITES, report_passed, run_suite


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "expfun"])
def test_suite_passes(suite):
    """Every check passes or is a documented finding.

    ``expfun`` is left out: it takes about 30 s, almost all of it in the
    series densities of the exponential functional, and joins this test
    once the UP functional's density comes from Kanter's integral
    (ROADMAP item 4).
    """
    report = run_suite(suite)
    assert report["checks"]
    assert [c["name"] for c in report["checks"] if c["status"] == "fail"] == []
    assert report_passed(report)
