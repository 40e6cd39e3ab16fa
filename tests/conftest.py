"""Shared pytest hooks: collect acceptance-criterion verdict lines and
echo them in the terminal summary, where output capture cannot hide them.
Also the one hypothesis profile of the suite: every property test draws
the same examples on every run, with no deadline, and sets only its own
``max_examples``; and the one contract of a verify check record."""

from hypothesis import settings

settings.register_profile("pssmp", derandomize=True, deadline=None)
settings.load_profile("pssmp")

CRITERION_LINES = []

FIELDS = {"name", "law", "status", "measured", "target", "tolerance", "detail"}


def assert_record_contract(checks):
    """Every record has the seven fields; a check passes exactly when
    |measured - target| <= tolerance (a NaN fails); a finding has a null
    tolerance; and no two records share a name."""
    for c in checks:
        assert set(c) == FIELDS, c["name"]
        if c["status"] == "finding":
            assert c["tolerance"] is None, c["name"]
        else:
            passed = abs(c["measured"] - c["target"]) <= c["tolerance"]
            assert c["status"] == ("pass" if passed else "fail"), c["name"]
    names = [c["name"] for c in checks]
    assert len(names) == len(set(names))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
