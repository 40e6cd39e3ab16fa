"""Shared pytest hooks: collect acceptance-criterion verdict lines and
echo them in the terminal summary, where output capture cannot hide them.
Also the one hypothesis profile of the suite: every property test draws
the same examples on every run, with no deadline, and sets only its own
``max_examples``."""

from hypothesis import settings

settings.register_profile("pssmp", derandomize=True, deadline=None)
settings.load_profile("pssmp")

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
