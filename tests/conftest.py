"""Surface the acceptance verdict lines after the run, capture or not."""

import pytest

from gates import walk


@pytest.fixture(scope="session")
def gates_below_256():
    """The four compiler gates over odd n in 9..255, walked once for every freeze that reads them."""
    return walk(range(9, 256, 2), penalty_hi=255)


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "VERDICT_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
