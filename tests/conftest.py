import os
import sys

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (reaped: {pid or 'none, still running'})")


def pytest_terminal_summary(terminalreporter):
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(module, "CRITERION_LINES", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
