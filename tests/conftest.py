from contextlib import contextmanager
from time import perf_counter

import pytest

_verdicts: list[str] = []


@pytest.fixture
def criterion():
    """Context manager recording a PASS/FAIL verdict line per acceptance criterion.

    Lines are replayed in a terminal section after the run, where pytest's
    output capture cannot swallow them.
    """

    @contextmanager
    def _criterion(number, summary):
        start = perf_counter()
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            elapsed = perf_counter() - start
            _verdicts.append(f"criterion {number} {verdict} ({elapsed:.2f} s): {summary}")

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_verdicts):
        terminalreporter.write_line(line)
