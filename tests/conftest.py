"""Shared test plumbing: collects acceptance-criterion outcomes for the summary, and
fails a test that runs past the ``faulthandler_timeout`` instead of letting it hang."""

import signal

import pytest

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion_report():
    """Callable recording one pass/fail line per acceptance criterion."""

    def _report(label: str, ok: bool, detail: str) -> None:
        line = f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail the test once it has run for ``faulthandler_timeout`` seconds (120).

    ``faulthandler`` only dumps the stacks; ``SIGALRM`` raises in the test itself,
    as soon as the interpreter next runs Python code.  Skipped where there is no
    ``SIGALRM``.
    """
    limit = int(float(item.config.getini("faulthandler_timeout") or 0))
    if limit <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"the test ran for more than {limit} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
