"""Shared test plumbing: suite timer, acceptance result reporting and template swaps."""

import time

import pytest

# Captured at collection import time so the budget check at the end of the
# suite covers collection plus every test before it.
SESSION_T0 = time.monotonic()

# One line per acceptance check, echoed after the pytest summary so the
# pass/fail lines are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[ACCEPTANCE] {name}: {status}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def replace_template():
    """Swap a template's split parts for the test, with the frame cache
    cleared on entry and exit so no swapped frame outlives it."""
    from emoharness import prompting  # here, so the suite timer starts before any package import

    with pytest.MonkeyPatch.context() as patch:

        def replace(template_id, parts):
            patch.setitem(prompting._TEMPLATE_PARTS, template_id, parts)
            prompting.frame.cache_clear()

        yield replace
    prompting.frame.cache_clear()
