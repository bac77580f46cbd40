"""Shared fixtures: one-line reporting for the acceptance criteria."""

from collections.abc import Sequence

import pytest

CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Record and assert a single acceptance-criterion outcome."""

    def _report(
        number: int,
        description: str,
        ok: bool,
        elapsed: float,
        budget: float | None = None,
        failed: Sequence[str] = (),
    ) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({elapsed:.2f}s)"
        CRITERION_LINES.append(line)
        print(line)
        assert ok, "\n".join([line, *(f"failed check: {label}" for label in failed)])
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {number} took {elapsed:.2f}s, over the {budget:.0f}s budget"
            )

    return _report


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
