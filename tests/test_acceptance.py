"""Acceptance gate: one test per criterion, each printing its verdict line."""

from pathlib import Path

import pytest

from fabius import selftest

GOLDEN = Path(__file__).parent / "data" / "table_n5_golden.txt"


def test_criterion_1_golden_table():
    result = selftest.criterion_1_golden_table()
    print(result.line())
    # the committed fixture and the in-package transcription must agree
    fixture_rows = GOLDEN.read_text().splitlines()
    fixture_scaled = tuple(int(row.split("\t")[1]) for row in fixture_rows)
    assert fixture_scaled == selftest.GOLDEN_LEVEL5_SCALED
    from fabius.cli import render_table

    assert render_table(5) == fixture_rows
    assert result.passed, result.detail


LATER_CRITERIA = selftest.all_criteria()[1:]


@pytest.mark.parametrize(
    "check",
    LATER_CRITERIA,
    ids=[f"criterion_{i}" for i, _ in enumerate(LATER_CRITERIA, start=2)],
)
def test_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail
