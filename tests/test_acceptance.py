"""Acceptance gate: one test per criterion, each printing its verdict line."""

from pathlib import Path

import pytest

from fabius import approximants, selftest, spectral

GOLDEN = Path(__file__).parent / "data" / "table_n5_golden.txt"


def test_criterion_1_golden_table():
    result = selftest.criterion_1_golden_table()
    print(result.line())
    assert result.index == 1
    assert selftest.criterion_1_golden_table.__name__.startswith("criterion_1_")
    # the committed fixture and the in-package transcription must agree
    fixture_rows = GOLDEN.read_text().splitlines()
    fixture_scaled = tuple(int(row.split("\t")[1]) for row in fixture_rows)
    assert fixture_scaled == selftest.GOLDEN_LEVEL5_SCALED
    from fabius.cli import render_table

    assert render_table(5) == fixture_rows
    assert result.passed, result.detail


LATER_CRITERIA = list(enumerate(selftest.all_criteria()[1:], start=2))


@pytest.mark.parametrize(
    "i, check", LATER_CRITERIA, ids=[f"criterion_{i}" for i, _ in LATER_CRITERIA]
)
def test_criterion(i, check):
    result = check()
    print(result.line())
    assert result.index == i
    assert check.__name__.startswith(f"criterion_{i}_")
    assert result.passed, result.detail


def test_criterion_7_catches_aliased_error(monkeypatch):
    # on q/32, synthesis terms 5 and 37 take equal values, so an error moved
    # between them cancels there; criterion 7 must still see it
    exact_coefficients = spectral.fourier_coefficients

    def perturbed(*args, **kwargs):
        fc = list(exact_coefficients(*args, **kwargs))
        fc[5] += 1e-6
        fc[37] -= 1e-6
        return tuple(fc)

    monkeypatch.setattr(spectral, "fourier_coefficients", perturbed)
    result = selftest.criterion_7_spectral_agreement()
    assert not result.passed, result.detail


@pytest.mark.parametrize(
    "edit,detail",
    [
        (lambda rows: rows[:-1], "row count 32 != 33"),
        (lambda rows: rows[:3] + ["x"] + rows[4:], "first mismatch at q=3: got 'x'"),
    ],
    ids=["row-dropped", "row-replaced"],
)
def test_criterion_1_reports_mismatch(monkeypatch, edit, detail):
    from fabius import cli

    table = cli.render_table
    monkeypatch.setattr(cli, "render_table", lambda n: edit(table(n)))
    result = selftest.criterion_1_golden_table()
    assert result.passed is False
    assert result.detail == detail


def test_criterion_8_reports_partition_mismatch(monkeypatch):
    counts = approximants.restricted_partitions

    def extra_count_at_3(m):
        return counts(m) + (1,) if m == 3 else counts(m)

    monkeypatch.setattr(approximants, "restricted_partitions", extra_count_at_3)
    result = selftest.criterion_8_step_convergence()
    assert result.passed is False
    assert result.detail.endswith("partition count mismatch at n=3, r=12")
