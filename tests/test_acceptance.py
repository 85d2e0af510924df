"""Acceptance gate: one test per criterion, each printing its verdict line."""

from fractions import Fraction
from pathlib import Path

import pytest

from fabius import approximants, coefficients, exact, selftest, spectral, stochastic
from fabius.core import Dyadic

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


def test_criterion_3_reports_mismatch(monkeypatch):
    derivative = exact.phi_derivative

    def wrong_at_5_64(k, t):
        return derivative(k, t) + 1 if t == Dyadic(5, 6) else derivative(k, t)

    monkeypatch.setattr(exact, "phi_derivative", wrong_at_5_64)
    result = selftest.criterion_3_functional_equation()
    assert (result.passed, result.detail) == (False, "129 points, 1 mismatches")


def test_criterion_4_reports_mismatch(monkeypatch):
    # -3/1024 breaks the reflection at q = 1021 and the evenness at q = 3
    value = exact.phi_exact
    monkeypatch.setattr(
        exact, "phi_exact", lambda t: value(t) + 1 if t == Dyadic(-3, 10) else value(t)
    )
    result = selftest.criterion_4_reflection_evenness()
    assert (result.passed, result.detail) == (False, "1025 points, 2 mismatches")


def test_criterion_5_reports_mismatch(monkeypatch):
    moment = coefficients.moment
    near_one = coefficients.phi_near_one
    monkeypatch.setattr(coefficients, "moment", lambda n: moment(n) + (n == 4))
    monkeypatch.setattr(
        coefficients, "phi_near_one", lambda k: Fraction(1, 289) if k == 3 else near_one(k)
    )
    result = selftest.criterion_5_moment_routes()
    assert (result.passed, result.detail) == (
        False, "even-order mismatch at n=4; phi(1-2^-3): 1/289 vs 1/288"
    )


def test_criterion_6_reports_violations(monkeypatch):
    derivative = exact.phi_derivative

    def broken(k, t):
        if (k, t) == (1, Dyadic(1, 1)):
            return 2 * derivative(k, t)  # leading derivative off its 2^C(n+1,2)
        if (k, t) == (5, Dyadic(-3, 2)):
            return Fraction(1)  # nonzero above order n
        return derivative(k, t)

    monkeypatch.setattr(exact, "phi_derivative", broken)
    result = selftest.criterion_6_derivative_cascade()
    assert (result.passed, result.detail) == (False, "126 centers, 2 violations")


def test_criterion_8_reports_every_convergence_problem(monkeypatch):
    class Flat:
        # value 1 everywhere deviates by 1 from phi(+-1) = 0
        def is_unimodal(self):
            return False

        def integral(self):
            return 2

        def value_at(self, t):
            return 1

    step_function = approximants.step_function
    monkeypatch.setattr(
        approximants, "step_function", lambda m: Flat() if m == 8 else step_function(m)
    )
    result = selftest.criterion_8_step_convergence()
    assert (result.passed, result.detail) == (
        False,
        "envelope 0.072591, 0.010091, 0.001085, 0.000597, 0.000109, 1.000000"
        "; m=8 not unimodal; m=8 integral 2"
        "; envelope increases m=7->8: 0.000109 -> 1.000000"
        "; m=8 deviation 1.000000 >= 0.02",
    )


def _exact_mc(monkeypatch, shifts):
    """Make mc_phi return phi(x) plus the next shift, with stderr 1e-3."""
    shifts = iter(shifts)

    def estimate(x, samples, depth, seed):
        value = float(exact.phi_exact(Fraction(x))) + next(shifts)
        return stochastic.McEstimate(x, samples, depth, value, 1e-3, seed)

    monkeypatch.setattr(stochastic, "mc_phi", estimate)


def test_criterion_9_reports_bias_and_rerun(monkeypatch):
    # calls: -0.75, -0.5, -0.25, then the rerun of -0.5
    _exact_mc(monkeypatch, [0.01, 0.0, 0.0, 1e-9])
    result = selftest.criterion_9_monte_carlo()
    assert (result.passed, result.detail) == (
        False, "x=-0.75: |0.079444 - 0.069444| > 4 stderr; rerun not bit-identical"
    )


def test_criterion_10_reports_identity_errors(monkeypatch):
    translate_sum = spectral.translate_sum
    poisson_check = spectral.poisson_check
    monkeypatch.setattr(
        spectral,
        "translate_sum",
        lambda t, u, fc: translate_sum(t, u, fc) + (1e-6 if u == 1 / 2 else 0.0),
    )
    monkeypatch.setattr(
        spectral, "poisson_check", lambda a: (1.0, 1.5) if a == 0.75 else poisson_check(a)
    )
    result = selftest.criterion_10_lattice_identities()
    assert (result.passed, result.detail) == (
        False, "unity sum n=2: err 1.00e-06; lattice identity a=0.75: |1.0 - 1.5|"
    )


# each selftest tolerance against an error injected 10% inside it and 10% past
# it: the criterion passes the first and fails the second, so a loosened or a
# tightened bound fails here
INSIDE_OR_PAST = pytest.mark.parametrize("scale", [0.9, 1.1], ids=["inside", "past"])


@INSIDE_OR_PAST
def test_criterion_7_tolerance(monkeypatch, scale):
    # the synthesis is exact at t = 1/2 and at most 9.5e-12 off elsewhere
    error = scale * 1e-10
    phi_fourier = spectral.phi_fourier
    monkeypatch.setattr(
        spectral, "phi_fourier", lambda t, fc: phi_fourier(t, fc) + (error if t == 0.5 else 0.0)
    )
    result = selftest.criterion_7_spectral_agreement()
    assert (result.passed, result.detail) == (
        scale < 1, f"max err {error:.2e}, first 16 signs ok"
    )


@INSIDE_OR_PAST
def test_criterion_10_tolerance(monkeypatch, scale):
    # the unity sums are at most 9e-16 off; both sides of the lattice identity
    # at a = 1/2 are exactly 1.0
    unity_error, lattice_error = scale * 1e-9, scale * 1e-8
    translate_sum = spectral.translate_sum
    poisson_check = spectral.poisson_check

    def shifted(a):
        lhs, rhs = poisson_check(a)
        return (lhs, rhs + lattice_error) if a == 0.5 else (lhs, rhs)

    monkeypatch.setattr(
        spectral,
        "translate_sum",
        lambda t, u, fc: translate_sum(t, u, fc) + (unity_error if u == 1 / 2 else 0.0),
    )
    monkeypatch.setattr(spectral, "poisson_check", shifted)
    result = selftest.criterion_10_lattice_identities()
    problems = (
        f"unity sum n=2: err {unity_error:.2e}; "
        f"lattice identity a=0.5: |1.0 - {1.0 + lattice_error}|"
    )
    assert (result.passed, result.detail) == (
        (True, "n in {1,2,3} and a in {1/2,3/4,1} agree") if scale < 1 else (False, problems)
    )


@pytest.mark.parametrize(
    "check, budget, detail",
    [
        (selftest.criterion_1_golden_table, 1.0, "33 rows, denominator 33177600"),
        (selftest.criterion_2_integer_numerators, 0.1, "(1, 1, 19, 2915, 2788989)"),
        (selftest.criterion_9_monte_carlo, 30.0, "3 points within 4 stderr"),
    ],
    ids=["criterion_1", "criterion_2", "criterion_9"],
)
def test_criterion_fails_at_its_budget(monkeypatch, check, budget, detail):
    _exact_mc(monkeypatch, [0.0] * 4)  # criterion 9 passes without sampling
    with monkeypatch.context() as clock:
        clock.setattr(selftest.time, "perf_counter", iter([0.0, budget]).__next__)
        result = check()
    assert not result.passed
    assert result.elapsed_s == budget
    assert result.detail == f"{detail}; runtime {budget:.3f}s >= {budget:g}s"
