"""Acceptance checks runnable in-process (the CLI ``selftest`` command).

A criterion is a function decorated with ``@_criterion(name)`` that returns
``(passed, detail)``.  The decorator numbers it by its place in this module,
times it, fails it when that time reaches its optional budget and wraps its
verdict in a :class:`CriterionResult`, so calling a criterion returns that
result.  The pytest acceptance module runs the same functions one test per
criterion.  Tolerances and budgets are pinned here, not configurable.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import wraps
from itertools import zip_longest
from typing import NamedTuple

from . import approximants, coefficients, exact, spectral, stochastic
from .core import Dyadic, thue_morse_sign

__all__ = [
    "CriterionResult",
    "GOLDEN_LEVEL5_SCALED",
    "GOLDEN_LEVEL5_DENOMINATOR",
    "MC_SEED",
    "all_criteria",
    "run_all",
]

# Scaled values 33177600 * phi(q/32) for q = 0..32; the package's primary
# correctness anchor, transcribed once and treated as read-only.
GOLDEN_LEVEL5_SCALED = (
    33177600, 33177581, 33175312, 33152381, 33062400, 32842819, 32431088,
    31780819, 30873600, 29707219, 28283888, 26622019, 24768000, 22784381,
    20733712, 18662381, 16588800, 14515219, 12443888, 10393219, 8409600,
    6555581, 4893712, 3470381, 2304000, 1396781, 746512, 334781, 115200,
    25219, 2288, 19, 0,
)
GOLDEN_LEVEL5_DENOMINATOR = 33177600

MC_SEED = 20260809
MC_SAMPLES = 10 ** 6
MC_DEPTH = 40


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} criterion {self.index}: {self.name} ({self.detail})"
            f" [{self.elapsed_s:.3f}s]"
        )


_CRITERIA = []


def _criterion(name, budget_s=math.inf):
    """Register the decorated check as the next criterion, failed at ``budget_s``."""
    def register(check):
        index = len(_CRITERIA) + 1

        @wraps(check)
        def run() -> CriterionResult:
            start = time.perf_counter()
            passed, detail = check()
            elapsed = time.perf_counter() - start
            if elapsed >= budget_s:
                passed, detail = False, f"{detail}; runtime {elapsed:.3f}s >= {budget_s:g}s"
            return CriterionResult(index, name, passed, detail, elapsed)

        _CRITERIA.append(run)
        return run

    return register


@_criterion("level-5 golden table, byte-identical", budget_s=1.0)
def criterion_1_golden_table():
    from .cli import render_table  # local import: only this criterion uses the CLI

    lines = render_table(5)
    expected = [
        f"{q}\t{GOLDEN_LEVEL5_SCALED[q]}\t{Fraction(GOLDEN_LEVEL5_SCALED[q], GOLDEN_LEVEL5_DENOMINATOR)}"
        for q in range(33)
    ]
    if lines == expected:
        return True, f"33 rows, denominator {GOLDEN_LEVEL5_DENOMINATOR}"
    bad = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b), None)
    if bad is None:
        return False, f"row count {len(lines)} != {len(expected)}"
    return False, f"first mismatch at q={bad}: got {lines[bad]!r}"


@_criterion("integer numerators F[0..4]", budget_s=0.1)
def criterion_2_integer_numerators():
    F = coefficients.series_integer_numerators(coefficients.series_coefficients(4))
    return F == (1, 1, 19, 2915, 2788989), str(F)


@_criterion("derivative functional equation on q/2^6")
def criterion_3_functional_equation():
    bad = 0
    for q in range(-64, 65):
        t = Dyadic(q, 6)
        lhs = exact.phi_derivative(1, t)
        rhs = 2 * (
            exact.phi_exact(t.mul_pow2(1) + 1) - exact.phi_exact(t.mul_pow2(1) - 1)
        )
        if lhs != rhs:
            bad += 1
    return bad == 0, f"129 points, {bad} mismatches"


@_criterion("reflection and evenness on q/2^10")
def criterion_4_reflection_evenness():
    bad = 0
    for q in range(0, 1025):
        t = Dyadic(q, 10)
        if exact.phi_exact(t) + exact.phi_exact(t - 1) != 1:
            bad += 1
        if exact.phi_exact(t) != exact.phi_exact(-t):
            bad += 1
    return bad == 0, f"1025 points, {bad} mismatches"


@_criterion("moment route equality and phi(1-1/8) = 1/288")
def criterion_5_moment_routes():
    details = []
    c = coefficients.series_coefficients(5)
    for n in range(0, 11, 2):
        if coefficients.moment(n) != c[n // 2] / 2:
            details.append(f"even-order mismatch at n={n}")
    lhs = coefficients.phi_near_one(3)
    rhs = coefficients.phi_near_one_from_series(1)
    if not (lhs == rhs == Fraction(1, 288)):
        details.append(f"phi(1-2^-3): {lhs} vs {rhs}")
    return not details, (
        "; ".join(details) if details
        else "even orders 0..10 and both near-one routes agree"
    )


@_criterion("derivative cascade at odd q, n <= 6")
def criterion_6_derivative_cascade():
    bad = 0
    points = 0
    for n in range(1, 7):
        for q in range(-(1 << n) + 1, 1 << n, 2):
            points += 1
            t = Dyadic(q, n)
            lead = exact.phi_derivative(n, t)
            if abs(lead) != 1 << (n * (n + 1) // 2):
                bad += 1
            for k in range(n + 1, n + 11):
                if exact.phi_derivative(k, t) != 0:
                    bad += 1
    return bad == 0, f"{points} centers, {bad} violations"


# On q/128 no two of the 64 synthesis terms agree at every point (their
# frequencies 2k + 1 < 128 differ modulo 256, also up to sign), so an error
# moved between two terms shows; on q/32 terms k, k + 32 and 31 - k alias.
@_criterion("Fourier synthesis matches exact values")
def criterion_7_spectral_agreement():
    fc = spectral.fourier_coefficients(K=64, m_max=60)
    worst = max(
        abs(spectral.phi_fourier(q / 128, fc) - float(exact.phi_exact(Dyadic(q, 7))))
        for q in range(-128, 129)
    )
    signs_ok = all(
        (fc[k] > 0) == (thue_morse_sign(k) > 0) for k in range(16)
    )
    return worst <= 1e-10 and signs_ok, (
        f"max err {worst:.2e}, first 16 signs {'ok' if signs_ok else 'WRONG'}"
    )


@_criterion("step-function convergence")
def criterion_8_step_convergence():
    problems = []
    envelope = []
    for m in range(3, 9):
        sf = approximants.step_function(m)
        if not sf.is_unimodal():
            problems.append(f"m={m} not unimodal")
        if sf.integral() != 1:
            problems.append(f"m={m} integral {sf.integral()}")
        dev = max(
            abs(sf.value_at(Dyadic(q, 5)) - exact.phi_exact(Dyadic(q, 5)))
            for q in range(-32, 33)
        )
        envelope.append(dev)
    for i in range(1, len(envelope)):
        if envelope[i] > envelope[i - 1]:
            problems.append(
                f"envelope increases m={i + 2}->{i + 3}: "
                f"{float(envelope[i - 1]):.6f} -> {float(envelope[i]):.6f}"
            )
    if envelope[-1] >= Fraction(1, 50):
        problems.append(f"m=8 deviation {float(envelope[-1]):.6f} >= 0.02")
    for n in range(0, 6):
        counts = approximants.restricted_partitions(n)
        poly = approximants.partition_polynomial(n)
        if counts != poly:
            pairs = enumerate(zip_longest(counts, poly))
            r = next(r for r, (a, b) in pairs if a != b)
            problems.append(f"partition count mismatch at n={n}, r={r}")
    detail = (
        "envelope " + ", ".join(f"{float(d):.6f}" for d in envelope)
        + ("; " + "; ".join(problems) if problems else "")
    )
    return not problems, detail


@_criterion("Monte Carlo agreement and reproducibility", budget_s=30.0)
def criterion_9_monte_carlo():
    problems = []
    targets = {
        -0.75: Fraction(5, 72),
        -0.5: Fraction(1, 2),
        -0.25: Fraction(67, 72),
    }
    estimates = {}
    for x, target in targets.items():
        est = estimates[x] = stochastic.mc_phi(x, MC_SAMPLES, MC_DEPTH, MC_SEED)
        gap = abs(est.estimate - float(target))
        if gap > 4 * est.stderr:
            problems.append(f"x={x}: |{est.estimate:.6f} - {float(target):.6f}| > 4 stderr")
    again = stochastic.mc_phi(-0.5, MC_SAMPLES, MC_DEPTH, MC_SEED)
    if again.estimate != estimates[-0.5].estimate:
        problems.append("rerun not bit-identical")
    return not problems, "; ".join(problems) if problems else "3 points within 4 stderr"


@_criterion("partition-of-unity and lattice identities")
def criterion_10_lattice_identities():
    problems = []
    fc = spectral.fourier_coefficients()
    for n in (1, 2, 3):
        worst = max(
            abs(spectral.translate_sum(-0.95 + 0.1 * j, 1 / n, fc) - n)
            for j in range(20)
        )
        if worst > 1e-9:
            problems.append(f"unity sum n={n}: err {worst:.2e}")
    for a in (0.5, 0.75, 1.0):
        lhs, rhs = spectral.poisson_check(a)
        if abs(lhs - rhs) > 1e-8:
            problems.append(f"lattice identity a={a}: |{lhs} - {rhs}|")
    return not problems, (
        "; ".join(problems) if problems else "n in {1,2,3} and a in {1/2,3/4,1} agree"
    )


def all_criteria():
    return tuple(_CRITERIA)


def run_all(emit=print) -> list[CriterionResult]:
    results = []
    for check in all_criteria():
        result = check()
        results.append(result)
        emit(result.line())
    return results
