"""Acceptance checks runnable in-process (the CLI ``selftest`` command).

Each criterion returns a :class:`CriterionResult`; the pytest acceptance
module wraps the same functions one test per criterion.  Tolerances are
pinned here, not configurable.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import lcm
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
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} criterion {self.index}: {self.name} ({self.detail})"
            f" [{self.elapsed:.3f}s]"
        )


def _result(index, name, start, passed, detail) -> CriterionResult:
    return CriterionResult(index, name, passed, detail, time.perf_counter() - start)


def criterion_1_golden_table() -> CriterionResult:
    from .cli import render_table  # local import: only this criterion uses the CLI

    start = time.perf_counter()
    lines = render_table(5)
    expected = [
        f"{q}\t{GOLDEN_LEVEL5_SCALED[q]}\t{Fraction(GOLDEN_LEVEL5_SCALED[q], GOLDEN_LEVEL5_DENOMINATOR)}"
        for q in range(33)
    ]
    elapsed = time.perf_counter() - start
    ok = lines == expected and elapsed < 1.0
    detail = f"33 rows, denominator {GOLDEN_LEVEL5_DENOMINATOR}, {elapsed:.3f}s"
    if lines != expected:
        bad = next(
            (i for i, (a, b) in enumerate(zip(lines, expected)) if a != b), None
        )
        if bad is None:
            detail = f"row count {len(lines)} != {len(expected)}"
        else:
            detail = f"first mismatch at q={bad}: got {lines[bad]!r}"
    return _result(1, "level-5 golden table, byte-identical", start, ok, detail)


def criterion_2_integer_numerators() -> CriterionResult:
    start = time.perf_counter()
    F = coefficients.series_integer_numerators(coefficients.series_coefficients(4))
    expected = (1, 1, 19, 2915, 2788989)
    elapsed = time.perf_counter() - start
    ok = F == expected and elapsed < 0.1
    return _result(2, "integer numerators F[0..4]", start, ok, f"{F}, {elapsed:.4f}s")


def criterion_3_functional_equation() -> CriterionResult:
    start = time.perf_counter()
    bad = 0
    for q in range(-64, 65):
        t = Dyadic(q, 6)
        lhs = exact.phi_derivative(1, t)
        rhs = 2 * (
            exact.phi_exact(t.mul_pow2(1) + 1) - exact.phi_exact(t.mul_pow2(1) - 1)
        )
        if lhs != rhs:
            bad += 1
    return _result(
        3, "derivative functional equation on q/2^6", start, bad == 0,
        f"129 points, {bad} mismatches",
    )


def criterion_4_reflection_evenness() -> CriterionResult:
    start = time.perf_counter()
    bad = 0
    for q in range(0, 1025):
        t = Dyadic(q, 10)
        if exact.phi_exact(t) + exact.phi_exact(t - 1) != 1:
            bad += 1
        if exact.phi_exact(t) != exact.phi_exact(-t):
            bad += 1
    return _result(
        4, "reflection and evenness on q/2^10", start, bad == 0,
        f"1025 points, {bad} mismatches",
    )


def criterion_5_moment_routes() -> CriterionResult:
    start = time.perf_counter()
    ok = True
    details = []
    c = coefficients.series_coefficients(5)
    for n in range(0, 11):
        via_d = coefficients.moment(n)
        if n % 2 == 0 and via_d != c[n // 2] / 2:
            ok = False
            details.append(f"even-order mismatch at n={n}")
    lhs = coefficients.phi_near_one(3)
    rhs = coefficients.phi_near_one_from_series(1)
    if not (lhs == rhs == Fraction(1, 288)):
        ok = False
        details.append(f"phi(1-2^-3): {lhs} vs {rhs}")
    return _result(
        5, "moment route equality and phi(1-1/8) = 1/288", start, ok,
        "; ".join(details) if details else "orders 0..10 and both near-one routes agree",
    )


def criterion_6_derivative_cascade() -> CriterionResult:
    start = time.perf_counter()
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
    return _result(
        6, "derivative cascade at odd q, n <= 6", start, bad == 0,
        f"{points} centers, {bad} violations",
    )


def criterion_7_spectral_agreement() -> CriterionResult:
    start = time.perf_counter()
    fc = spectral.fourier_coefficients(K=64, m_max=60)
    worst = 0.0
    for q in range(-32, 33):
        err = abs(
            spectral.phi_fourier(q / 32, fc) - float(exact.phi_exact(Dyadic(q, 5)))
        )
        worst = max(worst, err)
    signs_ok = all(
        (fc.a[k] > 0) == (thue_morse_sign(k) > 0) for k in range(16)
    )
    ok = worst <= 1e-10 and signs_ok
    return _result(
        7, "Fourier synthesis matches exact values", start, ok,
        f"max err {worst:.2e}, first 16 signs {'ok' if signs_ok else 'WRONG'}",
    )


def criterion_8_step_convergence() -> CriterionResult:
    start = time.perf_counter()
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
        poly = approximants.partition_polynomial(n)
        for r in range(poly.degree + 1):
            if approximants.restricted_partitions(n, r) != poly[r]:
                problems.append(f"partition count mismatch at n={n}, r={r}")
    detail = (
        "envelope " + ", ".join(f"{float(d):.6f}" for d in envelope)
        + ("; " + "; ".join(problems) if problems else "")
    )
    return _result(8, "step-function convergence", start, not problems, detail)


def criterion_9_monte_carlo() -> CriterionResult:
    start = time.perf_counter()
    problems = []
    targets = {
        -0.75: Fraction(5, 72),
        -0.5: Fraction(1, 2),
        -0.25: Fraction(67, 72),
    }
    for x, target in targets.items():
        est = stochastic.mc_phi(x, MC_SAMPLES, MC_DEPTH, MC_SEED)
        gap = abs(est.estimate - float(target))
        if gap > 4 * est.stderr:
            problems.append(f"x={x}: |{est.estimate:.6f} - {float(target):.6f}| > 4 stderr")
    again = stochastic.mc_phi(-0.5, MC_SAMPLES, MC_DEPTH, MC_SEED)
    first = stochastic.mc_phi(-0.5, MC_SAMPLES, MC_DEPTH, MC_SEED)
    if again.estimate != first.estimate:
        problems.append("rerun not bit-identical")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    return _result(
        9, "Monte Carlo agreement and reproducibility", start, not problems,
        "; ".join(problems) if problems else f"3 points within 4 stderr, {elapsed:.1f}s",
    )


def criterion_10_lattice_identities() -> CriterionResult:
    start = time.perf_counter()
    problems = []
    fc = spectral.fourier_coefficients()
    for n in (1, 2, 3):
        worst = max(
            abs(spectral.partition_of_unity(-0.95 + 0.1 * j, n, fc) - n)
            for j in range(20)
        )
        if worst > 1e-9:
            problems.append(f"unity sum n={n}: err {worst:.2e}")
    for a in (0.5, 0.75, 1.0):
        lhs, rhs = spectral.poisson_check(a)
        if abs(lhs - rhs) > 1e-8:
            problems.append(f"lattice identity a={a}: |{lhs} - {rhs}|")
    return _result(
        10, "partition-of-unity and lattice identities", start, not problems,
        "; ".join(problems) if problems else "n in {1,2,3} and a in {1/2,3/4,1} agree",
    )


def all_criteria():
    return (
        criterion_1_golden_table,
        criterion_2_integer_numerators,
        criterion_3_functional_equation,
        criterion_4_reflection_evenness,
        criterion_5_moment_routes,
        criterion_6_derivative_cascade,
        criterion_7_spectral_agreement,
        criterion_8_step_convergence,
        criterion_9_monte_carlo,
        criterion_10_lattice_identities,
    )


def run_all(emit=print) -> list[CriterionResult]:
    results = []
    for check in all_criteria():
        result = check()
        results.append(result)
        emit(result.line())
    return results
