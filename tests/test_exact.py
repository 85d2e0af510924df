"""Exact dyadic evaluation: phi, theta, derivatives, Taylor data."""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from math import factorial, gcd, lcm
from pathlib import Path
from unittest import mock

import pytest

import fabius
from fabius.cli import level_denominator, render_table
from fabius.coefficients import phi_near_one
from fabius.core import Dyadic, thue_morse_sign
from fabius.exact import (
    MAX_TAYLOR_ORDER,
    _level_plan,
    _weights,
    level_denominator_bound,
    level_numerators,
    phi_derivative,
    phi_exact,
    phi_exact_raw,
    taylor_at,
)
from fabius.selftest import GOLDEN_LEVEL5_DENOMINATOR, GOLDEN_LEVEL5_SCALED

TAYLOR_LEVEL5_GOLDEN = Path(__file__).parent / "data" / "taylor_level5_golden.txt"


def thue_morse_level(n: int) -> tuple[int, list[int]]:
    """(D, [D * phi(q/2^n) for q = 0..2^n]) by the Thue-Morse product.

    An oracle for whole levels that shares no code with the block plans:
    D * phi(q/2^n) = sum_{h < T} (-1)^s(h) g[T-1-h] with T = q + 2^n and
    g[j] = D * f(2j+1), f the level's weighted polynomial.  Below 2^(n+1)
    the signs are the coefficients of prod_{i<=n} (1 - x^(2^i)), so one
    pass v[j] -= v[j - 2^i] per factor turns g into every numerator.
    g comes from n forward differences of its first n + 1 values.
    """
    d, coeffs = _weights(n)
    diffs = [
        sum(c * (2 * j + 1) ** (n - 2 * k) for k, c in enumerate(coeffs))
        for j in range(n + 1)
    ]
    for k in range(1, n + 1):
        for j in range(n, k - 1, -1):
            diffs[j] -= diffs[j - 1]
    g = []
    for _ in range(2 << n):
        g.append(diffs[0])
        for k in range(n):
            diffs[k] += diffs[k + 1]
    for i in range(n + 1):
        step = 1 << i
        for j in range(len(g) - 1, step - 1, -1):
            g[j] -= g[j - step]
    return d, g[(1 << n) - 1:]


def theta_exact(t: Dyadic | int | Fraction) -> Fraction:
    """Exact theta(t) = sum_{k>=0} (-1)^s(k) phi(t - 2k - 1) at a dyadic point.

    At most one summand is nonzero since the k-th translate lives on
    (2k, 2k+2); zero for t <= 0 and at even integers.  The derivative oracle
    phi^(k)(t) = 2^C(k+1,2) theta(2^k t + 2^k) reaches phi^(k) through
    coarser levels, not through the Taylor walk.
    """
    t = Dyadic.from_fraction(t)
    if t.num <= 0:
        return Fraction(0)
    k = t.num >> (t.exp + 1)
    if (k << (t.exp + 1)) == t.num:
        return Fraction(0)  # even integer
    inner = Dyadic(t.num - ((2 * k + 1) << t.exp), t.exp)
    value = phi_exact(inner)
    return -value if k.bit_count() & 1 else value


def phi_enclosure(x: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """(value, bound) with |phi(x) - value| <= bound, for rational x in [-1, 1].

    value is the degree-n Taylor polynomial at the nearest q/2^n, so the step
    h has |h| <= 2^-(n+1).  The functional equation gives
    ||phi^(k)|| = 2^C(k+1,2), so the Lagrange remainder is at most
    2^C(n+2,2) |h|^(n+1) / (n+1)! <= 2^(-n(n+1)/2) / (n+1)!.
    """
    center = Dyadic(round(x * (1 << n)), n)
    h = x - center.to_fraction()
    value = Fraction(0)
    for c in reversed(taylor_at(center, n).coeffs):
        value = value * h + c
    return value, Fraction(1, factorial(n + 1) << n * (n + 1) // 2)


class TestPhiEnclosure:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_holds_at_deep_dyadics(self, n):
        rng = random.Random(20261019 + n)
        for _ in range(150):
            level = rng.randint(20, 30)
            x = Fraction(rng.randrange(1 - (1 << level), 1 << level), 1 << level)
            value, bound = phi_enclosure(x, n)
            assert abs(value - phi_exact(x)) <= bound

    def test_exact_on_its_own_level(self):
        for q in range(-16, 17):
            assert phi_enclosure(Fraction(q, 16), 4)[0] == phi_exact(Dyadic(q, 4))

    def test_bounds(self):
        # 2^-21/7!, 2^-36/9!, 2^-55/11!
        bounds = [float(phi_enclosure(Fraction(0), n)[1]) for n in (6, 8, 10)]
        assert [f"{b:.1e}" for b in bounds] == ["9.5e-11", "4.0e-17", "7.0e-25"]


class TestPhiExact:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (Dyadic(0, 0), Fraction(1)),
            (Dyadic(31, 5), Fraction(19, 33177600)),
            (Dyadic(3, 2), Fraction(5, 72)),
            (Dyadic(-1, 0), Fraction(0)),
            (Dyadic(1, 1), Fraction(1, 2)),
            (Dyadic(5, 1), Fraction(0)),
        ],
    )
    def test_examples(self, t, expected):
        assert phi_exact(t) == expected

    def test_level5_table(self):
        for q, scaled in enumerate(GOLDEN_LEVEL5_SCALED):
            assert phi_exact(Dyadic(q, 5)) == Fraction(scaled, GOLDEN_LEVEL5_DENOMINATOR)

    def test_denominator_bound_level5(self):
        # every scaled value is a non-negative integer
        for q in range(33):
            scaled = phi_exact(Dyadic(q, 5)) * GOLDEN_LEVEL5_DENOMINATOR
            assert scaled.denominator == 1 and scaled >= 0

    def test_level_denominator_bound_is_common(self):
        for n in range(0, 8):
            bound = level_denominator_bound(n)
            for q in range((1 << n) + 1):
                assert (phi_exact(Dyadic(q, n)) * bound).denominator == 1

    def test_accepts_fractions_and_ints(self):
        assert phi_exact(Fraction(3, 4)) == Fraction(5, 72)
        assert phi_exact(0) == 1
        assert phi_exact(2) == 0

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            phi_exact(Fraction(1, 3))
        with pytest.raises(ValueError):
            theta_exact(Fraction(2, 7))


class TestRawFormula:
    def test_examples(self):
        assert phi_exact_raw(0, 1) == 1
        assert phi_exact_raw(-1, 1) == Fraction(1, 2)
        assert phi_exact_raw(3, 2) == Fraction(5, 72)

    def test_empty_sum_at_left_edge(self):
        assert phi_exact_raw(-1, 0) == 0

    def test_differential_vs_block_walk(self):
        # raw formula on its own, against the optimized evaluator, including
        # negative and non-canonical (even) numerators
        for n in range(0, 9):
            for q in range(-(1 << n) + 1, 1 << n):
                assert phi_exact_raw(q, n) == phi_exact(Fraction(q, 1 << n)), (q, n)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_exact_raw(4, 2)

    def test_sampled_points_levels_9_12(self):
        rng = random.Random(7)
        for n in (9, 10, 11, 12):
            for q in rng.sample(range(-(1 << n) + 1, 1 << n), 12):
                assert phi_exact_raw(q, n) == phi_exact(Dyadic(q, n)), (q, n)


class TestBlockEvaluator:
    def test_block_polynomials_against_brute_force(self):
        for n in range(8):
            d, blocks = _level_plan(n)
            weights_d, weights = _weights(n)
            assert weights_d == d, n
            for m in range(n + 1):
                block = blocks[m]
                assert len(block) == n - m + 1 and block[0] != 0, (n, m)
                for y in (-5, -1, 0, 1, 2, 7, (1 << (n + 1)) + 1):
                    horner = 0
                    for c in block:
                        horner = horner * y + c
                    literal = sum(
                        thue_morse_sign(h) * w * (y - 2 * h) ** (n - 2 * k)
                        for h in range(1 << m)
                        for k, w in enumerate(weights)
                    )
                    assert horner == literal, (n, m, y)

    def test_weights_match_moment_route(self):
        # the paper's weight, with phi(1 - 2^-(2k+1)) from the moment recurrence
        def moment_route(n, k):
            scale = Fraction(1 << k * (2 * k + 1), 1 << n * (n + 1) // 2)
            return 2 * scale / factorial(n - 2 * k) * phi_near_one(2 * k + 1)

        for n in [*range(41), 64, 128]:
            route = [moment_route(n, k) for k in range(n // 2 + 1)]
            d, weights = _weights(n)
            assert d == lcm(*(w.denominator for w in route)), n
            assert [Fraction(w, d) for w in weights] == route, n

    @staticmethod
    def _deep_points():
        rng = random.Random(2040)
        points = [(rng.randrange(1, 1 << n, 2), n) for n in range(20, 41)]
        return points + [(rng.randrange(1, 1 << 64, 2), 64)]

    def test_reflection_and_evenness_at_deep_levels(self):
        for q, n in self._deep_points():
            t = Dyadic(q, n)
            value = phi_exact(t)
            assert 0 < value < 1
            assert value + phi_exact(t - 1) == 1
            assert phi_exact(-t) == value

    def test_functional_equation_at_deep_levels(self):
        for q, n in self._deep_points():
            t = Dyadic(q, n)
            doubled = t.mul_pow2(1)
            rhs = 2 * (phi_exact(doubled + 1) - phi_exact(doubled - 1))
            assert phi_derivative(1, t) == rhs

    def test_cascade_at_deep_levels(self):
        for q, n in self._deep_points():
            assert taylor_at(Dyadic(q, n), n + 2).degree == n

    def test_blocks_are_an_appell_sequence(self):
        # B_m of level n - 1 is 2^n d/dy B_m of level n, each over its own D:
        # the identity that reads every derivative off one level plan
        for n in range(1, 41):
            d_low, low = _level_plan(n - 1)
            d, blocks = _level_plan(n)
            for m in range(n):
                degree = n - m
                derived = [c * (degree - i) for i, c in enumerate(blocks[m][:-1])]
                assert [a * d for a in low[m]] == [(c * d_low) << n for c in derived], (n, m)

    @staticmethod
    def _cascade_taylor(t, order):
        # phi^(k)(t)/k! = 2^C(k+1,2) theta(2^k t + 2^k)/k!: a route through
        # coarser levels that shares no walk with taylor_at
        return [
            (1 << k * (k + 1) // 2) * theta_exact(t.mul_pow2(k) + (1 << k)) / factorial(k)
            for k in range(order + 1)
        ]

    def _assert_taylor_matches_cascade(self, t, order):
        expected = self._cascade_taylor(t, order)
        assert list(taylor_at(t, order).coeffs) == expected, t
        derivatives = [phi_derivative(k, t) / factorial(k) for k in range(order + 1)]
        assert derivatives == expected, t

    @pytest.mark.parametrize("levels", [range(9, 41), range(41, 65)])
    def test_taylor_matches_cascade_at_deep_levels(self, levels):
        # full order up to level 40, orders <= 3 above; level n draws its odd q
        # from quarter n % 4 of (-1, 1), so both signs and both halves recur
        rng = random.Random(2209)
        for n in levels:
            low = (n % 4 - 2) << (n - 1)
            t = Dyadic(rng.randrange(low, low + (1 << (n - 1))) | 1, n)
            self._assert_taylor_matches_cascade(t, n if n <= 40 else 3)

    def test_taylor_matches_cascade_at_level_128(self):
        for q in (1, 3, (1 << 127) - 1):
            self._assert_taylor_matches_cascade(Dyadic(q, 128), 2)

    def test_taylor_vector_builds_one_plan(self):
        _level_plan.cache_clear()
        taylor_at(Dyadic(5, 20), 20)
        assert _level_plan.cache_info().currsize == 1

    def test_near_one_matches_moment_route(self):
        # phi(1 - 2^-n) from the moment recurrence, independent of the blocks;
        # q = 2^n - 1 sums every block of its level
        for n in [*range(1, 65), 96, 128]:
            assert phi_exact(Dyadic((1 << n) - 1, n)) == phi_near_one(n)


def level_fractions(n: int) -> list[Fraction]:
    """phi(q/2^n) for q = 0..2^n, from the level's numerators over D."""
    numerators, d = level_numerators(n)
    return [Fraction(v, d) for v in numerators]


class TestLevelValues:
    def test_equals_pointwise_evaluation(self):
        # the grid's recurrence and the point walk share only the level plan
        for n in range(15):
            values = level_fractions(n)
            assert values == [phi_exact(Dyadic(q, n)) for q in range((1 << n) + 1)]
            if n <= 6:
                raw = [phi_exact_raw(q, n) for q in range(1 << n)]
                assert values == raw + [Fraction(0)]

    def test_equals_thue_morse_product(self):
        for n in range(15):
            d, numerators = thue_morse_level(n)
            assert level_fractions(n) == [Fraction(a, d) for a in numerators]

    def test_minimal_denominator_is_gcd_form(self):
        for n in range(15):
            d, numerators = thue_morse_level(n)
            assert level_denominator(n) == d // gcd(d, *numerators)

    def test_table_rows_equal_thue_morse_product(self):
        # column 2 is D phi(q/2^n) over the minimal D, column 3 the reduced value
        for n in range(13):
            d, numerators = thue_morse_level(n)
            minimal = d // gcd(d, *numerators)
            assert render_table(n) == [
                f"{q}\t{Fraction(a * minimal, d)}\t{Fraction(a, d)}"
                for q, a in enumerate(numerators)
            ]

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            level_numerators(-1)

    def test_cold_level_builds_one_plan(self):
        _level_plan.cache_clear()
        level_numerators(10)
        assert _level_plan.cache_info().currsize == 1

    def test_level_sweep_keeps_no_per_point_state(self):
        # a fresh interpreter, so no earlier sweep has filled a cache already;
        # the level plans are built first, since they are the state that stays
        script = textwrap.dedent(
            """
            import gc, tracemalloc
            from fabius.core import Dyadic
            from fabius.exact import _level_plan, phi_exact
            for n in range(11):
                _level_plan(n)
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            values = [phi_exact(Dyadic(q, 10)) for q in range(-1024, 1025)]
            del values
            gc.collect()
            print(tracemalloc.get_traced_memory()[0] - before)
            """
        )
        src = os.path.dirname(os.path.dirname(fabius.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        # a memo of the 513 canonical points of level 10 keeps about 110 kB
        assert int(proc.stdout) < 16 << 10


class TestIdentities:
    @pytest.mark.parametrize("n", [10, 14])
    def test_partition_of_unity_at_dyadic_spacings(self, n):
        # sum_k phi(t + k/2^j) = 2^j exactly, at every t = q/2^n
        half, d = level_numerators(n)
        values = half[:0:-1] + half  # d * phi(q/2^n), q = -2^n..2^n, by evenness
        for j in range(6):
            step = 1 << (n - j)
            for r in range(step):
                assert sum(values[r::step]) == d << j

    def test_functional_equation_exact(self):
        for q in range(-64, 65):
            t = Dyadic(q, 6)
            lhs = phi_derivative(1, t)
            rhs = 2 * (phi_exact(t.mul_pow2(1) + 1) - phi_exact(t.mul_pow2(1) - 1))
            assert lhs == rhs

    def test_evenness(self):
        for q in range(0, 129):
            assert phi_exact(Dyadic(q, 7)) == phi_exact(Dyadic(-q, 7))

    def test_reflection(self):
        for q in range(0, 129):
            t = Dyadic(q, 7)
            assert phi_exact(t) + phi_exact(t - 1) == 1

    @staticmethod
    def _assert_taylor_symmetries(q, n, order):
        # evenness: phi^(k)(-t) = (-1)^k phi^(k)(t); reflection for t in (0, 1):
        # phi(t) = 1 - phi(1 - t) and phi^(k)(t) = -(-1)^k phi^(k)(1 - t), k >= 1
        coeffs = taylor_at(Dyadic(q, n), order).coeffs
        mirrored = taylor_at(Dyadic(-q, n), order).coeffs
        assert mirrored == tuple(-c if k & 1 else c for k, c in enumerate(coeffs)), (q, n)
        if q > 0:
            reflected = taylor_at(Dyadic((1 << n) - q, n), order).coeffs
            assert coeffs[0] == 1 - reflected[0], (q, n)
            for k in range(1, order + 1):
                assert coeffs[k] == (reflected[k] if k & 1 else -reflected[k]), (q, n, k)

    def test_taylor_symmetries_on_levels_0_to_8(self):
        # each odd q > 0 also checks -q, so every canonical point is covered
        self._assert_taylor_symmetries(0, 0, 2)
        for n in range(1, 9):
            for q in range(1, 1 << n, 2):
                self._assert_taylor_symmetries(q, n, n + 2)

    def test_taylor_symmetries_at_deep_levels(self):
        rng = random.Random(2323)
        for n in range(9, 41):
            self._assert_taylor_symmetries(rng.randrange(1, 1 << n, 2), n, n)

    def test_monotone_on_halves(self):
        values = [phi_exact(Dyadic(q, 10)) for q in range(-1024, 1025)]
        mid = 1024
        for i in range(mid):
            assert values[i] <= values[i + 1]  # rising on [-1, 0]
        for i in range(mid, 2048):
            assert values[i] >= values[i + 1]  # falling on [0, 1]

    def test_positive_inside_support(self):
        assert all(phi_exact(Dyadic(q, 6)) > 0 for q in range(-63, 64))


class TestConcurrency:
    def test_parallel_evaluation_matches_sequential(self):
        from concurrent.futures import ThreadPoolExecutor

        points = [Dyadic(q, 8) for q in range(-256, 257)]
        sequential = [phi_exact(t) for t in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(phi_exact, points))
        assert parallel == sequential


class TestTheta:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (Dyadic(1, 0), Fraction(1)),
            (Dyadic(3, 0), Fraction(-1)),
            (Dyadic(1, 1), Fraction(1, 2)),
            (Dyadic(0, 0), Fraction(0)),
            (Dyadic(-5, 1), Fraction(0)),
            (Dyadic(4, 0), Fraction(0)),
        ],
    )
    def test_values(self, t, expected):
        assert theta_exact(t) == expected

    def test_odd_integers_alternate_with_thue_morse(self):
        from fabius.core import thue_morse_sign

        for k in range(64):
            assert theta_exact(Dyadic(2 * k + 1, 0)) == thue_morse_sign(k)


class TestDerivatives:
    @pytest.mark.parametrize(
        "k,t,expected",
        [
            (1, Dyadic(-1, 1), Fraction(2)),
            (2, Dyadic(-3, 2), Fraction(8)),
            (5, Dyadic(0, 0), Fraction(0)),
            (0, Dyadic(3, 2), Fraction(5, 72)),
        ],
    )
    def test_examples(self, k, t, expected):
        assert phi_derivative(k, t) == expected

    def test_order_zero_is_phi(self):
        for q in range(-16, 17):
            t = Dyadic(q, 4)
            assert phi_derivative(0, t) == phi_exact(t)

    def test_vanishes_outside_support(self):
        assert phi_derivative(3, Dyadic(5, 2)) == 0

    def test_differentiated_functional_equation(self):
        # phi^(k+1)(t) = 2^(k+1) (phi^(k)(2t+1) - phi^(k)(2t-1)), the value-level
        # shadow of the theta doubling rule
        for k in range(9):
            for q in range(-16, 17):
                t = Dyadic(q, 4)
                lhs = phi_derivative(k + 1, t)
                rhs = (1 << (k + 1)) * (
                    phi_derivative(k, t.mul_pow2(1) + 1)
                    - phi_derivative(k, t.mul_pow2(1) - 1)
                )
                assert lhs == rhs

    def test_non_analyticity_witness(self):
        for n in range(1, 7):
            for q in range(-(1 << n) + 1, 1 << n, 2):
                t = Dyadic(q, n)
                assert abs(phi_derivative(n, t)) == 1 << (n * (n + 1) // 2)
                for k in range(n + 1, n + 11):
                    assert phi_derivative(k, t) == 0

    @pytest.mark.parametrize("n", range(6))
    def test_matches_theta_scaling_at_every_order(self, n):
        # the order cut-off against phi^(k)(t) = 2^C(k+1,2) theta(2^k t + 2^k),
        # at every point of level n, the support edges included
        for q in range(-(1 << n), (1 << n) + 1):
            t = Dyadic(q, n)
            for k in range(n + 4):
                arg = t.mul_pow2(k) + (1 << k)
                expected = (1 << (k * (k + 1) // 2)) * theta_exact(arg)
                assert phi_derivative(k, t) == expected

    def test_vanishing_order_skips_the_power_of_two(self):
        # above order t.exp the derivative is 0 before any shift: 2^C(k+1,2)
        # at k = 20000 would take about 25 MB, and 2^k t + 2^k at k = 10^9
        # would be a 10^9-bit integer, about 130 MB
        for k in (20000, 10**9):
            tracemalloc.start()
            try:
                assert phi_derivative(k, Dyadic(1, 3)) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        assert taylor_at(Dyadic(1, 3), 2000).degree == 3


class TestTaylor:
    def test_at_origin(self):
        poly = taylor_at(Dyadic(0, 0), 3)
        assert poly.coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert poly.degree == 0

    def test_at_minus_half(self):
        poly = taylor_at(Dyadic(-1, 1), 2)
        assert poly.coeffs == (Fraction(1, 2), Fraction(2), Fraction(0))
        assert poly.degree == 1  # odd numerator at level 1

    def test_at_support_edge(self):
        poly = taylor_at(Dyadic(-1, 0), 5)
        assert poly.coeffs == (Fraction(0),) * 6
        assert poly.degree == -1

    def test_matches_derivatives(self):
        poly = taylor_at(Dyadic(3, 3), 5)
        for k, coeff in enumerate(poly.coeffs):
            assert coeff == phi_derivative(k, Dyadic(3, 3)) / factorial(k)

    def test_degree_equals_level_for_odd_numerator(self):
        for n in range(1, 6):
            for q in (-(1 << n) + 1, 1, (1 << n) - 1):
                poly = taylor_at(Dyadic(q, n), n + 4)
                assert poly.degree == n
        assert taylor_at(Dyadic(1, 3), 10**6).degree == 3
        assert taylor_at(Dyadic(1, 0), 5).degree == -1
        assert taylor_at(Dyadic(-1, 0), 5).degree == -1
        assert taylor_at(Dyadic(0, 0), 5).degree == 0

    def test_no_factorial_above_the_degree(self):
        t = Dyadic(1, 3)
        taylor_at(t, 3)  # builds the level plans, whose weights use factorial too
        with mock.patch("fabius.exact.factorial", wraps=factorial) as counted:
            poly = taylor_at(t, 3000)
        assert counted.call_count <= 4
        assert len(poly.coeffs) == 3001 and poly.degree == 3
        for k in (0, 1, 2, 3, 4, 3000):
            assert poly.coeffs[k] == phi_derivative(k, t) / factorial(k)

    def test_level5_golden(self):
        # every point of level 5 and both support edges, to order 7
        lines = [
            "\t".join(map(str, (q, *taylor_at(Dyadic(q, 5), 7).coeffs)))
            for q in range(-32, 33)
        ]
        assert lines == TAYLOR_LEVEL5_GOLDEN.read_text().splitlines()

    def test_center_outside_support_rejected(self):
        with pytest.raises(ValueError):
            taylor_at(Dyadic(3, 1), 2)

    def test_order_cap(self):
        # above the cap the call is rejected before any zero is padded
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="taylor order must be at most 1000000"):
                taylor_at(Dyadic(1, 3), MAX_TAYLOR_ORDER + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert taylor_at(Dyadic(1, 3), MAX_TAYLOR_ORDER).degree == 3
