"""Exact dyadic evaluation: phi, theta, derivatives, Taylor data."""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from math import factorial
from unittest import mock

import pytest

import fabius
from fabius.coefficients import phi_near_one
from fabius.core import Dyadic, thue_morse_sign
from fabius.exact import (
    MAX_TAYLOR_ORDER,
    _level_plan,
    _weights,
    level_denominator_bound,
    level_values,
    phi_derivative,
    phi_exact,
    phi_exact_raw,
    taylor_at,
    theta_exact,
)

GOLDEN_LEVEL5 = (
    33177600, 33177581, 33175312, 33152381, 33062400, 32842819, 32431088,
    31780819, 30873600, 29707219, 28283888, 26622019, 24768000, 22784381,
    20733712, 18662381, 16588800, 14515219, 12443888, 10393219, 8409600,
    6555581, 4893712, 3470381, 2304000, 1396781, 746512, 334781, 115200,
    25219, 2288, 19, 0,
)
D5 = 33177600


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
        for q, scaled in enumerate(GOLDEN_LEVEL5):
            assert phi_exact(Dyadic(q, 5)) == Fraction(scaled, D5)

    def test_denominator_bound_level5(self):
        # every scaled value is a non-negative integer
        for q in range(33):
            scaled = phi_exact(Dyadic(q, 5)) * D5
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

    def test_differential_vs_folded_path(self):
        # raw formula on its own, against the optimized evaluator, including
        # negative and non-canonical (even) numerators
        for n in range(0, 7):
            for q in range(-(1 << n) + 1, 1 << n):
                assert phi_exact_raw(q, n) == phi_exact(Fraction(q, 1 << n)), (q, n)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_exact_raw(4, 2)

    def test_sampled_points_levels_7_8(self):
        rng = random.Random(7)
        for n in (7, 8):
            for q in rng.sample(range(-(1 << n) + 1, 1 << n), 12):
                assert phi_exact_raw(q, n) == phi_exact(Dyadic(q, n)), (q, n)


class TestBlockEvaluator:
    def test_block_polynomials_against_brute_force(self):
        for n in range(8):
            d, blocks = _level_plan(n)
            weights = _weights(n)
            for m in range(n + 1):
                block = blocks[m]
                assert len(block) == n - m + 1 and block[0] != 0, (n, m)
                for y in (-5, -1, 0, 1, 2, 7, (1 << (n + 1)) + 1):
                    horner = 0
                    for c in block:
                        horner = horner * y + c
                    literal = d * sum(
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
            assert _weights(n) == [moment_route(n, k) for k in range(n // 2 + 1)], n

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

    def test_near_one_matches_moment_route(self):
        # phi(1 - 2^-n) from the moment recurrence, independent of the blocks
        for n in [*range(20, 41), 64, 128]:
            assert phi_exact(Dyadic((1 << n) - 1, n)) == phi_near_one(n)


class TestLevelValues:
    def test_equals_pointwise_evaluation(self):
        for n in range(11):
            values = level_values(n)
            assert values == [phi_exact(Dyadic(q, n)) for q in range((1 << n) + 1)]
            if n <= 6:
                raw = [phi_exact_raw(q, n) for q in range(1 << n)]
                assert values == raw + [Fraction(0)]

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            level_values(-1)

    def test_cold_level_builds_one_plan(self):
        _level_plan.cache_clear()
        level_values(10)
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

    def test_evaluation(self):
        poly = taylor_at(Dyadic(-1, 1), 1)
        assert poly(Fraction(0)) == Fraction(1, 2)
        assert poly(Fraction(1, 8)) == Fraction(1, 2) + Fraction(2) * Fraction(1, 8)

    def test_no_factorial_above_the_degree(self):
        t = Dyadic(1, 3)
        taylor_at(t, 3)  # builds the level plans, whose weights use factorial too
        with mock.patch("fabius.exact.factorial", wraps=factorial) as counted:
            poly = taylor_at(t, 3000)
        assert counted.call_count <= 4
        assert len(poly.coeffs) == 3001 and poly.degree == 3
        for k in (0, 1, 2, 3, 4, 3000):
            assert poly.coeffs[k] == phi_derivative(k, t) / factorial(k)

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
