"""Partition polynomials, step approximants, restricted partitions."""

from fractions import Fraction
from math import comb

import pytest

from fabius.approximants import (
    StepFunction,
    partition_polynomial,
    restricted_partitions,
    step_function,
)
from fabius.core import Dyadic
from fabius.exact import phi_exact

# Measured exact deviation envelope max_q |phi_m(q/32) - phi(q/32)|, frozen.
# At odd levels the plateau edges land exactly on the q/32 grid; the midpoint
# rule at interior edges keeps those points at second-order error, which is
# what makes the envelope decrease monotonically.  (A one-sided edge rule
# would pay |phi'| * 2^-(m+1) there and break monotonicity at m = 6 -> 7.)
MEASURED_ENVELOPE = {
    3: Fraction(2408381, 33177600),
    4: Fraction(334781, 33177600),
    5: Fraction(5, 4608),
    6: Fraction(11, 18432),
    7: Fraction(1, 9216),
    8: Fraction(7, 147456),
}


def plateau_interval(sf, j: int) -> tuple[Dyadic, Dyadic]:
    """Half-open support [left, right) of plateau j, as the StepFunction doc gives it."""
    shift = sf.level + 1
    return Dyadic(2 * j - 1 - sf.degree, shift), Dyadic(2 * j + 1 - sf.degree, shift)


def partition_polynomial_degree(n: int) -> int:
    """deg p_n, via g_0 = 0, g_n = 2 g_{n-1} + n."""
    g = 0
    for m in range(1, n + 1):
        g = 2 * g + m
    return g


def convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # schoolbook product of two coefficient tuples
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def geometric_block_product(n: int) -> tuple[int, ...]:
    # independent construction: (1+x)(1+x+x^2+x^3)...(1+...+x^(2^n - 1))
    poly = (1,)
    for k in range(1, n + 1):
        poly = convolve(poly, (1,) * (1 << k))
    return poly


class TestPartitionPolynomial:
    def test_equals_block_factorization(self):
        for n in range(0, 9):
            assert partition_polynomial(n) == geometric_block_product(n)

    def test_block_recurrence(self):
        # p_{m+1}(x) = p_m(x) * (1 + x + ... + x^(2^(m+1) - 1))
        for m in range(0, 7):
            lhs = partition_polynomial(m + 1)
            rhs = convolve(partition_polynomial(m), (1,) * (1 << (m + 1)))
            assert lhs == rhs

    def test_defining_recurrence(self):
        # p_n(x) = p_{n-1}(x^2) (1+x)^n, with plain lists
        p = [1]
        for n in range(1, 9):
            stretched = [0] * (2 * len(p) - 1)
            stretched[::2] = p  # x -> x^2
            p = stretched
            for _ in range(n):
                p = [a + b for a, b in zip(p + [0], [0] + p)]
            assert list(partition_polynomial(n)) == p

    def test_palindromic_and_positive(self):
        for n in range(0, 9):
            poly = partition_polynomial(n)
            assert poly == poly[::-1]
            assert all(a > 0 for a in poly)

    def test_coefficient_sum(self):
        for n in range(0, 9):
            assert sum(partition_polynomial(n)) == 1 << (n * (n + 1) // 2)


class TestDegree:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 4), (3, 11), (8, 502)])
    def test_recurrence_values(self, n, expected):
        assert partition_polynomial_degree(n) == expected

    def test_matches_polynomial(self):
        for n in range(0, 9):
            assert partition_polynomial_degree(n) == len(partition_polynomial(n)) - 1

    def test_closed_form(self):
        # g_n = 2^n * sum_{k<=n} k / 2^k
        for n in range(0, 12):
            total = sum(Fraction(k, 1 << k) for k in range(1, n + 1))
            assert partition_polynomial_degree(n) == total * (1 << n)
            assert partition_polynomial_degree(n) == (1 << (n + 1)) - n - 2


class TestRestrictedPartitions:
    def test_examples(self):
        assert restricted_partitions(2)[2] == 2  # (0,2) and (1,1)
        assert restricted_partitions(2)[4] == 1  # only (1,3)
        for m in range(6):
            assert restricted_partitions(m)[0] == 1

    def test_oracle_equivalence(self):
        for n in range(0, 6):
            assert restricted_partitions(n) == partition_polynomial(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            restricted_partitions(-1)


class TestStepFunction:
    def test_level_zero(self):
        sf = step_function(0)
        assert (sf.numerators, sf.exp) == ((1,), 0)
        assert sf.value_at(Dyadic(0, 0)) == 1
        assert sf.value_at(Fraction(-1, 2)) == 1  # left edge included
        assert sf.value_at(Fraction(1, 2)) == 0

    def test_level_one_merges_to_unit_plateau(self):
        sf = step_function(1)
        assert (sf.numerators, sf.exp) == ((1, 1), 0)
        for t in (Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4)):
            assert sf.value_at(t) == 1
        assert sf.value_at(Fraction(1, 2)) == 0

    def test_level_two_values(self):
        sf = step_function(2)
        assert (sf.numerators, sf.exp) == ((1, 2, 2, 2, 1), 1)
        assert sf.value_at(Dyadic(0, 0)) == 1
        assert sf.value_at(Fraction(-5, 8)) == Fraction(1, 2)
        assert sf.value_at(Dyadic(1, 0)) == 0

    def test_numerators_are_the_partition_polynomial(self):
        for m in range(17):
            sf = step_function(m)
            assert sf.numerators == partition_polynomial(m)
            assert sf.exp == comb(m, 2)

    def test_intervals(self):
        sf = step_function(2)
        left, right = plateau_interval(sf, 0)
        assert (left, right) == (Dyadic(-5, 3), Dyadic(-3, 3))
        edges = [plateau_interval(sf, j) for j in range(sf.degree + 1)]
        widths = {right.to_fraction() - left.to_fraction() for left, right in edges}
        assert widths == {Fraction(1, 4)}
        # each plateau's midpoint reads that plateau's value
        mids = [(left.to_fraction() + right.to_fraction()) / 2 for left, right in edges]
        assert [sf.value_at(t) for t in mids] == [Fraction(a, 2) for a in sf.numerators]

    def test_integral_exactly_one(self):
        for n in range(0, 9):
            assert step_function(n).integral() == 1

    def test_unimodal_symmetric_peak_one(self):
        for n in range(0, 9):
            sf = step_function(n)
            assert sf.is_unimodal()
            assert sf.numerators == sf.numerators[::-1]
            assert max(sf.numerators) == 1 << sf.exp
            assert sf.value_at(Dyadic(0, 0)) == 1

    @pytest.mark.parametrize(
        "eighths",
        [(2, 8, 2, 4), (4, 2, 8, 4), (2, 4, 2), (2, 16, 2)],
        ids=["dip-after-peak", "rise-after-fall", "peak-not-one", "peak-above-one"],
    )
    def test_not_unimodal(self, eighths):
        # level 3 counts its plateaus in eighths: exp = C(3, 2) = 3
        assert StepFunction(level=3, numerators=eighths).is_unimodal() is False

    def test_value_at_sweep_distinct_values(self):
        # all values distinct, so reading a wrong neighbour shows; level 2
        # counts its plateaus in halves
        sf = StepFunction(level=2, numerators=(1, 2, 4, 7, 11, 16))
        values = [Fraction(a, 2) for a in sf.numerators]
        for j, v in enumerate(values):
            left, right = (e.to_fraction() for e in plateau_interval(sf, j))
            for part in (Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)):
                assert sf.value_at(left + part * (right - left)) == v
            if j > 0:  # interior edge: the midpoint of the two plateaus
                midpoint = (values[j - 1] + v) / 2
                assert sf.value_at(Dyadic.from_fraction(left)) == midpoint
        first = plateau_interval(sf, 0)[0]
        last = plateau_interval(sf, sf.degree)[1]
        assert sf.value_at(first) == values[0]  # left support edge included
        assert sf.value_at(last) == 0  # right support edge excluded
        assert sf.value_at(first.to_fraction() - Fraction(1, 64)) == 0
        assert sf.value_at(last.to_fraction() + Fraction(1, 64)) == 0

    def test_interior_edge_midpoint(self):
        sf = step_function(2)
        assert sf.value_at(Fraction(-3, 8)) == Fraction(3, 4)
        assert sf.value_at(Fraction(1, 8)) == 1  # equal neighbors
        # t = -1/2 is the shared edge of plateaus 1 and 2 at level 3
        sf3 = step_function(3)
        assert sf3.value_at(Fraction(-1, 2)) == Fraction(3 + 5, 2 * 8)  # p_3[1], p_3[2]

    def test_support_edges_one_sided(self):
        sf = step_function(2)
        left = plateau_interval(sf, 0)[0].to_fraction()
        assert sf.value_at(left) == Fraction(1, 2)  # left edge included
        assert sf.value_at(-left) == 0  # right edge excluded
        assert sf.value_at(left - Fraction(1, 64)) == 0

    def test_measured_envelope(self):
        for m, expected in MEASURED_ENVELOPE.items():
            sf = step_function(m)
            dev = max(
                abs(sf.value_at(Dyadic(q, 5)) - phi_exact(Dyadic(q, 5)))
                for q in range(-32, 33)
            )
            assert dev == expected
