"""Digit helpers and the dyadic rational type."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fabius.core import (
    Dyadic,
    digit_sum,
    format_rational,
    parse_rational,
    thue_morse_sign,
    val2,
)


def brute_digit_sum(k: int) -> int:
    total = 0
    while k:
        total += k & 1
        k >>= 1
    return total


def brute_val2(m: int) -> int:
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    return e


class TestDigitSum:
    @pytest.mark.parametrize("k,expected", [(0, 0), (3, 2), (19, 3)])
    def test_examples(self, k, expected):
        assert digit_sum(k) == expected
        assert brute_digit_sum(k) == expected

    @given(st.integers(min_value=0, max_value=10**24))
    def test_matches_brute_force(self, k):
        assert digit_sum(k) == brute_digit_sum(k)

    @given(st.integers(min_value=0, max_value=10**18))
    def test_recursion(self, k):
        assert digit_sum(2 * k) == digit_sum(k)
        assert digit_sum(2 * k + 1) == digit_sum(k) + 1

    def test_first_sixteen_signs(self):
        signs = [thue_morse_sign(k) for k in range(16)]
        assert signs == [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            digit_sum(-1)


class TestVal2:
    @pytest.mark.parametrize("m,expected", [(1, 0), (8, 3), (12, 2)])
    def test_examples(self, m, expected):
        assert val2(m) == expected
        assert brute_val2(m) == expected

    @given(st.integers(min_value=1, max_value=10**18), st.integers(min_value=1, max_value=10**18))
    def test_multiplicative(self, m, n):
        assert val2(m) + val2(n) == val2(m * n)

    @pytest.mark.parametrize("m", range(1, 513))
    def test_grouping_count(self, m):
        # number of ways m = 2^h * r with h >= 0, r >= 1 integer
        ways = sum(1 for h in range(m.bit_length()) if m % (1 << h) == 0)
        assert ways == 1 + val2(m)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            val2(0)


class TestDyadic:
    @pytest.mark.parametrize(
        "num,exp,cnum,cexp",
        [(4, 2, 1, 0), (6, 3, 3, 2), (19, 5, 19, 5), (0, 7, 0, 0), (-8, 2, -2, 0)],
    )
    def test_normalization(self, num, exp, cnum, cexp):
        d = Dyadic(num, exp)
        assert (d.num, d.exp) == (cnum, cexp)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    @given(st.integers(min_value=-(2**40), max_value=2**40), st.integers(min_value=0, max_value=40))
    def test_fraction_roundtrip(self, num, exp):
        d = Dyadic(num, exp)
        assert d.to_fraction() == Fraction(num, 1 << exp)
        assert Dyadic.from_fraction(d.to_fraction()) == d

    @given(st.integers(min_value=-(2**40), max_value=2**40), st.integers(min_value=0, max_value=40))
    def test_string_roundtrip(self, num, exp):
        d = Dyadic(num, exp)
        assert Dyadic.parse(str(d)) == d

    def test_parse_bare_integer(self):
        assert Dyadic.parse("-3") == Dyadic(-3, 0)
        with pytest.raises(ValueError):
            Dyadic.parse("1/3")

    def test_from_fraction_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            Dyadic.from_fraction(Fraction(1, 3))

    @given(
        st.integers(min_value=-(2**20), max_value=2**20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=-(2**20), max_value=2**20),
        st.integers(min_value=0, max_value=20),
    )
    def test_arithmetic_matches_fractions(self, a, ea, b, eb):
        x, y = Dyadic(a, ea), Dyadic(b, eb)
        assert (x + y).to_fraction() == x.to_fraction() + y.to_fraction()
        assert (x - y).to_fraction() == x.to_fraction() - y.to_fraction()
        assert (x * y).to_fraction() == x.to_fraction() * y.to_fraction()
        assert (x < y) == (x.to_fraction() < y.to_fraction())

    def test_ordering_and_int_mixing(self):
        assert Dyadic(1, 1) < 1
        assert Dyadic(3, 1) > Dyadic(1, 0)
        assert Dyadic(2, 1) == 1
        assert Dyadic(5, 0) + 2 == 7

    @given(st.integers(min_value=-(2**70), max_value=2**70), st.integers(min_value=0, max_value=70))
    def test_hash_matches_equal_fraction_and_int(self, num, exp):
        d = Dyadic(num, exp)
        assert hash(d) == hash(Fraction(num, 1 << exp))
        if d.exp == 0:
            assert d == d.num and hash(d) == hash(d.num)

    def test_equal_values_dedupe_in_a_set(self):
        assert hash(Dyadic(3)) == hash(3)
        assert hash(Dyadic(-1, 1)) == hash(Fraction(-1, 2))
        assert len({Dyadic(1, 1), Fraction(1, 2)}) == 1
        assert len({Dyadic(-6, 1), -3, Fraction(-3), Dyadic(-3)}) == 1
        assert len({Dyadic(0, 5), 0, Fraction(0)}) == 1

    def test_mul_pow2_and_floor(self):
        assert Dyadic(3, 2).mul_pow2(2) == 3
        assert Dyadic(3, 0).mul_pow2(-2) == Dyadic(3, 2)
        assert Dyadic(7, 1).floor() == 3
        assert Dyadic(-7, 1).floor() == -4


class TestRationalSerialization:
    @pytest.mark.parametrize("text", ["3/4", "-19/33177600", "7", "-2"])
    def test_roundtrip(self, text):
        assert format_rational(parse_rational(text)) == text

    def test_integer_denominator_omitted(self):
        assert format_rational(Fraction(8, 4)) == "2"

    @given(st.fractions(max_denominator=10**12))
    def test_roundtrip_random(self, value):
        assert parse_rational(format_rational(value)) == value

    @given(st.fractions(max_denominator=10**9), st.fractions(max_denominator=10**9))
    def test_exactness(self, a, b):
        assert (a + b) - b == a
        assert a + b == b + a
