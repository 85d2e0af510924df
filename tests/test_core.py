"""Digit helpers and the dyadic rational type."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fabius.core import Dyadic, thue_morse_sign, val2
from fabius.exact import phi_derivative, phi_exact, taylor_at
from test_exact import theta_exact


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


def parse_dyadic(text: str) -> Fraction:
    """Read back the "num/2^exp" text of a Dyadic."""
    num, exp = text.split("/2^")
    return Fraction(int(num), 1 << int(exp))


class TestDigitSum:
    # thue_morse_sign(k) is (-1) to the binary digit sum of k
    @pytest.mark.parametrize("k,expected", [(0, 0), (3, 2), (19, 3)])
    def test_examples(self, k, expected):
        assert brute_digit_sum(k) == expected
        assert thue_morse_sign(k) == (-1) ** expected

    @given(st.integers(min_value=0, max_value=10**24))
    def test_matches_brute_force(self, k):
        assert thue_morse_sign(k) == (-1) ** brute_digit_sum(k)

    @given(st.integers(min_value=0, max_value=10**18))
    def test_recursion(self, k):
        assert thue_morse_sign(2 * k) == thue_morse_sign(k)
        assert thue_morse_sign(2 * k + 1) == -thue_morse_sign(k)

    def test_first_sixteen_signs(self):
        signs = [thue_morse_sign(k) for k in range(16)]
        assert signs == [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1]


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

    def test_truth_is_nonzero(self):
        assert bool(Dyadic(0, 5)) is False
        assert bool(Dyadic(-3, 2)) is True

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
        assert parse_dyadic(str(d)) == d

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

    def test_mul_pow2(self):
        assert Dyadic(3, 2).mul_pow2(2) == 3
        assert Dyadic(3, 0).mul_pow2(-2) == Dyadic(3, 2)

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    @given(
        st.integers(min_value=-(2**20), max_value=2**20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=-(2**20), max_value=2**20),
        st.integers(min_value=0, max_value=20),
    )
    def test_arithmetic_returns_canonical_dyadic(self, op, a, ea, b, eb):
        x, y = Dyadic(a, ea), Dyadic(b, eb)
        # Dyadic with Dyadic, Dyadic with int and int with Dyadic
        for left, right, value in (
            (x, y, op(x.to_fraction(), y.to_fraction())),
            (x, b, op(x.to_fraction(), b)),
            (a, y, op(a, y.to_fraction())),
        ):
            result = op(left, right)
            assert type(result) is Dyadic
            # canonical: a reduced Fraction with a power-of-two denominator
            pair = (value.numerator, value.denominator.bit_length() - 1)
            assert (result.num, result.exp) == pair

    def test_float_is_no_operand(self):
        assert (Dyadic(1, 1) == 0.5) is False
        assert (Dyadic(1, 1) != 0.5) is True
        with pytest.raises(TypeError):
            Dyadic(1, 1) < 0.5
        with pytest.raises(TypeError):
            Dyadic(1, 1) + 0.5

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.lt])
    def test_fraction_is_no_arithmetic_operand(self, op):
        with pytest.raises(TypeError):
            op(Dyadic(1, 1), Fraction(1, 3))
        with pytest.raises(TypeError):
            op(Fraction(1, 3), Dyadic(1, 1))

    @pytest.mark.parametrize(
        "call",
        [lambda d: d < d, lambda d: 1 <= d, lambda d: d * d, lambda d: 2 * d, abs, float],
        ids=["lt", "int-le", "mul", "int-mul", "abs", "float"],
    )
    def test_no_ordering_product_abs_or_float(self, call):
        # each of these goes through to_fraction()
        with pytest.raises(TypeError):
            call(Dyadic(1, 1))

    def test_from_fraction_returns_a_dyadic_as_it_is(self):
        d = Dyadic(-3, 4)
        assert Dyadic.from_fraction(d) is d

    @pytest.mark.parametrize(
        "num,exp", [(0, 0), (1, 0), (-1, 0), (3, 0), (1, 1), (-3, 2), (5, 3), (-13, 5)]
    )
    def test_exact_paths_take_every_point_type(self, num, exp):
        d = Dyadic(num, exp)
        points = [d, d.to_fraction()] + ([num] if exp == 0 else [])
        for f in (
            phi_exact,
            theta_exact,
            lambda t: phi_derivative(2, t),
            lambda t: taylor_at(t, 4) if abs(d.to_fraction()) <= 1 else None,
        ):
            values = [f(t) for t in points]
            assert values == [values[0]] * len(points)
