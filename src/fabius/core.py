"""Exact arithmetic substrate: dyadic rationals and two binary helpers.

Dyadic rationals q/2^n form the evaluation grid of the whole package.  They
are kept as an explicit (numerator, exponent) pair, distinct from general
rationals, so that level-indexed algorithms never have to re-derive n from a
denominator; their equality, hash and arithmetic go through the equal
Fraction.
General exact rationals are plain ``fractions.Fraction`` values, which
already guarantee the canonical form this package relies on (positive
denominator, fully reduced); their ``str`` is the package's text form, which
``Fraction(text)`` reads back.  The binary helpers are the 2-adic valuation,
which the pole form of the transform uses, and the Thue-Morse sign of the
exact evaluator's blocks and of the Fourier coefficients.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Dyadic",
    "canonical_dyadic",
    "val2",
    "thue_morse_sign",
]


def val2(m: int) -> int:
    """2-adic valuation: the largest e such that 2^e divides m (m >= 1)."""
    if m < 1:
        raise ValueError("2-adic valuation is undefined for m < 1")
    return (m & -m).bit_length() - 1


def thue_morse_sign(k: int) -> int:
    """(-1) to the binary digit sum of k: + - - + - + + - - + + - + - - + for k < 16."""
    return -1 if k.bit_count() & 1 else 1


def canonical_dyadic(num: int, exp: int) -> tuple[int, int]:
    """num / 2^exp (exp >= 0) as the pair ``Dyadic`` stores: exp == 0 or num odd."""
    if num == 0:
        return 0, 0
    shift = min(exp, val2(abs(num)))
    return num >> shift, exp - shift


class Dyadic:
    """An exact dyadic rational num / 2^exp in canonical form.

    Canonical means exp == 0 or num is odd; the constructor normalizes, so
    two equal values always have identical (num, exp) pairs.  A Dyadic
    equals and hashes as the equal Fraction or int; it adds and subtracts
    with a Dyadic or int on either side, negates and scales by powers of
    two.  Ordering, products, abs and float go through ``to_fraction()``.
    Instances are immutable and thread-safe.
    """

    __slots__ = ("_num", "_exp")

    def __init__(self, num: int, exp: int = 0) -> None:
        if exp < 0:
            raise ValueError("negative exponents are not stored; shift the numerator")
        self._num, self._exp = canonical_dyadic(num, exp)

    @property
    def num(self) -> int:
        return self._num

    @property
    def exp(self) -> int:
        return self._exp

    @classmethod
    def from_fraction(cls, value: Dyadic | Fraction | int) -> Dyadic:
        """Exact conversion, a Dyadic returned as it is; rejects non-dyadic and non-finite input."""
        if isinstance(value, Dyadic):
            return value
        try:
            value = Fraction(value)
        except OverflowError as exc:  # +-inf; NaN raises ValueError itself
            raise ValueError(str(exc)) from None
        den = value.denominator
        if den & (den - 1):
            raise ValueError(f"{value} is not a dyadic rational")
        return cls(value.numerator, den.bit_length() - 1)

    def to_fraction(self) -> Fraction:
        return Fraction(self._num, 1 << self._exp)

    def __str__(self) -> str:
        return f"{self._num}/2^{self._exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self._num}, {self._exp})"

    def __hash__(self) -> int:
        # the hash of the equal Fraction (and int), as __eq__ requires
        return hash(self.to_fraction())

    def __bool__(self) -> bool:
        return self._num != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Dyadic, int, Fraction)):
            return self.to_fraction() == _rational(other)
        return NotImplemented

    def __neg__(self) -> Dyadic:
        return Dyadic(-self._num, self._exp)

    def __add__(self, other: Dyadic | int) -> Dyadic:
        if isinstance(other, (Dyadic, int)):
            return Dyadic.from_fraction(self.to_fraction() + _rational(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Dyadic | int) -> Dyadic:
        return self + (-other)

    def __rsub__(self, other: Dyadic | int) -> Dyadic:
        return (-self) + other

    def mul_pow2(self, k: int) -> Dyadic:
        """The value times 2^k, for any integer k."""
        if k >= 0:
            return Dyadic(self._num << k, self._exp)
        return Dyadic(self._num, self._exp - k)


def _rational(x: Dyadic | int | Fraction) -> int | Fraction:
    """The Fraction a Dyadic equals; any other operand as it is."""
    return x.to_fraction() if isinstance(x, Dyadic) else x
