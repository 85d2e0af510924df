"""Exact arithmetic substrate: dyadic rationals and binary digit helpers.

Dyadic rationals q/2^n form the evaluation grid of the whole package.  They
are kept as an explicit (numerator, exponent) pair, distinct from general
rationals, so that level-indexed algorithms never have to re-derive n from a
denominator.  General exact rationals are plain ``fractions.Fraction``
values, which already guarantee the canonical form this package relies on
(positive denominator, fully reduced).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering

__all__ = [
    "Dyadic",
    "canonical_dyadic",
    "digit_sum",
    "val2",
    "thue_morse_sign",
    "format_rational",
    "parse_rational",
]


def digit_sum(k: int) -> int:
    """Number of ones in the binary expansion of k (k >= 0)."""
    if k < 0:
        raise ValueError("digit_sum() requires a non-negative integer")
    return k.bit_count()


def val2(m: int) -> int:
    """2-adic valuation: the largest e such that 2^e divides m (m >= 1)."""
    if m < 1:
        raise ValueError("2-adic valuation is undefined for m < 1")
    return (m & -m).bit_length() - 1


def thue_morse_sign(k: int) -> int:
    """The sign (-1)**digit_sum(k); the first sixteen are + - - + - + + - - + + - + - - +."""
    return -1 if k.bit_count() & 1 else 1


def format_rational(value: Fraction) -> str:
    """Serialize an exact rational as "num/den", with "/den" omitted for integers."""
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; accepts "num/den" and bare integers."""
    return Fraction(text.strip())


def canonical_dyadic(num: int, exp: int) -> tuple[int, int]:
    """num / 2^exp (exp >= 0) as the pair ``Dyadic`` stores: exp == 0 or num odd."""
    if num == 0:
        return 0, 0
    shift = min(exp, (num & -num).bit_length() - 1)
    return num >> shift, exp - shift


_DYADIC_RE = re.compile(r"^([+-]?\d+)/2\^(\d+)$")


@total_ordering
class Dyadic:
    """An exact dyadic rational num / 2^exp in canonical form.

    Canonical means exp == 0 or num is odd; the constructor normalizes, so
    two equal values always have identical (num, exp) pairs.  Instances are
    immutable and safe to share between threads.
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
    def from_fraction(cls, value: Fraction | int) -> Dyadic:
        """Exact conversion; rejects rationals whose denominator is not a power of two."""
        value = Fraction(value)
        den = value.denominator
        if den & (den - 1):
            raise ValueError(f"{value} is not a dyadic rational")
        return cls(value.numerator, den.bit_length() - 1)

    @classmethod
    def parse(cls, text: str) -> Dyadic:
        """Parse the "num/2^exp" serialization (bare integers also accepted)."""
        text = text.strip()
        m = _DYADIC_RE.match(text)
        if m:
            return cls(int(m.group(1)), int(m.group(2)))
        try:
            return cls(int(text))
        except ValueError:
            raise ValueError(f"not a dyadic literal: {text!r}") from None

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
        if isinstance(other, Dyadic):
            return self._num == other._num and self._exp == other._exp
        if isinstance(other, int):
            return self._exp == 0 and self._num == other
        if isinstance(other, Fraction):
            return self.to_fraction() == other
        return NotImplemented

    def __lt__(self, other: Dyadic | int | Fraction) -> bool:
        if isinstance(other, Dyadic):
            if self._exp >= other._exp:
                return self._num < other._num << (self._exp - other._exp)
            return self._num << (other._exp - self._exp) < other._num
        if isinstance(other, int):
            return self._num < other << self._exp
        if isinstance(other, Fraction):
            return self.to_fraction() < other
        return NotImplemented

    def __neg__(self) -> Dyadic:
        return Dyadic(-self._num, self._exp)

    def __abs__(self) -> Dyadic:
        return Dyadic(abs(self._num), self._exp)

    def __add__(self, other: Dyadic | int) -> Dyadic:
        if isinstance(other, int):
            return Dyadic(self._num + (other << self._exp), self._exp)
        if isinstance(other, Dyadic):
            if self._exp >= other._exp:
                return Dyadic(
                    self._num + (other._num << (self._exp - other._exp)), self._exp
                )
            return Dyadic(
                (self._num << (other._exp - self._exp)) + other._num, other._exp
            )
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Dyadic | int) -> Dyadic:
        return self + (-other)

    def __rsub__(self, other: Dyadic | int) -> Dyadic:
        return (-self) + other

    def __mul__(self, other: Dyadic | int) -> Dyadic:
        if isinstance(other, int):
            return Dyadic(self._num * other, self._exp)
        if isinstance(other, Dyadic):
            return Dyadic(self._num * other._num, self._exp + other._exp)
        return NotImplemented

    __rmul__ = __mul__

    def mul_pow2(self, k: int) -> Dyadic:
        """The value times 2^k, for any integer k."""
        if k >= 0:
            return Dyadic(self._num << k, self._exp)
        return Dyadic(self._num, self._exp - k)

    def floor(self) -> int:
        """Largest integer <= value (arithmetic shift floors negatives correctly)."""
        return self._num >> self._exp

    def __float__(self) -> float:
        return self._num / (1 << self._exp)
