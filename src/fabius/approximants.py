"""Step-function approximants to phi and their integer polynomials.

The polynomials are defined by p_0 = 1, p_n(x) = p_{n-1}(x^2) (1+x)^n; they
factor as the product of the geometric blocks (1+x)(1+x+x^2+x^3)...(1+...+
x^(2^n - 1)), so the coefficient of x^r counts the ways to write
r = s_1 + ... + s_n with 0 <= s_i <= 2^i - 1.  Normalizing by
2^n / 2^C(n+1,2) and laying the coefficients out on consecutive dyadic
intervals of width 2^-n gives a unimodal step function of integral one that
converges to phi.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .core import Dyadic

__all__ = [
    "IntPolynomial",
    "partition_polynomial",
    "partition_polynomial_degree",
    "plateau_numerators",
    "restricted_partitions",
    "StepFunction",
    "step_function",
]


class IntPolynomial:
    """Dense integer-coefficient polynomial; index = power of x."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs) -> None:
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, power: int) -> int:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return 0

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)})"

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __call__(self, x: int) -> int:
        total = 0
        for a in reversed(self._coeffs):
            total = total * x + a
        return total


def partition_polynomial(n: int) -> IntPolynomial:
    """p_n as the product of its geometric blocks, each one prefix-sum pass."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = [1]
    for m in range(1, n + 1):
        width = 1 << m
        sums = list(accumulate(p + [0] * (width - 1)))
        p = [a - b for a, b in zip(sums, [0] * width + sums)]
    return IntPolynomial(p)


def partition_polynomial_degree(n: int) -> int:
    """deg p_n, via g_0 = 0, g_n = 2 g_{n-1} + n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    g = 0
    for m in range(1, n + 1):
        g = 2 * g + m
    return g


def restricted_partitions(m: int, r: int) -> int:
    """Count tuples (s_1..s_m) with sum r and 0 <= s_i <= 2^i - 1.

    Direct enumeration; this is the independent oracle for the coefficients
    of p_m, intended for desk scale (m <= 5 or so).
    """
    if m < 0 or r < 0:
        raise ValueError("arguments must be >= 0")

    def count(i: int, remaining: int) -> int:
        if i == 0:
            return 1 if remaining == 0 else 0
        cap = min(remaining, (1 << i) - 1)
        return sum(count(i - 1, remaining - s) for s in range(cap + 1))

    return count(m, r)


class StepFunction(NamedTuple):
    """Level-n step approximant to phi.

    Plateau j covers [(2j-1-g)/2^(n+1), (2j+1-g)/2^(n+1)) with exact rational
    value 2^n * 2^-C(n+1,2) * p_n[j].  Ownership of points is half-open, but
    a point sitting exactly on the shared edge of two plateaus evaluates to
    the midpoint of their values (the underlying closed intervals genuinely
    overlap there, and the midpoint is the jump value the approximation
    converges with); the two support-boundary edges are unambiguous and keep
    their half-open values.  The plateau values are unimodal with peak 1 at
    the center, and width * sum(values) is exactly 1.
    """

    level: int
    values: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.values) - 1

    def interval(self, j: int) -> tuple[Dyadic, Dyadic]:
        """Half-open support [left, right) of plateau j."""
        g = self.degree
        shift = self.level + 1
        return (
            Dyadic(2 * j - 1 - g, shift),
            Dyadic(2 * j + 1 - g, shift),
        )

    def integral(self) -> Fraction:
        return sum(self.values, Fraction(0)) / (1 << self.level)

    def is_unimodal(self) -> bool:
        peak = max(self.values)
        rising = True
        prev = None
        for v in self.values:
            if prev is not None:
                if rising and v < prev:
                    rising = False
                elif not rising and v > prev:
                    return False
            prev = v
        return peak == 1

    def value_at(self, t: Dyadic | int | Fraction) -> Fraction:
        """Value at t: owning plateau's value, midpoint on interior edges, 0 outside."""
        if isinstance(t, Dyadic):
            t = t.to_fraction()
        shifted = Fraction(t) * (1 << (self.level + 1)) + self.degree + 1
        if shifted.denominator == 1 and shifted.numerator % 2 == 0:
            right = shifted.numerator // 2
            left = right - 1
            left_in = 0 <= left <= self.degree
            right_in = 0 <= right <= self.degree
            if left_in and right_in:
                return (self.values[left] + self.values[right]) / 2
            if right_in:
                return self.values[right]  # left support edge, included
            return Fraction(0)  # right support edge and beyond
        j = shifted // 2  # Fraction floor division -> int
        if 0 <= j <= self.degree:
            return self.values[j]
        return Fraction(0)


def plateau_numerators(n: int) -> tuple[tuple[int, ...], int]:
    """(p_n's coefficients, E): plateau j of level n is worth p_n[j] / 2^E.

    E = C(n, 2), since 2^n / 2^C(n+1,2) = 2^-C(n,2).
    """
    return partition_polynomial(n).coeffs, n * (n - 1) // 2


def step_function(n: int) -> StepFunction:
    """Build the level-n step approximant from p_n."""
    numerators, exp = plateau_numerators(n)
    scale = Fraction(1, 1 << exp)
    return StepFunction(level=n, values=tuple(scale * a for a in numerators))
