"""Step-function approximants to phi and their integer polynomials.

The polynomials are defined by p_0 = 1, p_n(x) = p_{n-1}(x^2) (1+x)^n; they
factor as the product of the geometric blocks (1+x)(1+x+x^2+x^3)...(1+...+
x^(2^n - 1)), so the coefficient of x^r counts the ways to write
r = s_1 + ... + s_n with 0 <= s_i <= 2^i - 1.  A polynomial here is the plain
tuple of its integer coefficients, index = power of x.  Normalizing by
2^n / 2^C(n+1,2) and laying the coefficients out on consecutive dyadic
intervals of width 2^-n gives a unimodal step function of integral one that
converges to phi.  Since 2^n / 2^C(n+1,2) = 2^-C(n,2), a step function is
p_n's coefficients over the one denominator 2^C(n,2), and it stays in those
integers until an answer is asked for.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, pairwise, product
from typing import NamedTuple

from .core import Dyadic

__all__ = [
    "partition_polynomial",
    "restricted_partitions",
    "StepFunction",
    "step_function",
]


def partition_polynomial(n: int) -> tuple[int, ...]:
    """p_n as the product of its geometric blocks, each one prefix-sum pass."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = [1]
    for m in range(1, n + 1):
        width = 1 << m
        sums = list(accumulate(p + [0] * (width - 1)))
        p = [a - b for a, b in zip(sums, [0] * width + sums)]
    return tuple(p)


def restricted_partitions(m: int) -> tuple[int, ...]:
    """Counts of tuples (s_1..s_m) with 0 <= s_i <= 2^i - 1, by their sum r.

    Entry r is the count for sum r, for r = 0..deg p_m.  One pass over every
    tuple, with no polynomial arithmetic: this is the independent oracle for
    the coefficients of p_m.  It visits 2^C(m+1,2) tuples, which is desk
    scale up to m = 5 (32768 tuples).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    counts = [0] * ((1 << (m + 1)) - m - 1)  # deg p_m = 2^(m+1) - m - 2
    for s in product(*(range(1 << i) for i in range(1, m + 1))):
        counts[sum(s)] += 1
    return tuple(counts)


class StepFunction(NamedTuple):
    """Level-n step approximant to phi: plateau j is worth numerators[j] / 2^exp.

    ``numerators`` are p_n's coefficients and exp = C(n, 2).  Plateau j covers
    [(2j-1-g)/2^(n+1), (2j+1-g)/2^(n+1)), g the degree.  Ownership of points
    is half-open, but a point sitting exactly on the shared edge of two
    plateaus evaluates to the midpoint of their values (the underlying closed
    intervals genuinely overlap there, and the midpoint is the jump value the
    approximation converges with); the two support-boundary edges are
    unambiguous and keep their half-open values.  The plateau values are
    unimodal with peak 1 at the center, and width * sum(values) is exactly 1.
    ``integral``, ``is_unimodal`` and ``value_at`` work on the integers and
    build one Fraction per answer.
    """

    level: int
    numerators: tuple[int, ...]

    @property
    def exp(self) -> int:
        return self.level * (self.level - 1) // 2

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def integral(self) -> Fraction:
        return Fraction(sum(self.numerators), 1 << (self.exp + self.level))

    def is_unimodal(self) -> bool:
        """Non-decreasing up to the first maximum, non-increasing from it, peak 1."""
        v = self.numerators
        i = v.index(max(v))
        return (
            all(a <= b for a, b in pairwise(v[: i + 1]))
            and all(a >= b for a, b in pairwise(v[i:]))
            and v[i] == 1 << self.exp
        )

    def value_at(self, t: Dyadic | int | Fraction) -> Fraction:
        """Value at t: owning plateau's value, midpoint on interior edges, 0 outside."""
        if isinstance(t, Dyadic):
            t = t.to_fraction()
        # plateau j owns s in [2j, 2j + 2); s = 2j is its left edge
        s = Fraction(t) * (1 << (self.level + 1)) + self.degree + 1
        j = s // 2  # Fraction floor division -> int
        if not 0 <= j <= self.degree:
            return Fraction(0)
        if s == 2 * j and j > 0:  # interior edge
            return Fraction(self.numerators[j - 1] + self.numerators[j], 2 << self.exp)
        return Fraction(self.numerators[j], 1 << self.exp)  # left support edge included


def step_function(n: int) -> StepFunction:
    """Build the level-n step approximant from p_n."""
    return StepFunction(n, partition_polynomial(n))
