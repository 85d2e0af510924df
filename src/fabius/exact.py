"""Exact evaluation of phi, theta, derivatives and Taylor data at dyadic points.

phi is the unique smooth function supported on [-1, 1] with phi(0) = 1 and
phi'(t) = 2 (phi(2t+1) - phi(2t-1)).  At a dyadic point t = q/2^n its value
is the finite double sum

    phi(q/2^n) = 2 * sum_{h=0}^{q+2^n-1} sum_{k=0}^{floor(n/2)} (-1)^s(h)
                 * 2^(C(2k+1,2) - C(n+1,2)) / (n-2k)!
                 * (2(q-h) + 2^(n+1) - 1)^(n-2k) * phi(1 - 2^-(2k+1))

with s(h) the binary digit sum and phi(1 - 2^-(2k+1)) taken from the exact
coefficient tables.  :func:`phi_exact_raw` evaluates that sum literally, in
O(2^n * n) steps, and is kept as a differential-testing twin.

:func:`phi_exact` folds the argument by evenness and by the reflection
phi(t) = 1 - phi(1-t) into [0, 1/2], memoizes per canonical point, and
evaluates the sum in blocks.  The range of h splits along the set bits of its
upper limit into at most n+1 aligned blocks [a, a + 2^m), on which the sign
factors as (-1)^s(a) (-1)^s(h - a).  A block's sum of (y - 2h)^j is then a
polynomial in y whose coefficients are the Thue-Morse power sums
P_m(i) = sum_{h<2^m} (-1)^s(h) h^i, and these vanish for i < m (Prouhet).
Per level the weights and power sums fold into one integer polynomial per
block size, over a common denominator, so a point costs one Horner
evaluation per block and a single Fraction: O(n^2) bigint steps once the
level's O(n^3) polynomials exist.

All derivatives reduce to theta(t) = sum_k (-1)^s(k) phi(t - 2k - 1), whose
translates have disjoint open supports: phi^(k)(t) = 2^C(k+1,2) theta(2^k t + 2^k).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .coefficients import phi_near_one
from .core import Dyadic, thue_morse_sign

__all__ = [
    "as_dyadic",
    "phi_exact",
    "phi_exact_raw",
    "theta_exact",
    "phi_derivative",
    "taylor_at",
    "TaylorPolynomial",
    "level_denominator_bound",
]


def as_dyadic(t: Dyadic | int | Fraction) -> Dyadic:
    """Coerce exact input to a canonical Dyadic."""
    if isinstance(t, Dyadic):
        return t
    return Dyadic.from_fraction(Fraction(t))


def _weight(n: int, k: int) -> Fraction:
    # prefactor of the inner integer sum for exponent j = n - 2k
    e = k * (2 * k + 1) - n * (n + 1) // 2
    scale = Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
    return 2 * scale / factorial(n - 2 * k) * phi_near_one(2 * k + 1)


def phi_exact_raw(q: int, n: int) -> Fraction:
    """Literal double-sum evaluation of phi(q/2^n), |q| < 2^n.

    No evenness or reflection folding and no memoization: this is the debug
    twin used to differential-test the optimized path.  q may be negative or
    even; the empty sum at q = -2^n + ... <= -2^n boundary yields 0.
    """
    if n < 0:
        raise ValueError("level n must be >= 0")
    if abs(q) > (1 << n) or (abs(q) == (1 << n) and n > 0):
        raise ValueError("phi_exact_raw requires |q| < 2^n")
    top = q + (1 << n)  # h runs over 0 .. q + 2^n - 1
    total = Fraction(0)
    for h in range(top):
        base = 2 * (q - h) + (1 << (n + 1)) - 1
        sign = thue_morse_sign(h)
        for k in range(n // 2 + 1):
            term = _weight(n, k) * base ** (n - 2 * k)
            total += term if sign > 0 else -term
    return total


# Thue-Morse power sums P_m(i) = sum_{h<2^m} (-1)^s(h) h^i, extend-only and
# shared by every level: _POWER_SUMS[m][i] for m, i below len(_POWER_SUMS).
_POWER_SUMS: list[list[int]] = [[1]]
_POWER_SUMS_LOCK = threading.Lock()


def _power_sums(size: int) -> list[list[int]]:
    """The power-sum table grown to at least ``size`` rows and columns.

    Splitting h < 2^(m+1) into its lower and upper halves gives
    P_{m+1}(i) = P_m(i) - sum_l C(i,l) 2^(m(i-l)) P_m(l), and P_m(l) = 0 for
    l < m (Prouhet), so the sum starts at l = m.
    """
    with _POWER_SUMS_LOCK:
        table = _POWER_SUMS
        if len(table) < size:
            table[0].extend([0] * (size - len(table[0])))
            for m in range(1, size):
                if m == len(table):
                    table.append([0] * m)
                prev, row, s = table[m - 1], table[m], m - 1
                for i in range(len(row), size):
                    row.append(prev[i] - sum(
                        comb(i, l) * prev[l] << s * (i - l) for l in range(s, i + 1)
                    ))
        return table


@lru_cache(maxsize=32)  # a level grid reaches every coarser level too
def _level_plan(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Common denominator D of level n and one integer polynomial per block size.

    ``blocks[m]`` lists, highest power first, the coefficients of
    D * sum_k w_k * sum_{h<2^m} (-1)^s(h) (y - 2h)^(n-2k) as a polynomial in y,
    where w_k is the weight of exponent n - 2k.  Expanding the binomial leaves
    C(j,i) (-2)^i P_m(i) y^(j-i), and only i >= m survive.
    """
    d = level_denominator_bound(n)
    weights = [(_weight(n, k) * d).numerator for k in range(n // 2 + 1)]
    sums = _power_sums(n + 1)
    blocks = []
    for m in range(n + 1):
        row = sums[m]
        coeffs = []
        for e in range(n - m, -1, -1):
            c = 0
            for k, w in enumerate(weights):
                j = n - 2 * k
                i = j - e
                if i < m:
                    break
                c += (-w if i & 1 else w) * comb(j, e) * row[i] << i
            coeffs.append(c)
        blocks.append(tuple(coeffs))
    return d, tuple(blocks)


@lru_cache(maxsize=None)
def _phi_folded(q: int, n: int) -> Fraction:
    # canonical q odd (or q == 0, n == 0), 0 <= q/2^n <= 1/2.  The sum over
    # h < top = q + 2^n of (-1)^s(h) (2 top - 1 - 2h)^j splits along the set
    # bits of top into aligned blocks [start, start + 2^m), where
    # s(start + h') = s(start) + s(h').
    d, blocks = _level_plan(n)
    top = q + (1 << n)
    total = 0
    start = 0
    for m in range(n, -1, -1):
        if top >> m & 1:
            y = 2 * (top - start) - 1
            v = 0
            for c in blocks[m]:
                v = v * y + c
            total += -v if start.bit_count() & 1 else v
            start += 1 << m
    return Fraction(total, d)


def phi_exact(t: Dyadic | int | Fraction) -> Fraction:
    """Exact rational value of phi at a dyadic point; 0 outside (-1, 1)."""
    t = as_dyadic(t)
    q, n = abs(t.num), t.exp  # evenness fold
    if q >= (1 << n):
        return Fraction(0)
    if 2 * q > (1 << n):
        # reflection phi(t) = 1 - phi(1 - t) into [0, 1/2]
        return 1 - _phi_folded((1 << n) - q, n)
    return _phi_folded(q, n)


def level_denominator_bound(n: int) -> int:
    """A common (not necessarily minimal) denominator for all phi(q/2^n).

    The level values are integer combinations of the per-k weights, so the
    lcm of the weight denominators always works; the minimal denominator may
    be smaller and requires scanning the level.
    """
    if n < 0:
        raise ValueError("level n must be >= 0")
    d = 1
    for k in range(n // 2 + 1):
        d = lcm(d, _weight(n, k).denominator)
    return d


def theta_exact(t: Dyadic | int | Fraction) -> Fraction:
    """Exact theta at a dyadic point.

    theta(t) = sum_{k>=0} (-1)^s(k) phi(t - 2k - 1); at most one summand is
    nonzero since the k-th translate lives on (2k, 2k+2).  Zero for t <= 0
    and at even integers.
    """
    t = as_dyadic(t)
    if t.num <= 0:
        return Fraction(0)
    k = t.num >> (t.exp + 1)
    if (k << (t.exp + 1)) == t.num:
        return Fraction(0)  # even integer
    inner = Dyadic(t.num - ((2 * k + 1) << t.exp), t.exp)
    value = phi_exact(inner)
    return -value if k.bit_count() & 1 else value


def phi_derivative(k: int, t: Dyadic | int | Fraction) -> Fraction:
    """Exact k-th derivative of phi at a dyadic point (0 outside [-1, 1]).

    phi^(k)(t) = 2^C(k+1,2) * theta(2^k t + 2^k); k = 0 agrees with phi_exact.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    t = as_dyadic(t)
    if abs(t.num) > (1 << t.exp):
        return Fraction(0)
    arg = Dyadic((t.num << k) + (1 << (k + t.exp)), t.exp)
    return (1 << (k * (k + 1) // 2)) * theta_exact(arg)


@dataclass(frozen=True)
class TaylorPolynomial:
    """Exact Taylor coefficients of phi at a dyadic center.

    ``coeffs[k]`` is phi^(k)(center)/k!.  At center q/2^n with q odd and
    |q| < 2^n all derivatives of order above n vanish, so the polynomial has
    degree exactly n there; ``degree`` reports the honest degree (-1 for the
    zero polynomial at the support edges).
    """

    center: Dyadic
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return -1

    def __call__(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        total = Fraction(0)
        for coeff in reversed(self.coeffs):
            total = total * x + coeff
        return total


def taylor_at(t: Dyadic | int | Fraction, max_order: int) -> TaylorPolynomial:
    """Taylor coefficients phi^(k)(t)/k! for k = 0..max_order, |t| <= 1."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    t = as_dyadic(t)
    if abs(t.num) > (1 << t.exp):
        raise ValueError("Taylor centers must lie in [-1, 1]")
    coeffs = tuple(
        phi_derivative(k, t) / factorial(k) for k in range(max_order + 1)
    )
    return TaylorPolynomial(center=t, coeffs=coeffs)
