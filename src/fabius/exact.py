"""Exact evaluation of phi, theta, derivatives and Taylor data at dyadic points.

phi is the unique smooth function supported on [-1, 1] with phi(0) = 1 and
phi'(t) = 2 (phi(2t+1) - phi(2t-1)).  At a dyadic point t = q/2^n its value
is the finite double sum

    phi(q/2^n) = sum_{h=0}^{q+2^n-1} sum_{k=0}^{floor(n/2)} (-1)^s(h)
                 * w_k * (2(q-h) + 2^(n+1) - 1)^(n-2k)

with s(h) the binary digit sum and w_k = 2^(1 + C(2k+1,2) - C(n+1,2))
phi(1 - 2^-(2k+1)) / (n-2k)! = C(n, 2k) c_k / (n! 2^C(n+1,2)) in the series
coefficients c.  :func:`phi_exact_raw` evaluates that sum literally, in
O(2^n * n) steps, and is kept as a differential-testing twin.

:func:`phi_exact` folds the argument by evenness and by the reflection
phi(t) = 1 - phi(1-t) into [0, 1/2] and evaluates the sum in blocks.  The
range of h splits along the set bits of its upper limit into at most n+1
aligned blocks [a, a + 2^m), on which the sign factors as (-1)^s(a)
(-1)^s(h - a).  A block's signed sum of the weighted powers (y - 2h)^(n-2k)
is one polynomial B_m(y) over a common denominator per level, and halving a
block gives B_{m+1}(y) = B_m(y) - B_m(y - 2^(m+1)): n Taylor shifts and
differences build a level's O(n^3) polynomials, B_m of degree n - m
(Prouhet), and they are the only state kept.  A point then costs one Horner
evaluation per block and a single Fraction, O(n^2) bigint steps;
:func:`level_values` evaluates q <= 2^(n-1) on the level's own plan.

All derivatives reduce to theta(t) = sum_k (-1)^s(k) phi(t - 2k - 1), whose
translates have disjoint open supports: phi^(k)(t) = 2^C(k+1,2) theta(2^k t + 2^k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import NamedTuple

from .coefficients import series_coefficients
from .core import Dyadic, thue_morse_sign

__all__ = [
    "as_dyadic",
    "phi_exact",
    "phi_exact_raw",
    "level_values",
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


def _weights(n: int) -> list[Fraction]:
    # w_k = C(n, 2k) c_k / (n! 2^C(n+1,2)), the weight of exponent n - 2k
    scale = factorial(n) << (n * (n + 1) // 2)
    return [comb(n, 2 * k) * c / scale for k, c in enumerate(series_coefficients(n // 2))]


def phi_exact_raw(q: int, n: int) -> Fraction:
    """Literal double-sum evaluation of phi(q/2^n), |q| < 2^n (|q| <= 1 at n = 0).

    No evenness or reflection folding and no memoization: this is the debug
    twin used to differential-test the optimized path.  q may be negative or
    even.  At q = -2^n, which only n = 0 admits, the sum over h is empty and
    yields phi(-1) = 0.
    """
    if n < 0:
        raise ValueError("level n must be >= 0")
    if abs(q) > (1 << n) or (abs(q) == (1 << n) and n > 0):
        raise ValueError("phi_exact_raw requires |q| < 2^n")
    top = q + (1 << n)  # h runs over 0 .. q + 2^n - 1
    weights = _weights(n)
    total = Fraction(0)
    for h in range(top):
        base = 2 * (q - h) + (1 << (n + 1)) - 1
        sign = thue_morse_sign(h)
        for k, w in enumerate(weights):
            term = w * base ** (n - 2 * k)
            total += term if sign > 0 else -term
    return total


# selftest criterion 4 (levels 0..10), the session workload (10..16) and
# taylor (at most 9 levels) revisit levels; a level grid builds one plan
@lru_cache(maxsize=12)
def _level_plan(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Common denominator D of level n and one integer polynomial per block size.

    ``blocks[m]`` lists, highest power first, the coefficients of
    B_m(y) = D * sum_{h<2^m} (-1)^s(h) f(y - 2h) with f(y) = sum_k w_k y^(n-2k),
    where w_k is the weight of exponent n - 2k.  Splitting h < 2^(m+1) into
    its two halves gives B_{m+1}(y) = B_m(y) - B_m(y - 2^(m+1)); the leading
    terms cancel, so B_m has degree n - m (Prouhet).
    """
    weights = _weights(n)
    d = lcm(*(w.denominator for w in weights))
    p = [0] * (n + 1)
    for k, w in enumerate(weights):
        p[2 * k] = (w * d).numerator
    blocks = [tuple(p)]
    for m in range(1, n + 1):
        g = p[:]  # Taylor shift g(y) = p(y - 2^m)
        for i in range(len(g) - 1):
            for j in range(1, len(g) - i):
                g[j] -= g[j - 1] << m
        p = [a - b for a, b in zip(p[1:], g[1:])]
        blocks.append(tuple(p))
    return d, tuple(blocks)


def _phi_folded(q: int, n: int) -> Fraction:
    # 0 <= q <= 2^(n-1), of any parity: no fold to a coarser level.  The sum over
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


def level_values(n: int) -> list[Fraction]:
    """phi(q/2^n) for q = 0..2^n; q > 2^(n-1) by reflection, as 1 - phi."""
    if n < 0:
        raise ValueError("level n must be >= 0")
    top = 1 << n
    values = [_phi_folded(q, n) for q in range(top // 2 + 1)]
    return values + [1 - values[top - q] for q in range(len(values), top + 1)]


def level_denominator_bound(n: int) -> int:
    """A common (not necessarily minimal) denominator for all phi(q/2^n).

    The level values are integer combinations of the per-k weights, so the
    lcm of the weight denominators always works; the minimal denominator may
    be smaller and requires scanning the level.
    """
    if n < 0:
        raise ValueError("level n must be >= 0")
    return lcm(*(w.denominator for w in _weights(n)))


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
    # above order t.exp, 2^k t + 2^k is an even integer, where theta vanishes;
    # returning first skips the k-bit shifts and 2^C(k+1,2)
    if k > t.exp or abs(t.num) > (1 << t.exp):
        return Fraction(0)
    arg = Dyadic((t.num << k) + (1 << (k + t.exp)), t.exp)
    return (1 << (k * (k + 1) // 2)) * theta_exact(arg)


class TaylorPolynomial(NamedTuple):
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


# taylor_at pads zeros above the degree, so time and memory grow linearly in
# the order: taylor 1 3 1000000 takes about 2 s and 92 MB.
MAX_TAYLOR_ORDER = 10**6


def taylor_at(t: Dyadic | int | Fraction, max_order: int) -> TaylorPolynomial:
    """Taylor coefficients phi^(k)(t)/k! for k = 0..max_order, |t| <= 1."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if max_order > MAX_TAYLOR_ORDER:
        raise ValueError(f"taylor order must be at most {MAX_TAYLOR_ORDER}")
    t = as_dyadic(t)
    if abs(t.num) > (1 << t.exp):
        raise ValueError("Taylor centers must lie in [-1, 1]")
    # for k > t.exp, 2^k t + 2^k is an even integer, where theta vanishes
    top = min(max_order, t.exp)
    coeffs = tuple(phi_derivative(k, t) / factorial(k) for k in range(top + 1))
    coeffs += (Fraction(0),) * (max_order - top)
    return TaylorPolynomial(center=t, coeffs=coeffs)
