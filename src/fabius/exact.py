"""Exact evaluation of phi, its derivatives and Taylor data at dyadic points.

phi is the unique smooth function supported on [-1, 1] with phi(0) = 1 and
phi'(t) = 2 (phi(2t+1) - phi(2t-1)).  At a dyadic point t = q/2^n its value
is the finite double sum

    phi(q/2^n) = sum_{h=0}^{q+2^n-1} sum_{k=0}^{floor(n/2)} (-1)^s(h)
                 * w_k * (2(q-h) + 2^(n+1) - 1)^(n-2k)

with s(h) the binary digit sum and w_k = 2^(1 + C(2k+1,2) - C(n+1,2))
phi(1 - 2^-(2k+1)) / (n-2k)! = C(n, 2k) c_k / (n! 2^C(n+1,2)) in the series
coefficients c.  :func:`phi_exact_raw` evaluates that sum literally, in
O(2^n * n) steps, and is kept as a differential-testing twin.

:func:`phi_exact` evaluates the sum in blocks at every q in (-2^n, 2^n).  The
range of h splits along the set bits of its upper limit into at most n+1
aligned blocks [a, a + 2^m), on which the sign factors as (-1)^s(a)
(-1)^s(h - a).  A block's signed sum of the weighted powers (y - 2h)^(n-2k)
is one polynomial B_m(y) over a common denominator per level, and halving a
block gives B_{m+1}(y) = B_m(y) - B_m(y - 2^(m+1)): n Taylor shifts and
differences build a level's O(n^3) polynomials, B_m of degree n - m
(Prouhet), and they are the only state kept.  A point then costs one
Horner pass per block and a single Fraction, O(n^2) bigint steps.

A whole level stays in integers over one denominator d, the plan's, and
comes from one recurrence over the same blocks: W(q) = d - d phi(q/2^n) has
W(0) = 0 and W(2^m + r) = B_m(2^(m+1) + 2r - 1) - W(r) for m < n, r < 2^m.
This is the walk read along the highest set bit m of q: bit n of q + 2^n
gives d, bit m gives -B_m(2q - 1), and every lower block flips sign.  Each q
costs one Horner pass of degree n - m, and no symmetry of phi is applied.
The minimal level denominator is D = d / gcd(d, numerators), and
:func:`level_numerators` returns those numerators with D.

The plan holds every derivative: A_n(y) = sum_k C(n, 2k) c_k y^(n-2k) is
an Appell sequence, so with Prouhet phi^(k)(q/2^n)/k! is 2^(k(n+1)) times
the blocks' signed k-th Taylor coefficients at the same y, which k synthetic
divisions and one Horner pass per block read off.  This agrees with
phi^(k)(t) = 2^C(k+1,2) theta(2^k t + 2^k) for the alternating translate
sum theta(t) = sum_{j>=0} (-1)^s(j) phi(t - 2j - 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import NamedTuple

from .coefficients import series_coefficients
from .core import Dyadic, thue_morse_sign

__all__ = [
    "phi_exact",
    "phi_exact_raw",
    "level_numerators",
    "phi_derivative",
    "taylor_at",
    "TaylorPolynomial",
    "level_denominator_bound",
]


def _weights(n: int) -> tuple[int, list[int]]:
    # (d, [d w_k]) with w_k = C(n, 2k) c_k / (n! 2^C(n+1,2)) the weight of
    # exponent n - 2k and d the lcm of the weights' denominators
    scale = factorial(n) << (n * (n + 1) // 2)
    weights = [comb(n, 2 * k) * c / scale for k, c in enumerate(series_coefficients(n // 2))]
    d = lcm(*(w.denominator for w in weights))
    return d, [w.numerator * (d // w.denominator) for w in weights]


def phi_exact_raw(q: int, n: int) -> Fraction:
    """Literal double-sum evaluation of phi(q/2^n), |q| < 2^n (|q| <= 1 at n = 0).

    No blocks and no memoization: this is the debug twin used to
    differential-test the block walk.  q may be negative or even.  At
    q = -2^n, which only n = 0 admits, the sum over h is empty and yields
    phi(-1) = 0.
    """
    if n < 0:
        raise ValueError("level n must be >= 0")
    if abs(q) > (1 << n) or (abs(q) == (1 << n) and n > 0):
        raise ValueError("phi_exact_raw requires |q| < 2^n")
    top = q + (1 << n)  # h runs over 0 .. q + 2^n - 1
    d, weights = _weights(n)
    total = 0
    for h in range(top):
        base = 2 * (q - h) + (1 << (n + 1)) - 1
        sign = thue_morse_sign(h)
        for k, w in enumerate(weights):
            total += sign * w * base ** (n - 2 * k)
    return Fraction(total, d)


# selftest criterion 4 (level 10) and the session workload (13..16) revisit
# levels; a level grid and a Taylor vector build one plan each
@lru_cache(maxsize=12)
def _level_plan(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Common denominator d of level n and one integer polynomial per block size.

    ``blocks[m]`` lists, highest power first, the coefficients of
    B_m(y) = d * sum_{h<2^m} (-1)^s(h) f(y - 2h) with f(y) = sum_k w_k y^(n-2k),
    where w_k is the weight of exponent n - 2k.  Splitting h < 2^(m+1) into
    its two halves gives B_{m+1}(y) = B_m(y) - B_m(y - 2^(m+1)); the leading
    terms cancel, so B_m has degree n - m (Prouhet).
    """
    d, weights = _weights(n)
    p = [0] * (n + 1)
    p[::2] = weights
    blocks = [tuple(p)]
    for m in range(1, n + 1):
        g = p[:]  # Taylor shift g(y) = p(y - 2^m)
        for i in range(len(g) - 1):
            for j in range(1, len(g) - i):
                g[j] -= g[j - 1] << m
        p = [a - b for a, b in zip(p[1:], g[1:])]
        blocks.append(tuple(p))
    return d, tuple(blocks)


def _horner(p, y: int) -> int:
    # p(y) for p's coefficients listed highest power first
    value = 0
    for a in p:
        value = value * y + a
    return value


def _taylor(t: Dyadic, order: int) -> list[Fraction]:
    # phi^(k)(t)/k!, k <= order: zero outside (-1, 1) and above order t.exp.
    # q = t.num of any parity; blocks as in the module doc, and entry k of
    # totals is d phi^(k)(t) / (k! 2^(k(n+1))), d the plan's denominator
    n = t.exp
    if abs(t.num) >= (1 << n):
        return [Fraction(0)] * (order + 1)
    d, blocks = _level_plan(n)
    top = t.num + (1 << n)
    totals = [0] * (min(order, n) + 1)
    start = 0
    for m in range(n, -1, -1):
        if top >> m & 1:
            y = 2 * (top - start) - 1
            p = list(blocks[m]) if order else blocks[m]
            sign = thue_morse_sign(start)
            last = min(order, n - m)
            for k in range(last):
                for i in range(1, len(p)):  # divide by (x - y), remainder last
                    p[i] += p[i - 1] * y
                totals[k] += sign * p.pop()
            totals[last] += sign * _horner(p, y)  # the last order: the remainder
            start += 1 << m
    coeffs = [Fraction(v << k * (n + 1), d) for k, v in enumerate(totals)]
    return coeffs + [Fraction(0)] * (order - n)


def phi_exact(t: Dyadic | int | Fraction) -> Fraction:
    """Exact rational value of phi at a dyadic point; 0 outside (-1, 1)."""
    return _taylor(Dyadic.from_fraction(t), 0)[0]


def level_numerators(n: int) -> tuple[list[int], int]:
    """(D phi(q/2^n) for q = 0..2^n, D) with D the minimal level denominator.

    Every q, the upper half included, comes from one recurrence over the
    level plan: W(q) = d - d phi(q/2^n), d the plan's denominator, is
    W(0) = 0 and W(2^m + r) = B_m(2^(m+1) + 2r - 1) - W(r) for m < n and
    r < 2^m (see the module doc).  D is d / gcd(d, numerators).
    """
    if n < 0:
        raise ValueError("level n must be >= 0")
    d, blocks = _level_plan(n)
    w = [0]
    for m in range(n):
        w += [_horner(blocks[m], (2 << m) + 2 * r - 1) - w[r] for r in range(1 << m)]
    numerators = [d - v for v in w] + [0]
    g = gcd(d, *numerators)
    return [v // g for v in numerators], d // g


def level_denominator_bound(n: int) -> int:
    """A common (not necessarily minimal) denominator for all phi(q/2^n).

    The level values are integer combinations of the per-k weights, so the
    lcm of the weight denominators always works; the minimal denominator may
    be smaller and requires scanning the level.
    """
    if n < 0:
        raise ValueError("level n must be >= 0")
    return _weights(n)[0]


def phi_derivative(k: int, t: Dyadic | int | Fraction) -> Fraction:
    """Exact k-th derivative of phi at a dyadic point (0 outside [-1, 1])."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    t = Dyadic.from_fraction(t)
    # above order t.exp the derivative vanishes; return before building the plan
    if k > t.exp:
        return Fraction(0)
    return _taylor(t, k)[k] * factorial(k)


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
        # above order center.exp every coefficient is a zero taylor_at padded
        for k in range(min(len(self.coeffs) - 1, self.center.exp), -1, -1):
            if self.coeffs[k]:
                return k
        return -1


# taylor_at pads zeros above the degree, so time and memory grow linearly in
# the order: taylor 1 3 1000000 took 0.69-0.87 s and 38 MB on a 2-vCPU VM.
MAX_TAYLOR_ORDER = 10**6


def taylor_at(t: Dyadic | int | Fraction, max_order: int) -> TaylorPolynomial:
    """Taylor coefficients phi^(k)(t)/k! for k = 0..max_order, |t| <= 1."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if max_order > MAX_TAYLOR_ORDER:
        raise ValueError(f"taylor order must be at most {MAX_TAYLOR_ORDER}")
    t = Dyadic.from_fraction(t)
    if abs(t.num) > (1 << t.exp):
        raise ValueError("Taylor centers must lie in [-1, 1]")
    return TaylorPolynomial(center=t, coeffs=tuple(_taylor(t, max_order)))
