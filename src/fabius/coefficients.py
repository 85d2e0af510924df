"""Exact coefficient sequences attached to the bump function phi.

One recurrence at two strides drives everything,
(sk+1)(2^(sk) - 1) x_k = sum_{h<k} C(sk+1, sh) x_h with x_0 = 1:

* at s = 2, the even power-series coefficients c_k of the transform of phi,
  defined by (2k+1) 2^(2k) c_k = sum_{h<=k} C(2k+1, 2h) c_h with the h = k
  term moved across;
* at s = 1, the exponential-moment coefficients d_n of
  f(x) = 1 + x * int_0^1 e^(xt) phi(t) dt.

Both sequences admit integer normalizations: F_k and G_n scale c_k and d_n by
the product of the divisors divisor(j) = (sj+1)(2^(sj) - 1) up to index k or n.
The ordinary moments int_0^1 t^n phi(t) dt and the values phi(1 - 2^-n) follow
exactly from d and c, by two independent routes that the test suite compares.
Each sequence is one extend-only store shared by all callers, and it holds
integers only.  Entry k of a store is the pair (x_k * S_k, S_k) with
S_k = divisor(1) * ... * divisor(k): the integer that the recurrence is summed
in, which is F_k or G_k, then its scale.  Every public sequence takes a length
n_max and reads its first n_max + 1 entries from the store.  F and G are read
as summed; a value x_k = Fraction(x_k * S_k, S_k) is reduced only where it is
read, for a whole prefix by series_coefficients and exp_moment_coefficients
and for one entry by moment and phi_near_one_from_series.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

__all__ = [
    "series_coefficients",
    "series_integer_numerators",
    "exp_moment_coefficients",
    "exp_moment_integer_numerators",
    "moment",
    "phi_near_one",
    "phi_near_one_from_series",
    "CoefficientTable",
]


# c and d as solved so far, as (x_k * S_k, S_k), keyed by stride; both only
# grow, under the one lock
_STORES: dict[int, list[tuple[int, int]]] = {2: [(1, 1)], 1: [(1, 1)]}
_STORE_LOCK = threading.Lock()


def _solve(s: int, n_max: int) -> list[tuple[int, int]]:
    # entries 0..n_max of the stride-s store (s = 2 for c, 1 for d), grown by
    # x_k = sum_{h<k} C(sk+1, sh) x_h / divisor(k).
    # Scaled by divisor(1)..divisor(k-1), term h carries the divisors h+1..k-1, so
    # one upward Horner pass over the stored integers multiplies by divisor(h),
    # its factor 2^(sh) - 1 as a shift and a subtraction, before adding term h;
    # divisor(0) = 0 only multiplies the empty sum.
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    store = _STORES[s]
    with _STORE_LOCK:
        for k in range(len(store), n_max + 1):
            acc = 0
            for h in range(k):
                t = acc * (s * h + 1)
                acc = (t << s * h) - t + comb(s * k + 1, s * h) * store[h][0]
            store.append((acc, store[-1][1] * (s * k + 1) * ((1 << s * k) - 1)))
        return store[: n_max + 1]


# the cache saves reducing a prefix again: exact._level_plan and
# level_denominator_bound ask exact._weights for the same one, and so does a
# second level with the same n//2 (eval 2 9); perfbench's tracer reads
# cache_info().
@lru_cache(maxsize=1)
def series_coefficients(n_max: int) -> tuple[Fraction, ...]:
    """The rationals c_0..c_n_max; c_0 = 1, all strictly positive."""
    return tuple(Fraction(f, s) for f, s in _solve(2, n_max))


def series_integer_numerators(n_max: int) -> tuple[int, ...]:
    """The positive integers F_0..F_n_max, F_k = c_k * (2k+1)!! * prod_{j<=k} (2^(2j) - 1).

    They are the integers the c store is summed in, read from it as they are.
    """
    return tuple(f for f, _ in _solve(2, n_max))


@lru_cache(maxsize=1)
def exp_moment_coefficients(n_max: int) -> tuple[Fraction, ...]:
    """The rationals d_0..d_n_max; d_0 = 1."""
    return tuple(Fraction(g, s) for g, s in _solve(1, n_max))


def exp_moment_integer_numerators(n_max: int) -> tuple[int, ...]:
    """The positive integers G_0..G_n_max, G_n = d_n * (n+1)! * prod_{k<=n} (2^k - 1).

    They are the integers the d store is summed in, read from it as they are.
    """
    return tuple(g for g, _ in _solve(1, n_max))


def moment(n: int) -> Fraction:
    """Exact moment int_0^1 t^n phi(t) dt, equal to d_(n+1)/(n+1)."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    g, s = _solve(1, n + 1)[n + 1]
    return Fraction(g, s * (n + 1))


@lru_cache(maxsize=None)
def phi_near_one(n: int) -> Fraction:
    """Exact phi(1 - 2^-n) for n >= 1, via the moment route."""
    if n < 1:
        raise ValueError("phi_near_one requires n >= 1")
    return moment(n - 1) / (factorial(n - 1) * (1 << (n * (n - 1) // 2)))


def phi_near_one_from_series(m: int) -> Fraction:
    """Exact phi(1 - 2^-(2m+1)) via the closed form in c_m; independent of moment()."""
    if m < 0:
        raise ValueError("m must be >= 0")
    f, s = _solve(2, m)[m]
    return Fraction(f, s * 2 * factorial(2 * m) * (1 << (m * (2 * m + 1))))


class CoefficientTable(NamedTuple):
    """Immutable snapshot of all coefficient sequences up to a given length.

    ``moments[n]`` is int_0^1 t^n phi(t) dt and ``phi_near_one[n]`` is
    phi(1 - 2^-n); index 0 of the latter holds the degenerate n = 0 value
    phi(0) = 1 so that indexing matches the mathematical level directly.
    """

    c: tuple[Fraction, ...]
    F: tuple[int, ...]
    d: tuple[Fraction, ...]
    G: tuple[int, ...]
    moments: tuple[Fraction, ...]
    phi_near_one: tuple[Fraction, ...]

    @classmethod
    def build(cls, n_max: int) -> CoefficientTable:
        moments = tuple(moment(n) for n in range(n_max + 1))
        near_one = (Fraction(1),) + tuple(phi_near_one(n) for n in range(1, n_max + 1))
        return cls(
            c=series_coefficients(n_max),
            F=series_integer_numerators(n_max),
            d=exp_moment_coefficients(n_max),
            G=exp_moment_integer_numerators(n_max),
            moments=moments,
            phi_near_one=near_one,
        )
