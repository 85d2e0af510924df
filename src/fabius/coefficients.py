"""Exact coefficient sequences attached to the bump function phi.

Two recurrences drive everything:

* the even power-series coefficients c_k of the transform of phi, defined by
  (2k+1) 2^(2k) c_k = sum_{h<=k} C(2k+1, 2h) c_h, solved for c_k by moving
  the h = k term across: c_k = sum_{h<k} C(2k+1, 2h) c_h / ((2k+1)(2^(2k)-1));
* the exponential-moment coefficients d_n of f(x) = 1 + x * int_0^1 e^(xt) phi(t) dt,
  with (n+1)(2^n - 1) d_n = sum_{k<n} C(n+1, k) d_k.

Both sequences admit integer normalizations (F_k and G_n below); a non-integer
result there can only mean a corrupted table and is treated as a hard failure.
The ordinary moments int_0^1 t^n phi(t) dt and the values phi(1 - 2^-n) follow
exactly from d and c, by two independent routes that the test suite compares.
Each sequence is one extend-only store shared by all callers.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

__all__ = [
    "TableIntegrityError",
    "series_coefficients",
    "series_integer_numerators",
    "exp_moment_coefficients",
    "exp_moment_integer_numerators",
    "moment",
    "phi_near_one",
    "phi_near_one_from_series",
    "CoefficientTable",
]


class TableIntegrityError(ArithmeticError):
    """A normalization that must be an integer failed to be one."""


# c and d as solved so far; both only grow, under the one lock
_C: list[Fraction] = [Fraction(1)]
_D: list[Fraction] = [Fraction(1)]
_STORE_LOCK = threading.Lock()


@lru_cache(maxsize=1)  # spectral asks for the same prefix on every synthesis
def series_coefficients(n_max: int) -> tuple[Fraction, ...]:
    """The rationals c_0..c_n_max; c_0 = 1, all strictly positive."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    with _STORE_LOCK:
        for k in range(len(_C), n_max + 1):
            rhs = sum(comb(2 * k + 1, 2 * h) * _C[h] for h in range(k))
            _C.append(rhs / ((2 * k + 1) * ((1 << (2 * k)) - 1)))
        return tuple(_C[: n_max + 1])


def _double_factorial_odd(k: int) -> int:
    # (2k+1)!! = (2k+1)(2k-1)...1
    out = 1
    for j in range(3, 2 * k + 2, 2):
        out *= j
    return out


def series_integer_numerators(c: tuple[Fraction, ...]) -> tuple[int, ...]:
    """F_k = c_k * (2k+1)!! * prod_{j<=k} (2^(2j) - 1); always a positive integer."""
    out = []
    prod = 1
    for k, ck in enumerate(c):
        if k > 0:
            prod *= (1 << (2 * k)) - 1
        value = ck * _double_factorial_odd(k) * prod
        if value.denominator != 1 or value <= 0:
            raise TableIntegrityError(f"F[{k}] is not a positive integer: {value}")
        out.append(value.numerator)
    return tuple(out)


@lru_cache(maxsize=1)
def exp_moment_coefficients(n_max: int) -> tuple[Fraction, ...]:
    """The rationals d_0..d_n_max; d_0 = 1."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    with _STORE_LOCK:
        for n in range(len(_D), n_max + 1):
            rhs = sum(comb(n + 1, k) * _D[k] for k in range(n))
            _D.append(rhs / ((n + 1) * ((1 << n) - 1)))
        return tuple(_D[: n_max + 1])


def exp_moment_integer_numerators(d: tuple[Fraction, ...]) -> tuple[int, ...]:
    """G_n = d_n * (n+1)! * prod_{k<=n} (2^k - 1); always a positive integer."""
    out = []
    prod = 1
    for n, dn in enumerate(d):
        if n > 0:
            prod *= (1 << n) - 1
        value = dn * factorial(n + 1) * prod
        if value.denominator != 1 or value <= 0:
            raise TableIntegrityError(f"G[{n}] is not a positive integer: {value}")
        out.append(value.numerator)
    return tuple(out)


def moment(n: int) -> Fraction:
    """Exact moment int_0^1 t^n phi(t) dt, equal to d_(n+1)/(n+1)."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    return exp_moment_coefficients(n + 1)[n + 1] / (n + 1)


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
    cm = series_coefficients(m)[m]
    return cm / (2 * factorial(2 * m) * (1 << (m * (2 * m + 1))))


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
        c = series_coefficients(n_max)
        d = exp_moment_coefficients(n_max)
        moments = tuple(moment(n) for n in range(n_max + 1))
        near_one = (Fraction(1),) + tuple(phi_near_one(n) for n in range(1, n_max + 1))
        return cls(
            c=c,
            F=series_integer_numerators(c),
            d=d,
            G=exp_moment_integer_numerators(d),
            moments=moments,
            phi_near_one=near_one,
        )
