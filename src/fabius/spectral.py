"""Floating-point evaluation of the transform of phi and Fourier synthesis.

The transform is entire, even, real on the real axis, and factors two ways:

    product over m >= 1 of cos(pi x / 2^m)^m
    product over m >= 1 of (1 - x^2/m^2)^(1 + val2(m))

It also satisfies hat(x) = sinc(pi x) * hat(x/2) and has the rapidly
convergent cosine synthesis

    phi(t) = 1/2 + sum_{k>=0} hat((2k+1)/2) * cos((2k+1) pi t),  t in [-1, 1],

whose coefficient signs follow the Thue-Morse sequence.  Everything here is
double precision; the exact modules never route through this one, it exists
as a verification and plotting surface.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .coefficients import series_coefficients
from .core import val2
from .exact import phi_exact

__all__ = [
    "DEFAULT_M_MAX",
    "DEFAULT_FOURIER_K",
    "transform_product",
    "transform_product_tail_bound",
    "transform_series",
    "transform_pole_product",
    "FourierCoefficients",
    "fourier_coefficients",
    "phi_fourier",
    "partition_of_unity",
    "translate_sum",
    "translate_sum_synthesis",
    "poisson_check",
]

DEFAULT_M_MAX = 60
DEFAULT_FOURIER_K = 64


def transform_product(x: float, m_max: int = DEFAULT_M_MAX) -> float:
    """Truncated cosine-power product for the transform at real x."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    out = 1.0
    for m in range(1, m_max + 1):
        out *= math.cos(math.pi * x / (1 << m)) ** m
    return out


def transform_product_tail_bound(x: float, m_max: int) -> float:
    """Bound on the neglected tail of :func:`transform_product`.

    Each dropped factor differs from 1 by at most m (pi x / 2^m)^2 / 2; the
    sum over m > m_max has the closed form below.
    """
    t = (math.pi * x) ** 2 / 2
    return t * (12 * m_max + 16) / (9 * 4 ** (m_max + 1))


def transform_series(x: float, terms: int = 24) -> float:
    """Partial power-series sum; exact coefficients, floats only at the end.

    Alternating with rapidly shrinking terms for |x| <= 1; suffers
    cancellation for large |x|, where the product form should be used.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    c = series_coefficients(terms)
    total = 0.0
    for k in range(terms + 1):
        term = float(c[k] / math.factorial(2 * k)) * (2 * math.pi * x) ** (2 * k)
        total += term if k % 2 == 0 else -term
    return total


def transform_pole_product(x: float, m_max: int) -> float:
    """Truncated pole-form product prod (1 - x^2/m^2)^(1 + val2(m)).

    Converges only algebraically; callers must compensate the tail (the test
    suite carries the compensation heuristic).
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    out = 1.0
    xx = x * x
    for m in range(1, m_max + 1):
        out *= (1.0 - xx / (m * m)) ** (1 + val2(m))
    return out


class FourierCoefficients(NamedTuple):
    """Snapshot of the cosine-synthesis coefficients a[k] ~ hat((2k+1)/2).

    Signs follow the Thue-Morse sequence for every coefficient above 1e-10
    in magnitude; 1/2 + sum(a) reproduces phi(0) = 1 within 1e-10.
    """

    a: tuple[float, ...]

    @property
    def K(self) -> int:
        return len(self.a)


def fourier_coefficients(
    K: int = DEFAULT_FOURIER_K,
    m_max: int = DEFAULT_M_MAX,
) -> FourierCoefficients:
    """Coefficients a[k] = transform at (2k+1)/2 for k = 0..K-1."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return FourierCoefficients(
        a=tuple(transform_product((2 * k + 1) / 2, m_max) for k in range(K)),
    )


def phi_fourier(t: float, fc: FourierCoefficients) -> float:
    """Cosine synthesis of phi at any real t in [-1, 1]."""
    total = 0.5
    for k, ak in enumerate(fc.a):
        total += ak * math.cos((2 * k + 1) * math.pi * t)
    return total


def partition_of_unity(t: float, n: int, fc: FourierCoefficients) -> float:
    """sum_k phi(t + k/n) over the lattice points meeting [-1, 1]; contract: ~ n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return translate_sum(t, 1 / n, fc)


def translate_sum(t: float, u: float, fc: FourierCoefficients) -> float:
    """Direct side of the periodization identity: sum_k phi(t + u k)."""
    if u <= 0:
        raise ValueError("u must be > 0")
    lo = math.ceil((-1 - t) / u)
    hi = math.floor((1 - t) / u)
    return sum(phi_fourier(t + u * k, fc) for k in range(lo, hi + 1))


def translate_sum_synthesis(t: float, u: float) -> float:
    """Fourier side of the periodization identity.

    (1/u) sum_k hat(k/u) e^(2 pi i k t / u), folded to a real cosine sum over
    |k| <= 128; the exponential is t-dependent, which is what the direct
    side's Fourier expansion in t requires.
    """
    if u <= 0:
        raise ValueError("u must be > 0")
    total = transform_product(0.0) / u
    for m in range(1, 129):
        total += 2.0 / u * transform_product(m / u) * math.cos(2 * math.pi * m * t / u)
    return total


def poisson_check(a: float) -> tuple[float, float]:
    """Two sides of the lattice identity a + 2a phi(a) = sum_m hat(m/a).

    Valid for 1/2 <= a <= 1.  Every double there is a dyadic of level at
    most 53, so the left side takes phi(a) from the exact evaluator and is
    rounded once.  The right side is truncated once the terms stay
    negligible (terms are not monotone: integer arguments give ~0).
    """
    if not 0.5 <= a <= 1.0:
        raise ValueError("poisson_check requires 1/2 <= a <= 1")
    lhs = a + 2.0 * a * float(phi_exact(Fraction(a)))
    rhs = transform_product(0.0)
    tiny_run = 0
    m = 1
    while m <= 512 and tiny_run < 4:
        term = 2.0 * transform_product(m / a)
        rhs += term
        tiny_run = tiny_run + 1 if abs(term) < 1e-18 else 0
        m += 1
    return lhs, rhs
