"""Spectral paths: products, series, Fourier synthesis, lattice identities."""

import math
import random
from fractions import Fraction

import pytest

from fabius.core import Dyadic, thue_morse_sign
from fabius.exact import phi_exact
from fabius.spectral import (
    fourier_coefficients,
    phi_fourier,
    poisson_check,
    transform_pole_product,
    transform_product,
    transform_series,
    translate_sum,
)
from test_exact import phi_enclosure


def translate_sum_synthesis(t: float, u: float) -> float:
    """Fourier side of the periodization identity.

    (1/u) sum_k hat(k/u) e^(2 pi i k t / u), folded to a real cosine sum over
    |k| <= 128; the exponential is t-dependent, which is what the direct
    side's Fourier expansion in t requires.
    """
    total = transform_product(0.0) / u
    for m in range(1, 129):
        total += 2.0 / u * transform_product(m / u) * math.cos(2 * math.pi * m * t / u)
    return total


@pytest.fixture(scope="module")
def fc():
    return fourier_coefficients(K=64, m_max=60)


class TestTransformProduct:
    def test_normalization(self):
        assert transform_product(0.0) == 1.0

    def test_zero_at_one(self):
        # the m = 1 factor cos(pi/2) is zero up to rounding
        assert abs(transform_product(1.0)) <= 1e-15

    @pytest.mark.parametrize("m_max", [1, 60, 1023])
    def test_early_stop_matches_full_product(self, m_max):
        # every later factor is exactly 1.0 once |pi x / 2^m| < 2^-27; a stop
        # at the first factor equal to 1.0 would be wrong (x = 4, m = 1)
        def full(x):
            out = 1.0
            for m in range(1, m_max + 1):
                out *= math.cos(math.pi * x / (1 << m)) ** m
            return out

        xs = {(2 * k + 1) / 2 for k in range(1024)}
        xs |= {m / a for a in (0.5, 0.75, 1.0) for m in range(513)}
        xs |= {2.0**j for j in range(-8, 10)}
        for x in sorted(xs):
            assert transform_product(x, m_max) == full(x), x

    def test_functional_equation(self):
        for x in (0.1, 0.5, 1.7, 3.3):
            sinc = math.sin(math.pi * x) / (math.pi * x)
            assert abs(transform_product(x) - sinc * transform_product(x / 2)) <= 1e-12


class TestTransformSeries:
    def test_at_zero(self):
        assert transform_series(0.0) == 1.0

    def test_cross_method_agreement(self):
        assert abs(transform_product(0.5, 60) - transform_series(0.5)) <= 1e-12

    def test_alternating_tail(self):
        assert abs(transform_series(0.25, 12) - transform_series(0.25, 13)) < 1e-15

    def test_overlap_region(self):
        for i in range(11):
            x = i / 10
            assert abs(transform_product(x) - transform_series(x)) <= 1e-12


class TestTransformValue:
    def test_consistent_across_switch(self):
        # the product, the transform's one route, agrees with the series
        # through |x| = 1, past which the series suffers cancellation
        for x in (0.9, 0.99, 1.0, 1.01, 1.1):
            assert abs(transform_product(x) - transform_series(x)) <= 1e-12


def _tail_inv_pow(R: int, s: int) -> float:
    # sum_{r > R} r^-s for s in {2, 4}; Euler-Maclaurin once R is large enough
    if R < 16:
        return sum(float(R + i) ** -s for i in range(1, 17)) + _tail_inv_pow(R + 16, s)
    x = float(R)
    if s == 2:
        return 1 / x - 1 / (2 * x**2) + 1 / (6 * x**3) - 1 / (30 * x**5) + 1 / (42 * x**7)
    return 1 / (3 * x**3) - 1 / (2 * x**4) + 1 / (3 * x**5) - 1 / (6 * x**7)


def _pole_tail_compensation(x: float, level: int) -> float:
    # The dropped factors of the pole product multiply to
    # exp(-x^2 S2 - x^4/2 S4 - O(x^6/M^5)) with
    # Ss = sum_{m > 2^level} (1 + val2(m)) / m^s, split along powers of two.
    s2 = _tail_inv_pow(1 << level, 2)
    s4 = _tail_inv_pow(1 << level, 4)
    for j in range(1, level + 1):
        s2 += 0.25**j * _tail_inv_pow(1 << (level - j), 2)
        s4 += (1 / 16) ** j * _tail_inv_pow(1 << (level - j), 4)
    s2 += (math.pi**2 / 6) * 0.25**level / 3
    s4 += (math.pi**4 / 90) * (1 / 16) ** level / 15
    return math.exp(-x * x * s2 - x**4 / 2 * s4)


class TestPoleProduct:
    def test_agrees_with_cosine_form(self):
        level = 11
        for i in range(41):
            x = i / 10
            compensated = transform_pole_product(x, 1 << level) * _pole_tail_compensation(x, level)
            assert abs(transform_product(x) - compensated) <= 1e-10


class TestFourierCoefficients:
    def test_thue_morse_signs(self, fc):
        for k in range(16):
            assert (fc[k] > 0) == (thue_morse_sign(k) > 0)

    def test_signs_hold_above_tolerance(self, fc):
        for k, ak in enumerate(fc):
            if abs(ak) > 1e-10:
                assert (ak > 0) == (thue_morse_sign(k) > 0)

    def test_sum_reproduces_center_value(self, fc):
        assert abs(0.5 + sum(fc) - 1.0) <= 1e-10

    def test_superpolynomial_decay_spot_checks(self, fc):
        # the ratio |a(2K)/a(K)| shrinks like 1/K eventually, so the 2^-K
        # bound is a small-K statement; both pinned checks verified by hand
        assert abs(fc[8]) < abs(fc[4]) * 2**-4
        assert abs(fc[16]) < abs(fc[8]) * 2**-8


class TestPhiFourier:
    def test_center_and_edges(self, fc):
        assert abs(phi_fourier(0.0, fc) - 1.0) <= 1e-10
        assert abs(phi_fourier(1.0, fc)) <= 1e-10
        assert abs(phi_fourier(-1.0, fc)) <= 1e-10

    def test_against_exact_value(self, fc):
        assert abs(phi_fourier(0.75, fc) - 5 / 72) <= 1e-10

    def test_grid_agreement(self, fc):
        worst = max(
            abs(phi_fourier(q / 32, fc) - float(phi_exact(Dyadic(q, 5))))
            for q in range(-32, 33)
        )
        assert worst <= 1e-10

    # phi_enclosure at n = 10 pins phi within 7e-25, so these compare the
    # synthesis with phi itself off the q/32 grid, where aliased terms
    # (2k + 1 = 11 and 75, say) no longer take equal values
    def test_off_grid_doubles(self, fc):
        rng = random.Random(20261019)
        for _ in range(2000):
            t = rng.uniform(-1.0, 1.0)
            value, bound = phi_enclosure(Fraction(t), 10)
            assert abs(phi_fourier(t, fc) - float(value)) + float(bound) <= 1e-10

    @pytest.mark.parametrize("den", [3, 5, 7])
    def test_non_dyadic_rationals(self, fc, den):
        for k in range(1 - den, den):
            t = k / den
            value, bound = phi_enclosure(Fraction(t), 10)
            assert abs(phi_fourier(t, fc) - float(value)) + float(bound) <= 1e-10


class TestLatticeIdentities:
    def test_partition_of_unity(self, fc):
        assert abs(translate_sum(0.3, 1, fc) - 1) <= 1e-9
        assert abs(translate_sum(0.1, 1 / 3, fc) - 3) <= 1e-9

    def test_partition_of_unity_exact_route(self):
        # dyadic lattice stays dyadic for n a power of two
        total = sum(
            phi_exact(Dyadic(1, 1) + Dyadic(k, 1)) for k in range(-4, 4)
        )
        assert total == 2

    def test_translate_sum_synthesis(self, fc):
        for u in (1.0, 2.0):
            for t in (0.0, 0.3, 0.71, 1.5, -0.4):
                direct = translate_sum(t, u, fc)
                synthesized = translate_sum_synthesis(t, u)
                assert abs(direct - synthesized) <= 1e-8

    @pytest.mark.parametrize("a,lhs_expected", [(1.0, 1.0), (0.5, 1.0), (0.75, 0.75 + 5 / 48)])
    def test_poisson_two_sided(self, a, lhs_expected):
        lhs, rhs = poisson_check(a)
        assert abs(lhs - lhs_expected) <= 1e-12
        assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("a", [0.6, 2**-0.5, 0.9])
    def test_poisson_deep_dyadic(self, a):
        # a double at level up to 53: phi(a) still comes from the exact core
        lhs, rhs = poisson_check(a)
        assert lhs == a + 2 * a * float(phi_exact(Fraction(a)))
        assert abs(lhs - rhs) <= 1e-14

    def test_poisson_domain(self):
        with pytest.raises(ValueError):
            poisson_check(0.3)
