"""Coefficient sequences, their integer normalizations, moments."""

import ast
import importlib
import importlib.util
import sys
import threading
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from fabius import coefficients
from fabius.coefficients import (
    CoefficientTable,
    exp_moment_coefficients,
    exp_moment_integer_numerators,
    moment,
    phi_near_one,
    phi_near_one_from_series,
    series_coefficients,
    series_integer_numerators,
)

N = 24

PERFBENCH = Path(__file__).parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
TRACER = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TRACER)


@pytest.fixture
def empty_store(monkeypatch):
    """Both coefficient stores cut back to their first term for one test."""
    monkeypatch.setattr(coefficients, "_C", [(1, 1)])
    monkeypatch.setattr(coefficients, "_D", [(1, 1)])
    series_coefficients.cache_clear()
    exp_moment_coefficients.cache_clear()
    yield
    series_coefficients.cache_clear()
    exp_moment_coefficients.cache_clear()


def assert_c_recurrence(c):
    for k in range(len(c)):
        lhs = (2 * k + 1) * (1 << (2 * k)) * c[k]
        rhs = sum(comb(2 * k + 1, 2 * h) * c[h] for h in range(k + 1))
        assert lhs == rhs


def assert_d_recurrence(d):
    assert d[0] == 1
    for n in range(1, len(d)):
        lhs = (n + 1) * ((1 << n) - 1) * d[n]
        rhs = sum(comb(n + 1, k) * d[k] for k in range(n))
        assert lhs == rhs


def double_factorial_odd(k):
    # (2k+1)!! = (2k+1)(2k-1)...1
    out = 1
    for j in range(3, 2 * k + 2, 2):
        out *= j
    return out


def assert_prefixes(prefixes):
    longest = max(prefixes, key=len)
    for p in prefixes:
        assert p == longest[: len(p)]
    return longest


class TestSeriesCoefficients:
    def test_base_case(self):
        assert series_coefficients(0) == (Fraction(1),)

    def test_hand_solved_values(self):
        c = series_coefficients(2)
        # k = 1: 12 c_1 = 1 + 3 c_1
        assert c[1] == Fraction(1, 9)
        assert c[2] == Fraction(19, 675)

    def test_defining_recurrence(self, empty_store):
        # out of order, so the shorter prefixes are read from the grown store
        # and the longest grows it again from index 41
        prefixes = [series_coefficients(n) for n in (40, 10, 25, 100)]
        assert [len(p) for p in prefixes] == [41, 11, 26, 101]
        assert_c_recurrence(assert_prefixes(prefixes))

    def test_all_positive(self):
        assert all(ck > 0 for ck in series_coefficients(N))

    def test_integer_numerators(self):
        assert series_integer_numerators(4) == (1, 1, 19, 2915, 2788989)

    def test_integer_numerators_literal_normaliser(self):
        # the store's integers against its values times
        # F_k / c_k = (2k+1)!! * prod_{1<=j<=k} (4^j - 1), written out
        c = series_coefficients(150)
        expected = []
        prod = 1
        for k, ck in enumerate(c):
            if k > 0:
                prod *= (1 << (2 * k)) - 1
            expected.append(ck * double_factorial_odd(k) * prod)
        assert series_integer_numerators(150) == tuple(expected)


class TestExpMomentCoefficients:
    def test_hand_solved_values(self):
        d = exp_moment_coefficients(3)
        assert d == (Fraction(1), Fraction(1, 2), Fraction(5, 18), Fraction(1, 6))

    def test_defining_recurrence(self, empty_store):
        prefixes = [exp_moment_coefficients(n) for n in (40, 10, 25, 100)]
        assert [len(p) for p in prefixes] == [41, 11, 26, 101]
        assert_d_recurrence(assert_prefixes(prefixes))

    def test_series_product_identity(self):
        # independent re-derivation: f(2x) = ((e^x - 1)/x) f(x) order by order,
        # i.e. d_n 2^n / n! = sum_k d_k / (k! (n-k+1)!)
        d = exp_moment_coefficients(N)
        for n in range(N + 1):
            lhs = d[n] * (1 << n) / factorial(n)
            rhs = sum(
                d[k] / (factorial(k) * factorial(n - k + 1)) for k in range(n + 1)
            )
            assert lhs == rhs

    def test_integer_numerators(self):
        assert exp_moment_integer_numerators(3) == (1, 1, 5, 84)

    def test_integer_numerators_literal_normaliser(self):
        # the store's integers against its values times
        # G_n / d_n = (n+1)! * prod_{1<=k<=n} (2^k - 1), written out
        d = exp_moment_coefficients(150)
        expected = []
        prod = 1
        for n, dn in enumerate(d):
            if n > 0:
                prod *= (1 << n) - 1
            expected.append(dn * factorial(n + 1) * prod)
        assert exp_moment_integer_numerators(150) == tuple(expected)


class TestMoments:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, Fraction(1, 2)), (1, Fraction(5, 36)), (2, Fraction(1, 18))],
    )
    def test_small_moments(self, n, expected):
        assert moment(n) == expected

    def test_even_route_equality(self):
        c = series_coefficients(N // 2)
        for m in range(N // 2 + 1):
            assert moment(2 * m) == c[m] / 2

    def test_route_equality_in_d_form(self):
        d = exp_moment_coefficients(N)
        c = series_coefficients(N // 2)
        for m in range(N // 2):
            assert c[m] / 2 == d[2 * m + 1] / (2 * m + 1)

    def test_all_positive(self):
        assert all(moment(n) > 0 for n in range(N))

    def test_descending_orders_read_the_store(self, empty_store):
        moments = {n: moment(n) for n in range(30, -1, -1)}
        d = exp_moment_coefficients(31)
        assert_d_recurrence(d)
        for n, value in moments.items():
            assert value == d[n + 1] / (n + 1)


class TestPhiNearOne:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, Fraction(1, 2)), (2, Fraction(5, 72)), (3, Fraction(1, 288))],
    )
    def test_values(self, n, expected):
        # n = 2 is 5/72: moment(1)/(1! * 2^1) = (5/36)/2, consistent with the
        # level-5 table entry at q = 24
        assert phi_near_one(n) == expected

    def test_odd_levels_match_series_route(self):
        # m = 149 is n = 299, next to the coeffs cap; both routes read the stores
        for m in [*range(8), 100, 149]:
            assert phi_near_one(2 * m + 1) == phi_near_one_from_series(m)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_near_one(0)


class TestStore:
    def test_concurrent_growth(self, empty_store):
        sizes = (12, 45, 30, 20)
        start = threading.Barrier(len(sizes), timeout=30)
        results = {}

        def request(n_max):
            start.wait()
            results[n_max] = (series_coefficients(n_max), exp_moment_coefficients(n_max))

        threads = [threading.Thread(target=request, args=(n,)) for n in sizes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-growth
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [tuple(map(len, results[n])) for n in sizes] == [(n + 1, n + 1) for n in sizes]
        assert_c_recurrence(assert_prefixes([c for c, _ in results.values()]))
        assert_d_recurrence(assert_prefixes([d for _, d in results.values()]))

    def test_integers_read_without_values(self, empty_store, monkeypatch):
        # the stores hold integers only: F and G are read as summed, and no
        # value is built until one is asked for
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(coefficients, "Fraction", counting)
        assert series_integer_numerators(60)[:5] == (1, 1, 19, 2915, 2788989)
        assert exp_moment_integer_numerators(60)[:4] == (1, 1, 5, 84)
        assert built == []
        series_coefficients(60)
        assert len(built) == 61

    # the benchmark's tracer reads cache_info() of these for its cache metrics
    @pytest.mark.parametrize("name", TRACER.CACHED)
    def test_cache_info_kept(self, name):
        info = getattr(coefficients, name).cache_info()
        assert info.maxsize is None or info.maxsize >= 1

    def test_benchmark_names_resolve(self):
        # a name the benchmark wraps or imports, deleted from fabius, would
        # fail every benchmark run while the rest of tier-1 stays green
        for layer, name in TRACER.TARGETS:
            target = importlib.import_module(f"fabius.{layer}")
            for part in name.split("."):
                target = getattr(target, part)
            assert callable(target), (layer, name)
        checks = ast.parse((PERFBENCH / "checks.py").read_text())
        imports = [
            (node.module, alias.name)
            for node in ast.walk(checks)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("fabius")
            for alias in node.names
        ]
        assert imports
        for module, name in imports:
            assert hasattr(importlib.import_module(module), name), (module, name)
        golden = PERFBENCH.parent / "tests" / "data" / "table_n5_golden.txt"
        assert golden.is_file()


class TestCoefficientTable:
    def test_build_consistency(self):
        table = CoefficientTable.build(8)
        assert table.c == series_coefficients(8)
        assert table.F == series_integer_numerators(8)
        assert table.d == exp_moment_coefficients(8)
        assert table.G == exp_moment_integer_numerators(8)
        assert table.c[0] == table.d[0] == 1
        for n in range(1, 9):
            assert table.moments[n - 1] * n == table.d[n]
        for n in range(4):
            assert table.moments[2 * n] == table.c[n] / 2
        assert table.phi_near_one[0] == 1
        for n in range(1, 9):
            assert table.phi_near_one[n] == phi_near_one(n)

    def test_entries_positive(self):
        table = CoefficientTable.build(6)
        for seq in (table.c, table.d, table.moments, table.phi_near_one):
            assert all(v > 0 for v in seq)
