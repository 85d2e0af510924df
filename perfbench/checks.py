"""Correctness checks on CLI outputs, run after the timed loop.

References are independent of the code paths being timed wherever that is
affordable: ``phi_exact_raw`` (the deliberately naive double sum) at sampled
points, the golden level-5 table from ``tests/data``, the derivative
functional equation phi^(k)(t) = 2^k (phi^(k-1)(2t+1) - phi^(k-1)(2t-1)) down
to raw values, the coefficient recurrences re-derived here, and the step
polynomials rebuilt as products of geometric blocks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path

FLOAT_TOL = 1e-10


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _dyadic(text: str) -> Fraction:
    num, _, exp = text.partition("/2^")
    return Fraction(int(num), 1 << int(exp)) if exp else Fraction(int(num))


def _thue_morse(k: int) -> int:
    return -1 if bin(k).count("1") & 1 else 1


class CliChecker:
    """Checks one CLI op's exit code and output against references."""

    def __init__(self, root: Path, rng) -> None:
        from fabius import phi_exact_raw
        from fabius.cli import level_denominator

        self._raw = lru_cache(maxsize=None)(phi_exact_raw)
        self._level_denominator = level_denominator
        self.rng = rng
        self.golden = {}
        for line in (root / "tests" / "data" / "table_n5_golden.txt").read_text().splitlines():
            q, _, value = line.split("\t")
            self.golden[int(q)] = Fraction(value)
        self.tables: dict[int, list[Fraction]] = {}
        self.denominators: dict[int, int] = {}
        self.deriv = lru_cache(maxsize=None)(self._derivative)

    # -- references --------------------------------------------------------

    def phi(self, t: Fraction) -> Fraction:
        if abs(t) >= 1:
            return Fraction(0)
        return self._raw(t.numerator, t.denominator.bit_length() - 1)

    def _derivative(self, k: int, t: Fraction) -> Fraction:
        if k == 0:
            return self.phi(t)
        if abs(t) >= 1:
            return Fraction(0)
        return (1 << k) * (self.deriv(k - 1, 2 * t + 1) - self.deriv(k - 1, 2 * t - 1))

    def denominator(self, n: int) -> int:
        if n not in self.denominators:
            self.denominators[n] = self._level_denominator(n)
        return self.denominators[n]

    def golden_at(self, q: int, n: int) -> Fraction | None:
        """Golden phi(q/2^n) when q/2^n is a level-5 point."""
        scaled = q << 5
        if scaled % (1 << n):
            return None
        return self.golden.get(abs(scaled >> n))

    # -- per-command checks ---------------------------------------------------

    def check(self, op, rc: int, out: str, err: str) -> None:
        _require(rc == op.expect_rc,
                 f"exit {rc}, expected {op.expect_rc}: {err.strip()[-200:]}")
        if op.expect_rc != 0:
            _require(out == "" and err.strip() != "", "usage error must print to stderr only")
            return
        getattr(self, "_check_" + op.argv[0].replace("-", "_"))(op, out.splitlines())

    def _check_table(self, op, lines):
        n = op.params["n"]
        _require(len(lines) == (1 << n) + 1, f"{len(lines)} rows")
        rows = [line.split("\t") for line in lines]
        values = [Fraction(r[2]) for r in rows]
        scaled = [int(r[1]) for r in rows]
        d = scaled[0]  # phi(0) = 1
        for q, (row, value, s) in enumerate(zip(rows, values, scaled)):
            _require(int(row[0]) == q and value * d == s, f"row {q} inconsistent")
        _require(reduce(math.gcd, scaled, d) == 1, "level denominator not minimal")
        for q in self.rng.sample(range(1 << n), 2):
            _require(values[q] == self.phi(Fraction(q, 1 << n)), f"row {q} != phi_exact_raw")
        for q, value in enumerate(values):
            gold = self.golden_at(q, n)
            _require(gold is None or gold == value, f"row {q} != golden level-5 table")
        self.tables[n] = values
        self.denominators[n] = d

    def _check_eval(self, op, lines):
        q, n = op.params["q"], op.params["n"]
        _require(len(lines) == 2, "expected two lines")
        value = Fraction(lines[0])
        scaled, _, d = lines[1].partition("/")
        _require(value == self.phi(Fraction(q, 1 << n)), "value != phi_exact_raw")
        _require(int(d) == self.denominator(n), "level denominator not minimal")
        _require(value * int(d) == int(scaled), "scaled value inconsistent")

    def _check_eval_float(self, op, lines):
        if "--grid" not in op.argv:
            q, n = op.params["q"], op.params["n"]
            err = abs(float(lines[0]) - float(self.phi(Fraction(q, 1 << n))))
            _require(err <= FLOAT_TOL, f"abs error {err:.3e}")
            return
        n = op.params["n"]
        _require(lines[0] == "t,phi_fourier,phi_exact_if_dyadic,abs_err", "header")
        rows = [line.split(",") for line in lines[1:]]
        _require(len(rows) == (1 << (n + 1)) + 1, f"{len(rows)} rows")
        table = self.tables.get(n)
        spot = set(self.rng.sample(range(len(rows)), 2)) if table is None else ()
        for i, (t, approx, exact, err) in enumerate(rows):
            q = i - (1 << n)
            value = Fraction(exact)
            _require(float(t) == q / (1 << n), f"row {i}: t")
            _require(float(err) <= FLOAT_TOL, f"row {i}: abs_err {err}")
            _require(float(err) == abs(float(approx) - float(value)), f"row {i}: abs_err column")
            if table is not None:
                _require(value == table[abs(q)], f"row {i} != verified table")
            elif i in spot:
                _require(value == self.phi(Fraction(q, 1 << n)), f"row {i} != phi_exact_raw")

    def _check_deriv(self, op, lines):
        k, q, n = op.params["k"], op.params["q"], op.params["n"]
        _require(len(lines) == 1, "expected one line")
        _require(Fraction(lines[0]) == self.deriv(k, Fraction(q, 1 << n)), "derivative mismatch")

    def _check_taylor(self, op, lines):
        q, n, order = op.params["q"], op.params["n"], op.params["order"]
        _require(len(lines) == order + 1, "coefficient count")
        t = Fraction(q, 1 << n)
        for k, line in enumerate(lines):
            idx, _, value = line.partition("\t")
            _require(int(idx) == k, "index column")
            _require(Fraction(value) * math.factorial(k) == self.deriv(k, t),
                     f"Taylor coefficient {k} mismatch")

    def _check_coeffs(self, op, lines):
        which, count = op.params["which"], op.params["count"]
        expected = _coefficients(which, count)
        _require(len(lines) == count + 1, "coefficient count")
        for k, line in enumerate(lines):
            idx, _, value = line.partition("\t")
            _require(int(idx) == k, "index column")
            if which in "FG":
                _require(value.isdigit() and int(value) > 0, f"{which}[{k}] not a positive integer")
            _require(Fraction(value) == expected[k], f"{which}[{k}] mismatch")

    def _check_fourier_coeffs(self, op, lines):
        big_k = op.params["K"]
        _require(len(lines) == big_k, "coefficient count")
        for k, line in enumerate(lines):
            idx, _, value = line.partition("\t")
            a = float(value)
            _require(int(idx) == k, "index column")
            _require(abs(a - _transform((2 * k + 1) / 2)) <= 1e-12, f"a[{k}] mismatch")
            if k < 16:
                _require((a > 0) == (_thue_morse(k) > 0), f"a[{k}] sign")

    def _check_approx(self, op, lines):
        m = op.params["m"]
        coeffs = _step_polynomial(m)
        g = len(coeffs) - 1
        scale = Fraction(1 << m, 1 << (m * (m + 1) // 2))
        _require(lines[0] == "left_edge,right_edge,value", "header")
        _require(len(lines) == g + 2, f"{len(lines) - 1} plateaus, expected {g + 1}")
        width = 1 << (m + 1)
        for j, line in enumerate(lines[1:]):
            left, right, value = line.split(",")
            _require(_dyadic(left) == Fraction(2 * j - 1 - g, width)
                     and _dyadic(right) == Fraction(2 * j + 1 - g, width), f"plateau {j} edges")
            _require(Fraction(value) == scale * coeffs[j], f"plateau {j} value")

    def _check_mc(self, op, lines):
        q, n = op.params["q"], op.params["n"]
        _require(len(lines) == 1, "expected one line")
        est = json.loads(lines[0])
        samples = int(op.argv[op.argv.index("--samples") + 1])
        x = Fraction(q, 1 << n)
        _require(est["x"] == float(x), "x echoed wrongly")
        target = float(self.phi(x))
        sigma = max(est["stderr"], math.sqrt(target * (1 - target) / samples))
        gap = abs(est["estimate"] - target)
        _require(gap <= 4 * sigma + est["bias_bound"],
                 f"estimate {est['estimate']} vs phi {target}: more than 4 stderr")


@lru_cache(maxsize=None)
def _coefficients(which: str, count: int) -> tuple[Fraction, ...]:
    """c, F, d or G up to index count, from the recurrences stated in the paper."""
    if which in "cF":
        c = [Fraction(1)]
        for k in range(1, count + 1):
            rhs = sum(math.comb(2 * k + 1, 2 * h) * c[h] for h in range(k))
            c.append(rhs / ((2 * k + 1) * (4 ** k - 1)))
        if which == "c":
            return tuple(c)
        out, prod = [], 1
        for k, ck in enumerate(c):
            prod *= 4 ** k - 1 if k else 1
            out.append(ck * math.prod(range(1, 2 * k + 2, 2)) * prod)
        return tuple(out)
    d = [Fraction(1)]
    for n in range(1, count + 1):
        rhs = sum(math.comb(n + 1, k) * d[k] for k in range(n))
        d.append(rhs / ((n + 1) * (2 ** n - 1)))
    if which == "d":
        return tuple(d)
    out, prod = [], 1
    for n, dn in enumerate(d):
        prod *= 2 ** n - 1 if n else 1
        out.append(dn * math.factorial(n + 1) * prod)
    return tuple(out)


def _transform(x: float, m_max: int = 60) -> float:
    out = 1.0
    for m in range(1, m_max + 1):
        out *= math.cos(math.pi * x / 2 ** m) ** m
    return out


@lru_cache(maxsize=None)
def _step_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of prod_{i=1..m} (1 + x + ... + x^(2^i - 1)), by running sums."""
    p = [1]
    for i in range(1, m + 1):
        block = 1 << i
        out, running = [], 0
        for r in range(len(p) + block - 1):
            running += p[r] if r < len(p) else 0
            running -= p[r - block] if r - block >= 0 else 0
            out.append(running)
        p = out
    return tuple(p)
