"""Command-line wiring: formats, round-trips, exit codes."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fabius.cli import main
from fabius.coefficients import phi_near_one
from fabius.core import Dyadic, parse_rational
from fabius.exact import phi_derivative, phi_exact

GOLDEN = Path(__file__).parent / "data" / "table_n5_golden.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    @pytest.mark.parametrize(
        "q,n,expected",
        [("31", "5", "19/33177600"), ("0", "0", "1"), ("-1", "1", "1/2")],
    )
    def test_examples(self, capsys, q, n, expected):
        code, out, _ = run_cli(capsys, "eval", q, n)
        assert code == 0
        assert out.splitlines()[0] == expected

    def test_level_denominator_line(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "16", "5")
        lines = out.splitlines()
        assert lines[0] == "1/2"
        assert lines[1] == "16588800/33177600"

    def test_json_payload_uses_strings(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "eval", "31", "5")
        record = json.loads(out)
        assert record["mode"] == "exact"
        payload = record["payload"]
        assert payload["value"] == "19/33177600"
        assert payload["level_denominator"] == "33177600"
        assert all(isinstance(v, str) for v in payload.values())

    def test_roundtrip_random_points(self, capsys):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(0, 10)
            q = rng.randint(-(1 << n), 1 << n)
            code, out, _ = run_cli(capsys, "eval", str(q), str(n))
            assert code == 0
            reduced, scaled = out.splitlines()[:2]
            value = parse_rational(reduced)
            num, den = scaled.split("/")
            assert Fraction(int(num), int(den)) == value

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "notanint", "5")
        assert code == 1


class TestTable:
    def test_golden_level5_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "table", "5")
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_level1(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1")
        assert out.splitlines() == ["0\t2\t1", "1\t1\t1/2", "2\t0\t0"]

    def test_cap_enforced(self, capsys):
        code, _, err = run_cli(capsys, "table", "13")
        assert code == 1
        code, out, _ = run_cli(capsys, "--json", "table", "3", "--max-level", "3")
        assert code == 0
        assert json.loads(out)["payload"]["level"] == 3

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("FABIUS_TABLE_MAX", "2")
        code, _, err = run_cli(capsys, "table", "3")
        assert code == 1
        code, _, _ = run_cli(capsys, "table", "2")
        assert code == 0


class TestCoeffs:
    def test_integer_numerators_line_format(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "F", "4")
        rows = [line.split("\t") for line in out.splitlines()]
        assert [int(v) for _, v in rows] == [1, 1, 19, 2915, 2788989]
        assert [int(k) for k, _ in rows] == list(range(5))

    def test_rational_series(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "c", "2")
        values = [parse_rational(line.split("\t")[1]) for line in out.splitlines()]
        assert values == [Fraction(1), Fraction(1, 9), Fraction(19, 675)]

    def test_moment_numerators(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "G", "3")
        assert [line.split("\t")[1] for line in out.splitlines()] == ["1", "1", "5", "84"]


class TestDerivAndTaylor:
    def test_deriv_example(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "1", "-1", "1")
        assert code == 0
        assert out.strip() == "2"

    def test_taylor_lines(self, capsys):
        code, out, _ = run_cli(capsys, "taylor", "-1", "1", "2")
        values = [line.split("\t")[1] for line in out.splitlines()]
        assert values == ["1/2", "2", "0"]


class TestDeepLevels:
    # the literal double sum would need 2^40 terms per point here
    T = Dyadic(1, 40)

    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "1", "40")
        assert code == 0
        value = parse_rational(out.splitlines()[0])
        assert value == 1 - phi_near_one(40)
        assert value + phi_exact(self.T - 1) == 1
        num, den = out.splitlines()[1].split("/")
        assert Fraction(int(num), int(den)) == value

    def test_deriv(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "2", "1", "40")
        assert code == 0
        doubled = self.T.mul_pow2(1)
        rhs = 4 * (phi_derivative(1, doubled + 1) - phi_derivative(1, doubled - 1))
        assert parse_rational(out.strip()) == rhs

    def test_taylor(self, capsys):
        code, out, _ = run_cli(capsys, "taylor", "1", "40", "2")
        assert code == 0
        coeffs = [parse_rational(line.split("\t")[1]) for line in out.splitlines()]
        doubled = self.T.mul_pow2(1)
        assert coeffs[0] == 1 - phi_near_one(40)
        assert coeffs[1] == 2 * (phi_exact(doubled + 1) - phi_exact(doubled - 1))
        assert coeffs[2] == phi_derivative(2, self.T) / 2


class TestApprox:
    def test_csv_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "2")
        lines = out.splitlines()
        assert lines[0] == "left_edge,right_edge,value"
        widths = set()
        total = Fraction(0)
        for line in lines[1:]:
            left, right, value = line.split(",")
            l, r = Dyadic.parse(left), Dyadic.parse(right)
            width = r.to_fraction() - l.to_fraction()
            widths.add(width)
            total += parse_rational(value) * width
        assert widths == {Fraction(1, 4)}
        assert total == 1


class TestFourierAndFloat:
    def test_fourier_coeffs_signs(self, capsys):
        code, out, _ = run_cli(capsys, "fourier-coeffs", "8")
        values = [float(line.split("\t")[1]) for line in out.splitlines()]
        assert [v > 0 for v in values] == [True, False, False, True, False, True, True, False]

    def test_float_roundtrips_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "eval-float", "0.75")
        assert abs(float(out.strip()) - 5 / 72) < 1e-10

    @pytest.mark.parametrize("t", ["2", "1.5", "-3", "1"])
    def test_float_zero_outside_support(self, capsys, t):
        # the cosine synthesis is 2-periodic, so it must not be read off here
        code, out, _ = run_cli(capsys, "eval-float", "--", t)
        assert code == 0
        assert out.strip() == "0"

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_float_rejects_non_finite(self, capsys, t):
        code, out, err = run_cli(capsys, "eval-float", "--", t)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "eval-float", "--grid", "2")
        lines = out.splitlines()
        assert lines[0] == "t,phi_fourier,phi_exact_if_dyadic,abs_err"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            t, approx, exact, err = line.split(",")
            assert abs(float(approx) - float(Fraction(exact))) == float(err)
            assert float(err) <= 1e-10


class TestConsoleScript:
    def test_module_and_script_entry_points(self):
        import os
        import subprocess
        import sys

        import fabius

        # the child imports the same checkout as this process, installed or not
        src = os.path.dirname(os.path.dirname(fabius.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "fabius.cli", "eval", "31", "5"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "19/33177600"
        proc = subprocess.run(
            [sys.executable, "-m", "fabius.cli", "table", "99"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1


class TestSelftest:
    def _fake(self, index, passed):
        from fabius.selftest import CriterionResult

        def check():
            return CriterionResult(index, f"fake {index}", passed, "stub", 0.0)

        return check

    def test_exit_zero_when_all_pass(self, capsys, monkeypatch):
        import fabius.selftest as st

        monkeypatch.setattr(st, "all_criteria", lambda: (self._fake(1, True),))
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert out.splitlines() == ["PASS criterion 1: fake 1 (stub) [0.000s]"]

    def test_json_reports_elapsed(self, capsys, monkeypatch):
        import fabius.selftest as st

        monkeypatch.setattr(st, "all_criteria", lambda: (self._fake(1, True),))
        code, out, _ = run_cli(capsys, "--json", "selftest")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload == [
            {"index": 1, "name": "fake 1", "passed": True, "detail": "stub",
             "elapsed_s": 0.0}
        ]

    def test_exit_two_on_any_failure(self, capsys, monkeypatch):
        import fabius.selftest as st

        monkeypatch.setattr(
            st, "all_criteria", lambda: (self._fake(1, True), self._fake(2, False))
        )
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 2
        assert "FAIL criterion 2" in out


class TestMc:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "-0.5", "--samples", "20000", "--depth", "40", "--seed", "5"
        )
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"x", "estimate", "stderr", "bias_bound", "seed"}
        assert record["seed"] == 5
        assert abs(record["estimate"] - 0.5) <= 8 * record["stderr"]

    def test_usage_error_on_bad_x(self, capsys):
        code, _, err = run_cli(capsys, "mc", "0.5", "--samples", "10")
        assert code == 1
        assert "error" in err
