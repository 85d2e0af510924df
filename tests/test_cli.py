"""Command-line wiring: formats, round-trips, exit codes."""

import contextlib
import gc
import io
import json
import random
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

# mc imports numpy at its first draw; imported here, so that no peak under
# PEAK_BOUND counts that one-time import
import numpy  # noqa: F401
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fabius.approximants import step_function
from fabius.cli import MAX_FOURIER_K, MAX_M_MAX, _emit, build_parser, entry, main
from fabius.coefficients import phi_near_one
from fabius.core import Dyadic
from fabius.exact import phi_derivative, phi_exact, taylor_at
from fabius.spectral import (
    DEFAULT_M_MAX,
    fourier_coefficients,
    phi_fourier,
    transform_product,
)
from fabius.stochastic import MAX_DEPTH
from test_approximants import plateau_interval
from test_coefficients import assert_d_recurrence
from test_core import parse_dyadic
from test_imports import _child_env
from test_rejections import WORK, _entered

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_roundtrip_random_points(self, capsys):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(0, 10)
            q = rng.randint(-(1 << n), 1 << n)
            code, out, _ = run_cli(capsys, "eval", str(q), str(n))
            assert code == 0
            reduced, scaled = out.splitlines()[:2]
            value = Fraction(reduced)
            num, den = scaled.split("/")
            assert Fraction(int(num), int(den)) == value


class TestCoeffs:
    def test_moment_series(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "d", "12")
        rows = [line.split("\t") for line in out.splitlines()]
        assert [int(k) for k, _ in rows] == list(range(13))
        assert_d_recurrence([Fraction(v) for _, v in rows])
        code, out, _ = run_cli(capsys, "--json", "coeffs", "d", "12")
        assert json.loads(out)["payload"] == {"which": "d", "values": [v for _, v in rows]}


class TestDerivAndTaylor:
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    @pytest.mark.parametrize(
        "q,n,order", [(1, 3, 0), (1, 3, 2), (1, 3, 3), (1, 3, 4), (1, 3, 40), (1, 0, 3)]
    )
    def test_taylor_coeffs_around_the_degree(self, capsys, json_flag, q, n, order):
        # orders below, at and above the degree 3 of 1/8, and the support edge 1
        poly = taylor_at(Fraction(q, 1 << n), order)
        expected = [str(c) for c in poly.coeffs]
        code, out, _ = run_cli(capsys, *json_flag, "taylor", str(q), str(n), str(order))
        assert code == 0
        if json_flag:
            payload = json.loads(out)["payload"]
            assert (payload["coeffs"], payload["degree"]) == (expected, poly.degree)
        else:
            assert out.splitlines() == [f"{k}\t{v}" for k, v in enumerate(expected)]


class TestDeepLevels:
    # the literal double sum would need 2^40 terms per point here
    T = Dyadic(1, 40)

    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "1", "40")
        assert code == 0
        value = Fraction(out.splitlines()[0])
        assert value == 1 - phi_near_one(40)
        assert value + phi_exact(self.T - 1) == 1
        num, den = out.splitlines()[1].split("/")
        assert Fraction(int(num), int(den)) == value

    def test_deriv(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "2", "1", "40")
        assert code == 0
        doubled = self.T.mul_pow2(1)
        rhs = 4 * (phi_derivative(1, doubled + 1) - phi_derivative(1, doubled - 1))
        assert Fraction(out.strip()) == rhs

    def test_taylor(self, capsys):
        code, out, _ = run_cli(capsys, "taylor", "1", "40", "2")
        assert code == 0
        coeffs = [Fraction(line.split("\t")[1]) for line in out.splitlines()]
        doubled = self.T.mul_pow2(1)
        assert coeffs[0] == 1 - phi_near_one(40)
        assert coeffs[1] == 2 * (phi_exact(doubled + 1) - phi_exact(doubled - 1))
        assert coeffs[2] == phi_derivative(2, self.T) / 2


class TestLevelCap:
    def test_canonical_level_is_checked(self, capsys, monkeypatch):
        # 2/2^129 is 1/2^128, inside the cap
        seen = []
        monkeypatch.setattr(
            "fabius.exact.phi_exact", lambda t: seen.append(t) or Fraction(0)
        )
        code, out, _ = run_cli(capsys, "eval", "2", "129")
        assert code == 0
        assert seen == [Dyadic(1, 128)]
        assert out.splitlines()[0] == "0"

    def test_cap_is_read_at_call_time(self, capsys, monkeypatch):
        monkeypatch.setattr("fabius.cli.MAX_LEVEL", 3)
        for target in WORK:
            monkeypatch.setattr(f"fabius.{target}", _entered(target))
        code, out, err = run_cli(capsys, "eval", "1", "4")
        assert (code, out, err) == (1, "", "fabius: error: level must be in 0..3\n")


class TestIntStrLimit:
    def test_result_longer_than_limit_prints(self, capsys, monkeypatch):
        monkeypatch.setattr("fabius.cli.MAX_LEVEL", 140)
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "eval", "1", "140")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = str(phi_exact(Dyadic(1, 140)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) > limit
        assert out.splitlines()[0] == expected

    def test_arguments_keep_the_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, _, err = run_cli(capsys, "eval", "9" * (limit + 1), "1")
        assert code == 1
        assert "invalid int value" in err
        assert sys.get_int_max_str_digits() == limit


class TestExitStatus:
    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: fabius")

    def test_missing_command_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage: fabius")
        assert err.endswith(
            "fabius: error: the following arguments are required: command\n"
        )


class TestInputCaps:
    def test_largest_taylor_order(self, capsys, monkeypatch):
        # the cap itself is accepted; a stub stands in for the padded zeros
        orders = []

        def stub(t, max_order):
            orders.append(max_order)
            return taylor_at(t, 3)

        monkeypatch.setattr("fabius.exact.taylor_at", stub)
        code, out, _ = run_cli(capsys, "taylor", "1", "3", "1000000")
        assert (code, orders) == (0, [1000000])
        assert out.splitlines()[0] == "0\t287/288"


class TestApprox:
    def test_csv_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "2")
        lines = out.splitlines()
        assert lines[0] == "left_edge,right_edge,value"
        widths = set()
        total = Fraction(0)
        for line in lines[1:]:
            left, right, value = line.split(",")
            width = parse_dyadic(right) - parse_dyadic(left)
            widths.add(width)
            total += Fraction(value) * width
        assert widths == {Fraction(1, 4)}
        assert total == 1

    @pytest.mark.parametrize("m", range(11))
    def test_rows_match_step_function(self, capsys, m):
        # the rows are rendered from integers; the oracle renders the
        # plateau edges as Dyadics and reads each value at the plateau's middle
        sf = step_function(m)
        expected = []
        for j in range(sf.degree + 1):
            left, right = plateau_interval(sf, j)
            value = sf.value_at((left.to_fraction() + right.to_fraction()) / 2)
            expected.append([str(left), str(right), str(value)])
        _, out, _ = run_cli(capsys, "approx", str(m))
        lines = out.splitlines()
        assert lines[0] == "left_edge,right_edge,value"
        assert [line.split(",") for line in lines[1:]] == expected
        _, out, _ = run_cli(capsys, "--json", "approx", str(m))
        payload = json.loads(out)["payload"]
        assert payload["level"] == m
        assert [[r["left"], r["right"], r["value"]] for r in payload["plateaus"]] == (
            expected
        )


class TestFourierAndFloat:
    def test_fourier_coeffs_signs(self, capsys):
        code, out, _ = run_cli(capsys, "fourier-coeffs", "8")
        values = [float(line.split("\t")[1]) for line in out.splitlines()]
        assert [v > 0 for v in values] == [True, False, False, True, False, True, True, False]

    @pytest.mark.parametrize("m_max", [1, 60, 1023])
    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_fourier_coeffs_bytes(self, capsys, k, m_max):
        # the expected bytes come from the product itself, not through
        # fourier_coefficients, and spell out both output formats
        a = [transform_product((2 * j + 1) / 2, m_max) for j in range(k)]
        argv = ("fourier-coeffs", str(k), "--m-max", str(m_max))
        _, out, _ = run_cli(capsys, *argv)
        assert out == "".join(f"{j}\t{aj:.17g}\n" for j, aj in enumerate(a))
        _, out, _ = run_cli(capsys, "--json", *argv)
        assert out == (
            f'{{"mode": "fourier", "payload": {{"K": {k}, "m_max": {m_max}, '
            f'"a": [{", ".join(map(repr, a))}]}}}}\n'
        )

    def test_float_roundtrips_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "eval-float", "0.75")
        assert abs(float(out.strip()) - 5 / 72) < 1e-10

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("t", ["-1e-3", "-0.", "-9.5367431640625e-07"])
    def test_negative_value_is_not_an_option(self, capsys, json_flag, t):
        # argparse's own pattern for negative numbers misses these
        expected = run_cli(capsys, *json_flag, "eval-float", "--", t)
        assert expected[0] == 0
        assert run_cli(capsys, *json_flag, "eval-float", t) == expected

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "eval-float", "--grid", "2")
        lines = out.splitlines()
        assert lines[0] == "t,phi_fourier,phi_exact_if_dyadic,abs_err"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            t, approx, exact, err = line.split(",")
            assert abs(float(approx) - float(Fraction(exact))) == float(err)
            assert float(err) <= 1e-10

    @pytest.mark.parametrize("level", range(9))
    def test_grid_matches_per_row_synthesis(self, capsys, level):
        # the command synthesizes once per |q|; the oracle once per row
        fc = fourier_coefficients()
        expected = []
        for q in range(-(1 << level), (1 << level) + 1):
            t = Dyadic(q, level)
            approx = phi_fourier(float(t.to_fraction()), fc)
            exact = phi_exact(t)
            expected.append((t, approx, exact, abs(approx - float(exact))))
        _, out, _ = run_cli(capsys, "eval-float", "--grid", str(level))
        assert out.splitlines()[1:] == [
            f"{float(t.to_fraction()):.17g},{approx:.17g},{exact},{err:.17g}"
            for t, approx, exact, err in expected
        ]
        _, out, _ = run_cli(capsys, "--json", "eval-float", "--grid", str(level))
        assert json.loads(out)["payload"] == [
            {
                "t": str(t),
                "phi_fourier": approx,
                "phi_exact": str(exact),
                "abs_err": err,
            }
            for t, approx, exact, err in expected
        ]


class TestFourierInput:
    def test_stray_env_variables_change_nothing(self, capsys, monkeypatch):
        # flags are the only settings, so no FABIUS_* value changes an output
        argvs = [
            ("table", "5"),
            ("table", "12"),
            ("eval", "5", "12"),
            ("--json", "fourier-coeffs", "4"),
        ]
        clean = [run_cli(capsys, *argv)[:2] for argv in argvs]
        assert [code for code, _ in clean] == [0] * len(argvs)
        monkeypatch.setenv("FABIUS_M_MAX", "abc")
        monkeypatch.setenv("FABIUS_FOURIER_K", "0")
        monkeypatch.setenv("FABIUS_TABLE_MAX", "2")
        assert [run_cli(capsys, *argv)[:2] for argv in argvs] == clean
        payload = json.loads(clean[-1][1])["payload"]
        assert (payload["m_max"], payload["K"]) == (DEFAULT_M_MAX, 4)

    def test_largest_accepted_values(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "fourier-coeffs", "1024", "--m-max", "1023")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert (payload["K"], payload["m_max"], len(payload["a"])) == (1024, 1023, 1024)

    @pytest.mark.parametrize("flag,m_max", [(None, DEFAULT_M_MAX), ("20", 20)])
    def test_json_reports_resolved_m_max(self, capsys, flag, m_max):
        argv = ("--json", "fourier-coeffs", "4")
        if flag is not None:
            argv = (*argv, "--m-max", flag)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["m_max"] == m_max
        assert payload["a"] == list(fourier_coefficients(K=4, m_max=m_max))


class TestEmit:
    def test_plain_mode_never_builds_the_payload(self, capsys):
        def payload():
            raise AssertionError("payload built in plain mode")

        _emit(Namespace(json=False), "m", payload, iter(["a\n", "b\n"]))
        assert capsys.readouterr().out == "a\nb\n"

    def test_json_mode_never_reads_the_lines(self, capsys):
        def lines():
            raise AssertionError("lines read in JSON mode")
            yield

        _emit(Namespace(json=True), "m", lambda: [1, "x"], lines())
        assert json.loads(capsys.readouterr().out) == {"mode": "m", "payload": [1, "x"]}


class TestIntegrityViolation:
    # a result that breaks an exactness invariant exits 2 with nothing on stdout
    def test_eval_non_integer_level_numerator(self, capsys, monkeypatch):
        monkeypatch.setattr("fabius.cli.level_denominator", lambda n: 3)
        code, out, err = run_cli(capsys, "eval", "1", "2")
        assert (code, out) == (2, "")
        assert err == "fabius: integrity violation: expected an integer, got 67/24\n"


class TestConsoleScript:
    def test_module_and_script_entry_points(self):
        # the child imports the same checkout as this process, installed or not
        env = _child_env()
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
        # the module path runs entry(), as the console script does
        proc = subprocess.run(
            [sys.executable, "-m", "fabius.cli", "table", "5"],
            capture_output=True,
            env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (DATA / "table_n5_golden.txt").read_bytes()

    def test_entry_freezes_and_exits_with_the_status(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fabius", "table", "99"])
        try:
            with pytest.raises(SystemExit) as exit_:
                entry()
            frozen = gc.get_freeze_count()
        finally:
            gc.unfreeze()
        assert (exit_.value.code, frozen > 0) == (1, True)
        assert "table level must be in 0..12" in capsys.readouterr().err

    def test_main_never_freezes(self, capsys):
        # in-process callers keep collecting what main leaves behind
        before = gc.get_freeze_count()
        argvs = [
            ["eval", "1", "3"],
            ["table", "4"],
            ["mc", "-0.5", "--samples", "10"],
            ["frobnicate"],
        ]
        assert [main(argv) for argv in argvs] == [0, 0, 0, 1]
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv", [["table", "12"], ["taylor", "1", "3", "100000"]])
    def test_closed_pipe_exits_quietly(self, argv):
        # like fabius table 12 | head -1: both outputs outgrow the pipe buffer,
        # so the write after the reader closes fails; no traceback, status 1
        proc = subprocess.Popen(
            [sys.executable, "-m", "fabius.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert stderr == b""
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


# Lowered caps, so that every drawn argv runs in milliseconds.  The integers
# drawn sit around 0, around each cap (eval also caps the level as given, at
# 2 * MAX_LEVEL), and far beyond them all.  The Fourier caps and the Monte
# Carlo depths stay as they are, because they are cheap; so the largest
# sample count accepted is MAX_FOURIER_K = 1024.
LOW_CAPS = {
    "fabius.cli.MAX_LEVEL": 6,
    "fabius.cli.MAX_GRID_LEVEL": 5,
    "fabius.cli.DEFAULT_MAX_LEVEL": 3,
    "fabius.cli.MAX_APPROX_LEVEL": 4,
    "fabius.cli.MAX_COEFFS": 8,
    "fabius.exact.MAX_TAYLOR_ORDER": 8,
}
EDGES = (
    *LOW_CAPS.values(),
    2 * LOW_CAPS["fabius.cli.MAX_LEVEL"],
    MAX_FOURIER_K,
    MAX_M_MAX,
    8,
    MAX_DEPTH,
)
INTEGERS = st.one_of(
    st.integers(-2, 2),
    *(st.integers(cap - 1, cap + 1) for cap in EDGES),
    st.sampled_from([(1 << 64) - 1, 1 << 64, (1 << 128) - 1]),
)
TOKENS = st.one_of(
    INTEGERS.map(str), st.sampled_from(["1e3", "0x10", "-0", "", "x", "1.5", "--json"])
)
FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "5e-324", "1e308", "-0.5", "0.375"]),
    TOKENS,
)
# mc accepts x in [-1, 0] only, so half of these lie there
MC_X = st.sampled_from(
    ["-1", "-0.75", "-0.0", "-5e-324", "0", "nan", "-inf", "5e-324", "1e308", "x"]
)
# tracemalloc's peak for any drawn argv, in bytes, the parser excluded.  The
# most the grammar can reach, ``--json fourier-coeffs --m-max 1023 1024``,
# peaks at about 160 KB on Python 3.11 (90 KB on 3.12); a grid two
# levels past its lowered cap, ``--json eval-float --grid 7``, at 280 KB.
PEAK_BOUND = 200 * 1024
# label: (JSON mode, positionals, options), each a strategy for its token.  A
# label's first word is the command, and the options it names are always
# drawn: mc's default is 100 000 samples.
GRAMMAR = {
    "table": ("table", [TOKENS], {"--max-level": TOKENS}),
    "eval": ("exact", [TOKENS, TOKENS], {"--max-level": TOKENS}),
    "eval-float": ("float", [FLOATS], {"--fourier-k": TOKENS, "--m-max": TOKENS}),
    "eval-float --grid": (
        "float",
        [],
        {"--grid": TOKENS, "--fourier-k": TOKENS, "--m-max": TOKENS},
    ),
    "approx": ("approx", [TOKENS], {}),
    "coeffs": ("coeffs", [st.sampled_from(["c", "F", "d", "G", "x"]), TOKENS], {}),
    "deriv": ("exact", [TOKENS, TOKENS, TOKENS], {}),
    "taylor": ("exact", [TOKENS, TOKENS, TOKENS], {}),
    "fourier-coeffs": ("fourier", [TOKENS], {"--m-max": TOKENS}),
    "mc --samples": (
        "mc",
        [MC_X],
        {"--samples": TOKENS, "--depth": TOKENS, "--seed": TOKENS},
    ),
}


@st.composite
def cli_argv(draw):
    """(mode, argv) for any command but selftest."""
    label = draw(st.sampled_from(sorted(GRAMMAR)))
    mode, positionals, options = GRAMMAR[label]
    command, *required = label.split()
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(command)
    for flag, token in options.items():
        if flag in required or draw(st.booleans()):
            argv += [flag, draw(token)]
    if draw(st.booleans()):
        argv.append("--")  # so that --json reads as a positional
    argv += [draw(token) for token in positionals]
    return mode, argv


# where q and n sit among the positionals of the commands that take a point
POINT_ARGS = {"eval": slice(-2, None), "deriv": slice(-2, None), "taylor": slice(-3, -1)}


def printed_values(argv: list[str], out: str) -> list[str]:
    """Every value that eval, deriv or taylor printed to ``out``: the value,
    eval's level numerator and taylor's coefficients, plain or JSON."""
    if argv[0] == "--json":
        payload = json.loads(out)["payload"]
        scalars = [payload[k] for k in ("value", "level_numerator") if k in payload]
        return scalars + payload.get("coeffs", [])
    if argv[0] == "taylor":
        return [line.split("\t")[1] for line in out.splitlines()]
    return [line.split("/")[0] for line in out.splitlines()]


class TestGeneratedArgv:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(cli_argv())
    # taylor accepts centers in [-1, 1] only, so few draws reach its edges
    @example(("exact", ["taylor", "-2", "1", "3"]))
    @example(("exact", ["--json", "taylor", "4", "2", "3"]))
    # two levels past the lowered grid cap, where a JSON grid would peak
    # above PEAK_BOUND
    @example(("float", ["--json", "eval-float", "--grid", "7"]))
    def test_answer_or_usage_error(self, drawn):
        mode, argv = drawn
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            for target, cap in LOW_CAPS.items():
                mp.setattr(target, cap)
            # main's parser is the same for every argv: built untraced, so
            # that the peak counts what this argv costs, and cheaply
            parser = build_parser()
            mp.setattr("fabius.cli.build_parser", lambda: parser)
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1), argv
        assert peak < PEAK_BOUND, (argv, peak)
        if code == 1:
            assert out == "", argv
            assert err.startswith(("fabius: error:", "usage:")), argv
        else:
            assert err == "", argv
            if argv[0] == "--json":
                assert json.loads(out)["mode"] == mode, argv
            command = argv[argv[0] == "--json"]
            if command in POINT_ARGS:
                q, n = map(int, argv[POINT_ARGS[command]])
                if abs(q) >= 1 << n:  # outside (-1, 1), phi and its derivatives are 0
                    assert set(printed_values(argv, out)) == {"0"}, argv
