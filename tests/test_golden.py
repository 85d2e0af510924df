"""Every recorded library value and CLI output, and the README example."""

import doctest
from fractions import Fraction
from pathlib import Path

import pytest

import fabius
from fabius.cli import main
from fabius.core import Dyadic
from fabius.exact import TaylorPolynomial

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"

# name, arguments, and the exact value the public callable returns
RECORDED = [
    ("phi_exact", (Dyadic(0, 0),), 1),
    ("phi_exact", (Dyadic(31, 5),), Fraction(19, 33177600)),
    ("phi_exact", (Dyadic(3, 2),), Fraction(5, 72)),
    ("phi_exact", (Dyadic(-1, 0),), 0),
    ("phi_exact", (Dyadic(1, 1),), Fraction(1, 2)),
    ("phi_exact", (Dyadic(5, 1),), 0),
    ("phi_exact", (Fraction(3, 4),), Fraction(5, 72)),  # a Fraction or an int for a Dyadic
    ("phi_exact", (0,), 1),
    ("phi_exact", (2,), 0),
    ("phi_exact_raw", (0, 1), 1),
    ("phi_exact_raw", (-1, 1), Fraction(1, 2)),
    ("phi_exact_raw", (3, 2), Fraction(5, 72)),
    ("phi_exact_raw", (-1, 0), 0),  # the empty sum at the left edge
    ("phi_derivative", (1, Dyadic(-1, 1)), 2),
    ("phi_derivative", (2, Dyadic(-3, 2)), 8),
    ("phi_derivative", (5, Dyadic(0, 0)), 0),
    ("phi_derivative", (0, Dyadic(3, 2)), Fraction(5, 72)),
    ("phi_derivative", (3, Dyadic(5, 2)), 0),  # outside the support
    ("taylor_at", (Dyadic(0, 0), 3), TaylorPolynomial(Dyadic(0, 0), (1, 0, 0, 0))),
    # degree 1: odd numerator at level 1
    ("taylor_at", (Dyadic(-1, 1), 2), TaylorPolynomial(Dyadic(-1, 1), (Fraction(1, 2), 2, 0))),
    ("taylor_at", (Dyadic(-1, 0), 5), TaylorPolynomial(Dyadic(-1, 0), (0,) * 6)),  # support edge
    ("series_coefficients", (0,), (1,)),
    # k = 1: 12 c_1 = 1 + 3 c_1
    ("series_coefficients", (2,), (1, Fraction(1, 9), Fraction(19, 675))),
    ("exp_moment_coefficients", (3,), (1, Fraction(1, 2), Fraction(5, 18), Fraction(1, 6))),
    ("moment", (0,), Fraction(1, 2)),
    ("moment", (1,), Fraction(5, 36)),
    ("moment", (2,), Fraction(1, 18)),
    ("phi_near_one", (1,), Fraction(1, 2)),
    # n = 2 is 5/72: moment(1)/(1! * 2^1) = (5/36)/2, consistent with the
    # level-5 table entry at q = 24
    ("phi_near_one", (2,), Fraction(5, 72)),
    ("phi_near_one", (3,), Fraction(1, 288)),
    ("partition_polynomial", (0,), (1,)),
    ("partition_polynomial", (1,), (1, 1)),
    ("partition_polynomial", (2,), (1, 2, 2, 2, 1)),
    ("transform_product", (0.0,), 1.0),
    ("transform_series", (0.0,), 1.0),
]
CALLS = [f"{name}({', '.join(map(repr, args))})" for name, args, _ in RECORDED]


@pytest.mark.parametrize("name,args,value", RECORDED, ids=CALLS)
def test_recorded_value(name, args, value):
    assert getattr(fabius, name)(*args) == value


# mc's one-line record for seeded runs: a change to which doubles a sample
# adds, or in what order, shows here; 3 * 65536 + 777 samples end in a short
# block whose term offsets are not multiples of Philox's 4 words
MC = [
    (
        "-1 --samples 1 --depth 8",
        '{"x": -1.0, "estimate": 0.0, "stderr": 0.0, '
        '"bias_bound": 0.00390625, "seed": 0}',
    ),
    (
        "-0.75 --samples 197385 --depth 40 --seed 7",
        '{"x": -0.75, "estimate": 0.06961521898827165, '
        '"stderr": 0.0005728307493259589, '
        '"bias_bound": 9.094947017729282e-13, "seed": 7}',
    ),
    (
        "-0.3125 --samples 1000000 --depth 64 --seed 3",
        '{"x": -0.3125, "estimate": 0.852244, '
        '"stderr": 0.0003548579496981856, '
        '"bias_bound": 5.421010862427522e-20, "seed": 3}',
    ),
    (
        "0 --samples 197385 --depth 64 --seed 11",
        '{"x": 0.0, "estimate": 1.0, "stderr": 0.0, '
        '"bias_bound": 5.421010862427522e-20, "seed": 11}',
    ),
    (
        "-0.3125 --samples 197385 --depth 8 --seed 18446744073709551615",
        '{"x": -0.3125, "estimate": 0.855708387162145, '
        '"stderr": 0.0007909087227092969, "bias_bound": 0.00390625, '
        '"seed": 18446744073709551615}',
    ),
    # x before the options, in a form argparse's own pattern reads as an
    # option: the bytes are those of mc --samples 1000 -- -5e-1
    (
        "-5e-1 --samples 1000",
        '{"x": -0.5, "estimate": 0.495, "stderr": 0.01581059771166163, '
        '"bias_bound": 9.094947017729282e-13, "seed": 0}',
    ),
    (
        "-0.75 --samples 1000000 --depth 40",
        '{"x": -0.75, "estimate": 0.069611, '
        '"stderr": 0.0002544902919150355, '
        '"bias_bound": 9.094947017729282e-13, "seed": 0}',
    ),
]

# argv as typed after `fabius`, and its exact stdout: a string, or the file
# under tests/data that holds it
GOLDEN = [
    ("table 5", DATA / "table_n5_golden.txt"),
    ("--json table 5", DATA / "table_n5_golden.json"),
    ("taylor -27 5 8", DATA / "taylor_m27_5_8_golden.txt"),
    ("--json taylor -27 5 8", DATA / "taylor_m27_5_8_golden.json"),
    ("coeffs c 60", DATA / "coeffs_c_60_golden.txt"),
    ("--json coeffs G 60", DATA / "coeffs_G_60_golden.json"),
    ("eval 5 12", DATA / "eval_5_12_golden.txt"),
    ("--json deriv 3 -5 7", DATA / "deriv_3_m5_7_golden.json"),
    ("approx 6", DATA / "approx_6_golden.txt"),
    ("eval 31 5", "19/33177600\n19/33177600\n"),
    ("eval 0 0", "1\n1/1\n"),
    ("eval -1 1", "1/2\n1/2\n"),
    ("eval 16 5", "1/2\n16588800/33177600\n"),
    # every JSON payload value of eval is a string
    (
        "--json eval 31 5",
        '{"mode": "exact", "payload": {"t": "31/2^5", "value": "19/33177600", '
        '"level_numerator": "19", "level_denominator": "33177600"}}\n',
    ),
    ("table 1", "0\t2\t1\n1\t1\t1/2\n2\t0\t0\n"),
    ("table 0 --max-level 0", "0\t1\t1\n1\t0\t0\n"),
    (
        "--json table 3 --max-level 3",
        '{"mode": "table", "payload": {"level": 3, "denominator": "288", "rows": '
        '[["0", "288", "1"], ["1", "287", "287/288"], ["2", "268", "67/72"], '
        '["3", "215", "215/288"], ["4", "144", "1/2"], ["5", "73", "73/288"], '
        '["6", "20", "5/72"], ["7", "1", "1/288"], ["8", "0", "0"]]}}\n',
    ),
    ("coeffs F 4", "0\t1\n1\t1\n2\t19\n3\t2915\n4\t2788989\n"),
    ("coeffs c 2", "0\t1\n1\t1/9\n2\t19/675\n"),
    ("coeffs G 3", "0\t1\n1\t1\n2\t5\n3\t84\n"),
    ("deriv 1 -1 1", "2\n"),
    # above the level every derivative vanishes; no 10^9-bit integer is built
    ("deriv 1000000000 1 3", "0\n"),
    ("taylor -1 1 2", "0\t1/2\n1\t2\n2\t0\n"),
    # the cosine synthesis is 2-periodic, so it must not be read off here
    *((f"eval-float -- {t}", "0\n") for t in ("2", "1.5", "-3", "1")),
    *((f"mc {argv}", f"{record}\n") for argv, record in MC),
    *(
        (f"--json mc {argv}", f'{{"mode": "mc", "payload": {record}}}\n')
        for argv, record in MC
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_recorded_output(capsys, argv, expected):
    code = main(argv.split())
    out, err = capsys.readouterr()
    if isinstance(expected, Path):
        expected = expected.read_bytes().decode()
    assert (code, err, out) == (0, "", expected)


def test_readme_example():
    assert doctest.testfile(str(ROOT / "README.md"), module_relative=False).failed == 0
