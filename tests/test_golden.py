"""Every recorded CLI output in ``tests/data``, and the README example."""

import doctest
from pathlib import Path

import pytest

from fabius.cli import main

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"

# argv as typed after `fabius`, and the file holding its exact stdout
GOLDEN = [
    ("table 5", "table_n5_golden.txt"),
    ("--json table 5", "table_n5_golden.json"),
    ("taylor -27 5 8", "taylor_m27_5_8_golden.txt"),
    ("--json taylor -27 5 8", "taylor_m27_5_8_golden.json"),
    ("coeffs c 60", "coeffs_c_60_golden.txt"),
    ("--json coeffs G 60", "coeffs_G_60_golden.json"),
    ("eval 5 12", "eval_5_12_golden.txt"),
    ("--json deriv 3 -5 7", "deriv_3_m5_7_golden.json"),
    ("approx 6", "approx_6_golden.txt"),
]


@pytest.mark.parametrize("argv,name", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_recorded_output(capsys, argv, name):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.encode() == (DATA / name).read_bytes()


def test_readme_example():
    assert doctest.testfile(str(ROOT / "README.md"), module_relative=False).failed == 0
