"""Public entry points reject out-of-domain input: each library callable
with ValueError, each CLI argv with exit 1 before any work."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import fabius
from fabius import cli

T = Fraction(1, 8)
INF = float("inf")

REJECTED = [
    ("Dyadic", (1, -1)),
    ("canonical_dyadic", (1, -1)),
    ("val2", (0,)),
    ("partition_polynomial", (-1,)),
    ("restricted_partitions", (-1,)),
    ("step_function", (-1,)),
    ("series_coefficients", (-1,)),
    ("series_integer_numerators", (-1,)),
    ("exp_moment_coefficients", (-1,)),
    ("exp_moment_integer_numerators", (-1,)),
    ("moment", (-1,)),
    ("phi_near_one", (0,)),
    ("phi_near_one_from_series", (-1,)),
    ("phi_exact", (Fraction(1, 3),)),
    ("phi_exact", (INF,)),
    ("phi_exact_raw", (1, -1)),
    ("level_numerators", (-1,)),
    ("level_denominator_bound", (-1,)),
    ("phi_derivative", (-1, T)),
    ("phi_derivative", (1, -INF)),
    ("taylor_at", (T, -1)),
    ("taylor_at", (INF, 2)),
    ("transform_product", (0.5, 0)),
    ("transform_series", (0.5, -1)),
    ("transform_pole_product", (0.5, 0)),
    ("fourier_coefficients", (0,)),
    ("translate_sum", (0.25, 0, (0.5,))),
    ("poisson_check", (0.25,)),
    ("mc_phi", (0.5, 10)),
]

# public callables with no input to reject, each with the reason
EXEMPT = (
    ("thue_morse_sign", "defined for every integer"),
    ("phi_fourier", "the periodic synthesis, defined for every float"),
    ("CoefficientTable", "a record of the fields it is given; build rejects as the sequences do"),
    ("TaylorPolynomial", "a record of the fields it is given"),
    ("StepFunction", "a record of the fields it is given"),
    ("McEstimate", "a record of the fields it is given"),
)

# a name's first row is identified by the name, any further row by its arguments too
IDS = [
    name if [n for n, _ in REJECTED].index(name) == i else f"{name}{args}"
    for i, (name, args) in enumerate(REJECTED)
]


@pytest.mark.parametrize("name,args", REJECTED, ids=IDS)
def test_rejects(name, args):
    with pytest.raises(ValueError):
        getattr(fabius, name)(*args)


def test_every_public_callable_is_listed():
    listed = {name for name, _ in REJECTED} | {name for name, _ in EXEMPT}
    public = {name for name in fabius.__all__ if callable(getattr(fabius, name))}
    assert public - listed == set(), "neither rejected nor exempt"
    assert listed - public == set(), "not a public callable"


class Usage(str):
    """A fragment of an argparse error, which follows the usage lines.

    argparse words its own messages differently across Python versions, so
    its rows give a fragment, not the whole line.
    """


LEVEL_CAP = "level must be in 0..128"
RAW_LEVEL_CAP = "level as given must be at most 256 and at least 0"
SCAN_CAP = "--max-level must be at most 14 and at least 0"
NOT_FINITE = "eval-float T must be finite"
K_CAP = "Fourier K must be at most 1024 and at least 1"
M_MAX_CAP = "--m-max must be at most 1023 and at least 1"
MC_DOMAIN = "mc_phi requires x in [-1, 0]"
EXCLUSIVE = Usage("not allowed with argument")
BIG = str(1 << 300)

# argv, and the message of the line "fabius: error: <message>" that is all
# it prints, or the fragment of an argparse error
CLI_REJECTED = [
    ("eval notanint 5", Usage("invalid int value: 'notanint'")),
    ("eval 1 129", LEVEL_CAP),
    ("deriv 1 1 129", LEVEL_CAP),
    ("taylor 1 129 2", LEVEL_CAP),
    # 2^300/2^428 reduces to level 128, but eval's denominator bound at the
    # raw level 428 alone takes seconds
    (f"eval {BIG} 428", RAW_LEVEL_CAP),
    ("eval 5 -1", RAW_LEVEL_CAP),
    ("deriv 2 3 -2", RAW_LEVEL_CAP),
    ("taylor 3 -2 2", RAW_LEVEL_CAP),
    ("eval 1 3 --max-level 15", SCAN_CAP),
    ("table 3 --max-level 15", SCAN_CAP),
    ("eval 1 3 --max-level -1", SCAN_CAP),
    ("table 3 --max-level -1", SCAN_CAP),
    ("table 13", "table level must be in 0..12"),
    ("taylor 1 3 -1", "max_order must be >= 0"),
    ("taylor 1 3 1000001", "taylor order must be at most 1000000"),
    ("--json taylor 1 3 1000001", "taylor order must be at most 1000000"),
    ("taylor 3 1 2", "Taylor centers must lie in [-1, 1]"),
    ("deriv -1 1 3", "derivative order must be >= 0"),
    ("approx 17", "approx level must be in 0..16"),
    ("approx -1", "approx level must be in 0..16"),
    *(
        (f"coeffs {which} {count}", "coeffs count must be in 0..300")
        for count in (301, -1)
        for which in "cFdG"
    ),
    ("eval-float --grid 15", "grid level must be in 0..14"),
    ("eval-float --grid -1", "grid level must be in 0..14"),
    ("eval-float -- nan", NOT_FINITE),
    ("eval-float -- inf", NOT_FINITE),
    ("eval-float -- -inf", NOT_FINITE),
    ("eval-float -inf", NOT_FINITE),
    ("--json eval-float -inf", NOT_FINITE),
    ("eval-float 0.3 --grid 2", EXCLUSIVE),
    ("eval-float --grid 2 0.3", EXCLUSIVE),
    ("--json eval-float 0.3 --grid 2", EXCLUSIVE),
    ("--json eval-float --grid 2 0.3", EXCLUSIVE),
    ("fourier-coeffs 0", K_CAP),
    ("fourier-coeffs 1025", K_CAP),
    ("fourier-coeffs 100000", K_CAP),
    ("eval-float 0.3 --fourier-k 0", K_CAP),
    ("eval-float 0.3 --fourier-k 1025", K_CAP),
    ("fourier-coeffs 1 --m-max 0", M_MAX_CAP),
    ("fourier-coeffs 4 --m-max 1024", M_MAX_CAP),
    ("eval-float 0.3 --m-max 1024", M_MAX_CAP),
    ("eval-float --grid 2 --m-max 1024", M_MAX_CAP),
    ("mc 0.5 --samples 10", MC_DOMAIN),
    ("mc -inf --samples 10", MC_DOMAIN),
    ("--json mc -inf --samples 10", MC_DOMAIN),
    ("mc -0.5 --samples 0", "samples must be in 1..100000000"),
    ("mc -0.5 --samples 10 --depth 65", "depth must be in 8..64"),
    ("mc -0.5 --samples 5 --seed -1", "seed must fit in 64 bits"),
]

# the innermost function of each layer that does the work
WORK = (
    "exact._weights",
    "exact._level_plan",
    "coefficients._solve",
    "spectral.transform_product",
    "stochastic._block_hits",
    "approximants.partition_polynomial",
)


def _entered(target):
    def work(*args, **kwargs):
        raise AssertionError(f"{target} entered")

    return work


@pytest.mark.parametrize(
    "argv,message",
    CLI_REJECTED,
    ids=[argv.replace(BIG, "2^300") for argv, _ in CLI_REJECTED],
)
def test_cli_rejects_before_any_work(capsys, monkeypatch, argv, message):
    for target in WORK:
        monkeypatch.setattr(f"fabius.{target}", _entered(target))
    code = cli.main(argv.split())
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    if isinstance(message, Usage):
        assert err.startswith("usage: fabius")
        assert message in err
    else:
        assert err == f"fabius: error: {message}\n"


def _pattern(message: ast.expr) -> str:
    # the fields of an f-string match any text
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    return "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts)


def test_every_cli_rejection_has_a_row():
    sites = [
        node.exc.args[0]
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ValueError"
    ]
    lines = [message for _, message in CLI_REJECTED if not isinstance(message, Usage)]
    missing = [
        ast.unparse(site)
        for site in sites
        if not any(re.fullmatch(_pattern(site), line) for line in lines)
    ]
    assert sites
    assert missing == [], "a CLI rejection with no row"
