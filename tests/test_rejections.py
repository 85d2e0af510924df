"""Public entry points reject out-of-domain input with ValueError."""

from fractions import Fraction

import pytest

import fabius

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
