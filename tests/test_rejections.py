"""Public entry points reject out-of-domain input with ValueError."""

from fractions import Fraction

import pytest

import fabius

T = Fraction(1, 8)

REJECTED = [
    ("partition_polynomial", (-1,)),
    ("series_coefficients", (-1,)),
    ("exp_moment_coefficients", (-1,)),
    ("moment", (-1,)),
    ("phi_near_one_from_series", (-1,)),
    ("phi_exact_raw", (1, -1)),
    ("level_denominator_bound", (-1,)),
    ("phi_derivative", (-1, T)),
    ("taylor_at", (T, -1)),
    ("transform_product", (0.5, 0)),
    ("transform_series", (0.5, -1)),
    ("transform_pole_product", (0.5, 0)),
    ("fourier_coefficients", (0,)),
    ("translate_sum", (0.25, 0, (0.5,))),
]


@pytest.mark.parametrize("name,args", REJECTED, ids=[name for name, _ in REJECTED])
def test_rejects(name, args):
    with pytest.raises(ValueError):
        getattr(fabius, name)(*args)
