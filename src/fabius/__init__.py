"""Exact and approximate evaluation of the Fabius-style smooth bump phi.

phi is the unique infinitely differentiable function with support [-1, 1],
positive inside, phi(0) = 1, whose derivative is built from two shrunken
copies of itself: phi'(t) = 2 (phi(2t+1) - phi(2t-1)).  Despite being
nowhere analytic it takes exactly computable rational values, along with all
of its derivatives, at every dyadic point q/2^n.

Exact paths work in integers, ``fractions.Fraction`` and the canonical
:class:`fabius.core.Dyadic`; floating point appears only in the spectral
synthesis and the Monte Carlo oracle.
"""

from .approximants import (
    IntPolynomial,
    StepFunction,
    partition_polynomial,
    partition_polynomial_degree,
    restricted_partitions,
    step_function,
)
from .coefficients import (
    CoefficientTable,
    TableIntegrityError,
    exp_moment_coefficients,
    exp_moment_integer_numerators,
    moment,
    phi_near_one,
    phi_near_one_from_series,
    series_coefficients,
    series_integer_numerators,
)
from .core import Dyadic, digit_sum, format_rational, parse_rational, thue_morse_sign, val2
from .exact import (
    TaylorPolynomial,
    as_dyadic,
    level_denominator_bound,
    level_values,
    phi_derivative,
    phi_exact,
    phi_exact_raw,
    taylor_at,
    theta_exact,
)
from .spectral import (
    DEFAULT_FOURIER_K,
    DEFAULT_M_MAX,
    FourierCoefficients,
    fourier_coefficients,
    partition_of_unity,
    phi_fourier,
    poisson_check,
    transform_pole_product,
    transform_product,
    transform_product_tail_bound,
    transform_series,
    transform_value,
    translate_sum,
    translate_sum_synthesis,
)
from .stochastic import McEstimate, mc_phi

__version__ = "0.1.0"

__all__ = [
    "Dyadic",
    "digit_sum",
    "val2",
    "thue_morse_sign",
    "format_rational",
    "parse_rational",
    "CoefficientTable",
    "TableIntegrityError",
    "series_coefficients",
    "series_integer_numerators",
    "exp_moment_coefficients",
    "exp_moment_integer_numerators",
    "moment",
    "phi_near_one",
    "phi_near_one_from_series",
    "as_dyadic",
    "phi_exact",
    "phi_exact_raw",
    "level_values",
    "theta_exact",
    "phi_derivative",
    "taylor_at",
    "TaylorPolynomial",
    "level_denominator_bound",
    "IntPolynomial",
    "partition_polynomial",
    "partition_polynomial_degree",
    "restricted_partitions",
    "StepFunction",
    "step_function",
    "DEFAULT_M_MAX",
    "DEFAULT_FOURIER_K",
    "FourierCoefficients",
    "fourier_coefficients",
    "phi_fourier",
    "partition_of_unity",
    "translate_sum",
    "translate_sum_synthesis",
    "poisson_check",
    "transform_product",
    "transform_product_tail_bound",
    "transform_series",
    "transform_pole_product",
    "transform_value",
    "McEstimate",
    "mc_phi",
]
