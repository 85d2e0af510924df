"""Exact and approximate evaluation of the Fabius-style smooth bump phi.

phi is the unique infinitely differentiable function with support [-1, 1],
positive inside, phi(0) = 1, whose derivative is built from two shrunken
copies of itself: phi'(t) = 2 (phi(2t+1) - phi(2t-1)).  Despite being
nowhere analytic it takes exactly computable rational values, along with all
of its derivatives, at every dyadic point q/2^n.

Exact paths work in integers, ``fractions.Fraction`` and the canonical
:class:`fabius.core.Dyadic`; floating point appears only in the spectral
synthesis and the Monte Carlo oracle.

Every public name is importable from the package.  The exact core
(``core``, ``coefficients``, ``exact``) loads with it; ``approximants``,
``spectral`` and ``stochastic`` load only when one of their names is first
looked up, so the exact commands never load them.
"""

import importlib

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

__version__ = "0.1.0"

# each lazily loaded layer and the public names it defines, in ``__all__`` order
_LAYERS = {
    "approximants": (
        "IntPolynomial",
        "partition_polynomial",
        "partition_polynomial_degree",
        "restricted_partitions",
        "StepFunction",
        "step_function",
    ),
    "spectral": (
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
    ),
    "stochastic": ("McEstimate", "mc_phi"),
}
_HOMES = {name: module for module, names in _LAYERS.items() for name in names}

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
    *_HOMES,
]


def __getattr__(name):
    # PEP 562: called only for names not yet in globals(); cache each one
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
