"""Exact and approximate evaluation of the Fabius-style smooth bump phi.

phi is the unique infinitely differentiable function with support [-1, 1],
positive inside, phi(0) = 1, whose derivative is built from two shrunken
copies of itself: phi'(t) = 2 (phi(2t+1) - phi(2t-1)).  Despite being
nowhere analytic it takes exactly computable rational values, along with all
of its derivatives, at every dyadic point q/2^n.

Exact paths work in integers, ``fractions.Fraction`` and the canonical
:class:`fabius.core.Dyadic`; floating point appears only in the spectral
synthesis and the Monte Carlo oracle.

Every public name is importable from the package: the names in the
``__all__`` of each layer.  ``import fabius`` loads no layer: a layer loads
when one of its names, or the layer itself, is first looked up, so each CLI
command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# each layer's ``__all__``, which cannot be read without importing the layer
_LAYERS = {
    "core": ("Dyadic", "canonical_dyadic", "val2", "thue_morse_sign"),
    "coefficients": (
        "TableIntegrityError",
        "series_coefficients",
        "series_integer_numerators",
        "exp_moment_coefficients",
        "exp_moment_integer_numerators",
        "moment",
        "phi_near_one",
        "phi_near_one_from_series",
        "CoefficientTable",
    ),
    "exact": (
        "phi_exact",
        "phi_exact_raw",
        "level_numerators",
        "phi_derivative",
        "taylor_at",
        "TaylorPolynomial",
        "level_denominator_bound",
    ),
    "approximants": (
        "partition_polynomial",
        "restricted_partitions",
        "StepFunction",
        "step_function",
    ),
    "spectral": (
        "DEFAULT_M_MAX",
        "DEFAULT_FOURIER_K",
        "transform_product",
        "transform_series",
        "transform_pole_product",
        "fourier_coefficients",
        "phi_fourier",
        "translate_sum",
        "poisson_check",
    ),
    "stochastic": ("BLOCK_SIZE", "McEstimate", "mc_phi"),
}
_HOMES = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name):
    # PEP 562: called only for names not yet in globals().  A layer's own
    # name imports it, which binds it here; cache each other name.
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
