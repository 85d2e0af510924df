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
``__all__`` of each layer.  The exact core (``core``, ``coefficients``,
``exact``) loads with it; ``approximants``, ``spectral`` and ``stochastic``
load only when one of their names is first looked up, so the exact commands
never load them.
"""

import importlib

from . import coefficients, core, exact
from .coefficients import *
from .core import *
from .exact import *

__version__ = "0.1.0"

# each lazily loaded layer's ``__all__``, which cannot be read without
# importing the layer
_LAYERS = {
    "approximants": (
        "IntPolynomial",
        "partition_polynomial",
        "partition_polynomial_degree",
        "plateau_numerators",
        "restricted_partitions",
        "StepFunction",
        "step_function",
    ),
    "spectral": (
        "DEFAULT_M_MAX",
        "DEFAULT_FOURIER_K",
        "transform_product",
        "transform_product_tail_bound",
        "transform_series",
        "transform_pole_product",
        "FourierCoefficients",
        "fourier_coefficients",
        "phi_fourier",
        "partition_of_unity",
        "translate_sum",
        "translate_sum_synthesis",
        "poisson_check",
    ),
    "stochastic": ("BLOCK_SIZE", "McEstimate", "mc_phi"),
}
_HOMES = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = [*core.__all__, *coefficients.__all__, *exact.__all__, *_HOMES]


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
