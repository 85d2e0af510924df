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
``__all__`` of each layer, which is the one place each is written.
``import fabius`` loads no layer.  The layer's own name (``fabius.exact``)
loads that layer alone.  Any other name loads the layers in ``__all__``
order, ``core``, ``coefficients``, ``exact``, ``approximants``,
``spectral``, ``stochastic``, binding each one's names here, up to the
first layer that lists it: ``fabius.Dyadic`` loads ``core`` alone,
``fabius.mc_phi`` all six.  ``__all__`` and ``dir()`` load every layer.
The CLI imports each layer as a module, so each command loads only the
layers it runs.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("core", "coefficients", "exact", "approximants", "spectral", "stochastic")


def __getattr__(name):
    # PEP 562: called only for names not yet in globals().  Other dunder
    # probes (``__wrapped__``, ``__test__``) load nothing.
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__" or not name.startswith("__"):
        names = []
        for layer in _LAYERS:
            module = importlib.import_module(f".{layer}", __name__)
            globals().update((key, getattr(module, key)) for key in module.__all__)
            if name in module.__all__:
                return getattr(module, name)
            names += module.__all__
        if name == "__all__":
            globals()[name] = names
            return names
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
