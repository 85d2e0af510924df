"""The package namespace is the union of the layers' ``__all__``."""

import importlib
import textwrap

import fabius
from test_imports import CORE, _run

LAYERS = ("core", "coefficients", "exact", "approximants", "spectral", "stochastic")


def _layer(name):
    return importlib.import_module(f"fabius.{name}")


def test_lazy_table_matches_each_lazy_layer():
    # every layer is lazy, and the package lists them in ``__all__`` order
    assert fabius._LAYERS == LAYERS


def test_all_is_the_layers_all_in_order():
    assert fabius.__all__ == [name for layer in LAYERS for name in _layer(layer).__all__]
    assert len(set(fabius.__all__)) == len(fabius.__all__)


def test_every_name_resolves_to_its_layer_object():
    for layer in LAYERS:
        module = _layer(layer)
        for name in module.__all__:
            assert getattr(fabius, name) is getattr(module, name), name


# Looks up each name of the list literal in argv[2] on a freshly imported
# package, in order, and prints one record per name: [name, whether the
# lookup succeeded, the modules of the list literal in argv[1] loaded so far].
LOOKUP = textwrap.dedent(
    """
    import sys

    watched = eval(sys.argv[1])

    import fabius
    for name in eval(sys.argv[2]):
        found = hasattr(fabius, name)
        loaded = [module for module in watched if module in sys.modules]
        print(repr([name, found, sorted(loaded)]), flush=True)
    """
)


def test_a_name_loads_the_layers_up_to_its_own():
    every_layer = [f"fabius.{layer}" for layer in LAYERS]
    assert _run(["__wrapped__", "Dyadic", "phi_exact", "mc_phi"], LOOKUP) == [
        # a dunder probe loads nothing
        ("__wrapped__", False, []),
        ("Dyadic", True, ["fabius.core", "fractions"]),
        ("phi_exact", True, sorted(CORE)),
        # every layer, though none of them imports numpy
        ("mc_phi", True, sorted(["fractions", *every_layer])),
    ]
