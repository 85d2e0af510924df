"""The package namespace is the union of the layers' ``__all__``."""

import importlib

import fabius
from test_imports import CORE, probe

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


def test_a_name_loads_the_layers_up_to_its_own():
    every_layer = [f"fabius.{layer}" for layer in LAYERS]
    names = ["__wrapped__", "core", "Dyadic", "phi_exact", "mc_phi"]
    assert probe(("import", "fabius"), *(("name", name) for name in names)) == [
        # the import loads no module of the package
        (("import", "fabius"), None, []),
        # a dunder probe loads nothing
        (("name", "__wrapped__"), False, []),
        # a layer's own name loads that layer alone and hands out its module
        (("name", "core"), True, ["fabius.core", "fractions"]),
        (("name", "Dyadic"), True, ["fabius.core", "fractions"]),
        (("name", "phi_exact"), True, CORE),
        # every layer, though none of them imports numpy
        (("name", "mc_phi"), True, sorted(["fractions", *every_layer])),
    ]
