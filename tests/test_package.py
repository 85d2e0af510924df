"""The package namespace is the union of the layers' ``__all__``."""

import importlib

import fabius

LAYERS = ("core", "coefficients", "exact", "approximants", "spectral", "stochastic")


def _layer(name):
    return importlib.import_module(f"fabius.{name}")


def test_lazy_table_matches_each_lazy_layer():
    assert set(fabius._LAYERS) == set(LAYERS[3:])
    for name, names in fabius._LAYERS.items():
        assert names == tuple(_layer(name).__all__)


def test_all_is_the_layers_all_in_order():
    assert fabius.__all__ == [name for layer in LAYERS for name in _layer(layer).__all__]
    assert len(set(fabius.__all__)) == len(fabius.__all__)


def test_every_name_resolves_to_its_layer_object():
    for layer in LAYERS:
        module = _layer(layer)
        for name in module.__all__:
            assert getattr(fabius, name) is getattr(module, name), name

