"""The public surface: what ``fracmech.__all__`` and the layer modules export."""

from __future__ import annotations

import importlib
import inspect

import pytest

import fracmech

LAYERS = ("specfun", "model", "integrate", "trajectory", "oscillator", "similarity", "cli")


def test_every_package_export_resolves():
    missing = [name for name in fracmech.__all__ if not hasattr(fracmech, name)]
    assert missing == []
    assert len(set(fracmech.__all__)) == len(fracmech.__all__)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_are_defined_in_their_layer(layer):
    # a function re-exported from another module would be attributed to that
    # module, so a per-layer count of calls would miss it here
    mod = importlib.import_module(f"fracmech.{layer}")
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, name
