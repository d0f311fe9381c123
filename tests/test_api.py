"""The public surface: what ``fracmech.__all__`` and the layer modules export."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import fracmech

# the package re-exports these layers, in this order; cli stands apart
PACKAGE_LAYERS = ("errors", "model", "trajectory", "specfun", "integrate", "oscillator", "similarity")
LAYERS = (*PACKAGE_LAYERS, "cli")
# the rank of what a relative import names; the package itself
# (``from . import __version__``) stands after every package layer
RANK = {**{layer: i for i, layer in enumerate(LAYERS)}, "": len(PACKAGE_LAYERS) - 1}


def _exports(layer):
    return importlib.import_module(f"fracmech.{layer}").__all__


def test_every_package_export_resolves():
    missing = [name for name in fracmech.__all__ if not hasattr(fracmech, name)]
    assert missing == []
    assert len(set(fracmech.__all__)) == len(fracmech.__all__)


def test_package_surface_is_the_layer_lists_in_order():
    assert fracmech.__all__ == ["__version__", *(n for layer in PACKAGE_LAYERS for n in _exports(layer))]
    assert callable(fracmech.integrate) and fracmech.integrate.__module__ == "fracmech.integrate"


def test_no_name_is_exported_by_two_layers():
    # the package star-imports every layer, so a second exporter would
    # silently shadow the first
    owners = {}
    for layer in LAYERS:
        for name in _exports(layer):
            owners.setdefault(name, []).append(layer)
    assert {name: ls for name, ls in owners.items() if len(ls) > 1} == {}


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_are_defined_in_their_layer(layer):
    # a function re-exported from another module would be attributed to that
    # module, so a per-layer count of calls would miss it here
    mod = importlib.import_module(f"fracmech.{layer}")
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, name


def _relative_imports(layer):
    """(line, name) of each relative import in a layer module, at any depth;
    ``from . import x`` names x when x is a layer, else the package ("")."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"fracmech.{layer}")))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for name in [node.module] if node.module else [a.name for a in node.names]:
                yield node.lineno, name if name in RANK else ""


@pytest.mark.parametrize("layer", LAYERS)
def test_layers_import_only_earlier_layers(layer):
    # an import of this layer or a later one, even inside a function, is a cycle
    late = [(line, name) for line, name in _relative_imports(layer) if RANK[name] >= RANK[layer]]
    assert late == []


def test_hj_trajectory_reaches_period_then_the_beta_inversion(monkeypatch):
    # the benchmark's tracer times hj_trajectory through these module-level
    # names: period first, then inv_inc_beta, which calls the public inc_beta
    import fracmech.oscillator as oscillator
    import fracmech.specfun as specfun

    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(oscillator, "period")
    counting(oscillator, "inv_inc_beta")
    counting(specfun, "inc_beta")
    spec = oscillator.OscillatorSpec.from_exponents(1.5, 1.7, energy=2.0)
    oscillator.hj_trajectory(spec, 0.3)
    assert calls[0] == "period" and calls.count("period") == 1
    assert calls.count("inv_inc_beta") >= 1 and calls.count("inc_beta") >= 1
    assert calls.index("inv_inc_beta") < calls.index("inc_beta")


def test_readme_session_prints_its_documented_period(capsys):
    # runs README's Python session as written, so its code and the period
    # it documents cannot drift from the library
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    session = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    documented = re.search(r"print\(period\(spec\)\)\s+# (\S+)", session).group(1)
    exec(compile(session, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == documented == "3.6504714985585363"
