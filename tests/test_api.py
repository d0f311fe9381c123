"""The public surface: what ``fracmech.__all__`` and the layer modules export."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracmech
from fracmech.model import _rule

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


# ------------------------------------------------------------- the type edge

P, V = fracmech.FractionalParams(1.5, 1.0), fracmech.PowerLawPotential(1.0, 1.5)
IC, SPEC = fracmech.InitialConditions(q0=[1.0], p0=[0.0]), fracmech.OscillatorSpec.from_exponents(1.5, 1.5)
PLANE = fracmech.InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.8])


def _traj():
    return fracmech.integrate(P, V, IC, (0.0, 0.5))[0]


# one row per call and the field its DomainError must name: each once raised a raw
# TypeError or ran on a None, bool or numeric string taken as a number
TYPE_EDGE = {
    "params-none-d_alpha": (lambda: fracmech.FractionalParams(1.5, None), "d_alpha"),
    "from_mass-none": (lambda: fracmech.FractionalParams.from_mass(None), "mass"),
    "from_mass-bool": (lambda: fracmech.FractionalParams.from_mass(True), "mass"),
    "potential-none-strength": (lambda: fracmech.PowerLawPotential(None, 2.0), "strength"),
    "potential-bool-degree": (lambda: fracmech.PowerLawPotential(1.0, True), "degree"),
    "potential-energy-none": (lambda: V.energy(None), "q"),
    "ic-numeric-strings": (lambda: fracmech.InitialConditions(q0="1.5", p0="0"), "q0"),
    "state-none-t": (lambda: fracmech.PhaseState(None, [1.0], [0.0]), "t"),
    "state-numeric-strings": (lambda: fracmech.PhaseState(0.0, "1", "0"), "q"),
    "abs_power-string": (lambda: fracmech.abs_power("2", 2.0), "x"),
    "lagrangian-string-qdot": (lambda: fracmech.lagrangian(P, V, [1.0], "1"), "qdot"),
    "momentum-none-qdot": (lambda: fracmech.momentum_from_velocity(P, None), "qdot"),
    "velocity-bool-p": (lambda: fracmech.velocity_from_momentum(P, True), "p"),
    "residual-none-q": (lambda: fracmech.euler_lagrange_residual(P, V, None, 1.0, 1.0), "q"),
    "turning_point-none": (lambda: fracmech.turning_point(V, None), "energy"),
    "free_particle-none": (lambda: fracmech.free_particle_trajectory(P, None, 0.0, 0.0), "energy"),
    "poisson-none-step": (lambda: fracmech.poisson_bracket(len, len, fracmech.PhaseState(0.0, [1.0], [0.0]), None),
                          "step"),
    "action-none-tol": (lambda: fracmech.action(P, V, _traj(), None), "quad_tol"),
    "eval-none-t": (lambda: _traj().eval(None), "t"),
    "eval-string-t": (lambda: _traj().eval("0.1"), "t"),
    "eval-bool-t": (lambda: _traj().eval(True), "t"),
    "derivative-none-t": (lambda: _traj().derivative(None), "t"),
    "derivative-string-t": (lambda: _traj().derivative("0.1"), "t"),
    "derivative-bool-t": (lambda: _traj().derivative(True), "t"),
    "span-none-t0": (lambda: fracmech.integrate(P, V, IC, (None, 1.0)), "t0"),
    "span-none-t1": (lambda: fracmech.integrate(P, V, IC, (0.0, None)), "t1"),
    "span-strings": (lambda: fracmech.integrate(P, V, IC, ("0", "1")), "t0"),
    "span-bool-t1": (lambda: fracmech.integrate(P, V, IC, (0.0, True)), "t1"),
    "spec-none-energy": (lambda: fracmech.OscillatorSpec(P, V, None), "energy"),
    "measure_period-none": (lambda: fracmech.measure_period(P, V, None), "energy"),
    "hj_time_of_flight-none": (lambda: fracmech.hj_time_of_flight(SPEC, None), "q"),
    "hj_time_of_flight-bool": (lambda: fracmech.hj_time_of_flight(SPEC, True), "q"),
    "hj_position-none": (lambda: fracmech.hj_position(SPEC, None), "t"),
    "hj_position-string": (lambda: fracmech.hj_position(SPEC, "0.1"), "t"),
    "hj_trajectory-bool": (lambda: fracmech.hj_trajectory(SPEC, True), "t"),
    "hj_trajectory-none-delta": (lambda: fracmech.hj_trajectory(SPEC, 0.1, None), "delta"),
    "levels-none-hbar": (lambda: fracmech.quantum_levels(SPEC, None, 1), "hbar"),
    "levels-none-n": (lambda: fracmech.quantum_levels(SPEC, 1.0, None), "n"),
    "classical-none": (lambda: fracmech.classical_limit_solution(None, 1.0, 1.0, 0.0, 0.0), "energy"),
    "exponents-string-alpha": (lambda: fracmech.exponents("1.5", 2.0), "alpha"),
    "exponents-none-degree": (lambda: fracmech.exponents(1.5, None), "degree"),
    "kepler_gamma-string": (lambda: fracmech.kepler_gamma("1.5"), "alpha"),
    "kepler_gamma-none": (lambda: fracmech.kepler_gamma(None), "alpha"),
    "scale_trajectory-none": (lambda: fracmech.scale_trajectory(_traj(), None, 1.5, 1.5), "rho"),
    "verify_scaling-bool": (lambda: fracmech.verify_scaling(P, V, IC, [True]), "rho"),
    "verify_scaling-none": (lambda: fracmech.verify_scaling(P, V, IC, [None]), "rho"),
    "kepler-none-strength": (lambda: fracmech.fractional_kepler_check(1.5, PLANE, [2.0], strength=None), "strength"),
    "kepler-bool-d_alpha": (lambda: fracmech.fractional_kepler_check(1.5, PLANE, [2.0], d_alpha=True), "d_alpha"),
    "kepler-none-rho": (lambda: fracmech.fractional_kepler_check(1.5, PLANE, [None]), "rho"),
    "kepler-list-rho": (lambda: fracmech.fractional_kepler_check(1.5, PLANE, [[2.0]]), "rho"),
    "verify_scaling-array-rho": (lambda: fracmech.verify_scaling(P, V, IC, [np.array([2.0, 4.0])]), "rho"),
    "ln_gamma-none": (lambda: fracmech.ln_gamma(None), "x"),
    "beta-string-a": (lambda: fracmech.beta("0.5", 0.5), "a"),
    "inc_beta-none-a": (lambda: fracmech.inc_beta(None, 0.5, 0.3), "a"),
    "inc_beta-string-a": (lambda: fracmech.inc_beta("x", 0.5, 0.3), "a"),
    "inv_inc_beta-string-a": (lambda: fracmech.inv_inc_beta("0.5", 0.5, 0.3), "a"),
    "inv_inc_beta-string-target": (lambda: fracmech.inv_inc_beta(0.5, 0.5, "0.3"), "target"),
    "hyp2f1-string-mu": (lambda: fracmech.hyp2f1("0.5", 0.5, 1.5, 0.3), "mu"),
    "segment-eval-string-t": (lambda: _traj().segment(0).eval("x"), "t"),
    # an array in a field that holds one number: the records took it (a spec's period came back an
    # array), PhaseState and the specfun kernels raised a raw TypeError or ValueError, and hyp2f1
    # given a one-element mu returned an array
    "params-array-alpha": (lambda: fracmech.FractionalParams(np.array([1.5]), 1.0), "alpha"),
    "from_mass-array": (lambda: fracmech.FractionalParams.from_mass(np.array([1.0])), "mass"),
    "potential-array-strength": (lambda: fracmech.PowerLawPotential(np.array([1.0]), 1.5), "strength"),
    "config-array-rel_tol": (lambda: fracmech.IntegratorConfig(rel_tol=np.array([1e-10])), "rel_tol"),
    "spec-array-energy": (lambda: fracmech.OscillatorSpec.from_exponents(1.5, 1.5, energy=np.array([1.0])), "energy"),
    "state-array-t": (lambda: fracmech.PhaseState(np.array([0.0]), [1.0], [1.0]), "t"),
    "ln_gamma-array": (lambda: fracmech.ln_gamma(np.array([0.5])), "x"),
    "ln_gamma-pair": (lambda: fracmech.ln_gamma(np.array([0.5, 0.6])), "x"),
    "beta-array-a": (lambda: fracmech.beta(np.array([0.5]), 0.5), "a"),
    "beta-pair-b": (lambda: fracmech.beta(0.5, np.array([0.5, 0.6])), "b"),
    "inc_beta-array-x": (lambda: fracmech.inc_beta(0.5, 0.5, np.array([0.5])), "x"),
    "inc_beta-pair-a": (lambda: fracmech.inc_beta(np.array([0.5, 0.6]), 0.5, 0.3), "a"),
    "inv_inc_beta-array-target": (lambda: fracmech.inv_inc_beta(0.5, 0.5, np.array([0.5])), "target"),
    "inv_inc_beta-pair-target": (lambda: fracmech.inv_inc_beta(0.5, 0.5, np.array([0.5, 0.6])), "target"),
    "hyp2f1-array-mu": (lambda: fracmech.hyp2f1(np.array([0.5]), 0.5, 1.5, 0.3), "mu"),
    "hyp2f1-array-mu_plus_one": (lambda: fracmech.hyp2f1(0.5, 0.5, np.array([1.5]), 0.3), "mu_plus_one"),
    "hyp2f1-pair-x": (lambda: fracmech.hyp2f1(0.5, 0.5, 1.5, np.array([0.5, 0.6])), "x"),
    # a one-element array where an argument holds one number: these calls returned an array (turning_point,
    # quantum_levels, free_particle_trajectory, abs_power) or a float, or raised a raw TypeError or ValueError
    # or a DomainError naming the wrong argument
    "eval-array-t": (lambda: _traj().eval(np.array([0.1])), "t"),
    "derivative-array-t": (lambda: _traj().derivative(np.array([0.1])), "t"),
    "segment-eval-array-t": (lambda: _traj().segment(0).eval(np.array([0.1])), "t"),
    "span-array-t0": (lambda: fracmech.integrate(P, V, IC, (np.array([0.0]), 1.0)), "t0"),
    "span-array-t1": (lambda: fracmech.integrate(P, V, IC, (0.0, np.array([1.0]))), "t1"),
    "span-pair-t1": (lambda: fracmech.integrate(P, V, IC, (0.0, np.array([1.0, 2.0]))), "t1"),
    "q_levels-array-level": (lambda: fracmech.integrate(P, V, IC, (0.0, 1.0), q_levels=[(0, np.array([0.5]))]),
                             "level"),
    "radial_direction-array": (lambda: fracmech.integrate(P, V, PLANE, (0.0, 1.0), radial_direction=np.array([1])),
                               "radial_direction"),
    "stop_after-array-count": (
        lambda: fracmech.integrate(P, V, IC, (0.0, 1.0), stop_after=("turning_point", np.array([1]))),
        "stop_after_count"),
    "hj_trajectory-array-t": (lambda: fracmech.hj_trajectory(SPEC, np.array([0.1])), "t"),
    "hj_position-array-t": (lambda: fracmech.hj_position(SPEC, np.array([0.1])), "t"),
    "hj_time_of_flight-array": (lambda: fracmech.hj_time_of_flight(SPEC, np.array([0.1])), "q"),
    "classical-array-t": (lambda: fracmech.classical_limit_solution(1.0, 1.0, 1.0, 0.0, np.array([0.1])), "t"),
    "levels-array-hbar": (lambda: fracmech.quantum_levels(SPEC, np.array([1.0]), 1), "hbar"),
    "levels-array-n": (lambda: fracmech.quantum_levels(SPEC, 1.0, np.array([1])), "n"),
    "turning_point-array": (lambda: fracmech.turning_point(V, np.array([1.0])), "energy"),
    "free_particle-array": (lambda: fracmech.free_particle_trajectory(P, np.array([1.0]), 0.0, 0.0), "energy"),
    "action-array-tol": (lambda: fracmech.action(P, V, _traj(), np.array([1e-10])), "quad_tol"),
    "residual-array-q": (lambda: fracmech.euler_lagrange_residual(P, V, np.array([1.0]), 1.0, 1.0), "q"),
    "poisson-array-step": (
        lambda: fracmech.poisson_bracket(len, len, fracmech.PhaseState(0.0, [1.0], [0.0]), np.array([1e-6])), "step"),
    "abs_power-array-x": (lambda: fracmech.abs_power(np.array([0.1]), 2.0), "x"),
    "abs_power-pair-x": (lambda: fracmech.abs_power(np.array([0.1, 0.2]), 2.0), "x"),
    # the exponent's array was taken as a power: abs_power returned array([0.01])
    "abs_power-array-k": (lambda: fracmech.abs_power(0.1, np.array([2.0])), "k"),
    # a ragged sequence, which numpy refuses with a raw ValueError ("inhomogeneous shape")
    "params-ragged-alpha": (lambda: fracmech.FractionalParams([1.5, [2.0]], 1.0), "alpha"),
    "turning_point-ragged": (lambda: fracmech.turning_point(V, [1.0, [2.0]]), "energy"),
    "ic-ragged-q0": (lambda: fracmech.InitialConditions(q0=[1.0, [2.0]], p0=[0.0, 0.0]), "q0"),
    "hyp2f1-ragged-x": (lambda: fracmech.hyp2f1(0.5, 0.5, 1.5, [0.3, [0.2]]), "x"),
    # a bool or a numeric string where specfun or abs_power takes a number: each call returned a finite number,
    # the bool taken as 0 or 1 and the string converted by float()
    "inc_beta-numeric-string-a": (lambda: fracmech.inc_beta("0.5", 0.7, 0.3), "a"),
    "ln_gamma-bool": (lambda: fracmech.ln_gamma(True), "x"),
    "beta-bool-a": (lambda: fracmech.beta(True, 0.5), "a"),
    "hyp2f1-bool-x": (lambda: fracmech.hyp2f1(0.5, 0.5, 1.5, True), "x"),
    "inv_inc_beta-bool-target": (lambda: fracmech.inv_inc_beta(0.5, 0.7, True), "target"),
    "abs_power-bool-x": (lambda: fracmech.abs_power(True, 2.0), "x"),
}


@pytest.mark.parametrize("call, field", TYPE_EDGE.values(), ids=TYPE_EDGE.keys())
def test_a_value_that_is_not_a_real_number_is_a_domain_error_naming_its_field(call, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fracmech.DomainError, match=f"^{field} must be a finite number, got "):
            call()


# one row per call given an object of the wrong type, and the argument and type its DomainError
# must name: each once raised a raw AttributeError or TypeError inside the call, or (a None
# params of OscillatorSpec) built a spec without any error
OBJECT_EDGE = {
    "integrate-string-cfg": (lambda: fracmech.integrate(P, V, IC, (0.0, 1.0), "x"), "cfg", "IntegratorConfig"),
    "integrate-none-params": (lambda: fracmech.integrate(None, V, IC, (0.0, 1.0)), "params", "FractionalParams"),
    "integrate-none-pot": (lambda: fracmech.integrate(P, None, IC, (0.0, 1.0)), "pot", "PowerLawPotential"),
    "integrate-none-ic": (lambda: fracmech.integrate(P, V, None, (0.0, 1.0)), "ic", "InitialConditions"),
    "measure_period-int-cfg": (lambda: fracmech.measure_period(P, V, 1.0, 1), "cfg", "IntegratorConfig"),
    "period_report-string-cfg": (lambda: fracmech.period_report(SPEC, "x"), "cfg", "IntegratorConfig"),
    "spec-none-params": (lambda: fracmech.OscillatorSpec(None, V, 1.0), "params", "FractionalParams"),
    "spec-none-pot": (lambda: fracmech.OscillatorSpec(P, None, 1.0), "pot", "PowerLawPotential"),
    "verify_scaling-none-ic": (lambda: fracmech.verify_scaling(P, V, None, [2.0]), "ic", "InitialConditions"),
    "kepler-none-ic": (lambda: fracmech.fractional_kepler_check(1.5, None, [2.0]), "ic", "InitialConditions"),
    "scale_trajectory-none-traj": (lambda: fracmech.scale_trajectory(None, 2.0, 1.5, 1.5), "traj", "Trajectory"),
    "action-none-traj": (lambda: fracmech.action(P, V, None), "traj", "Trajectory"),
    "fit_time_exponent-none": (lambda: fracmech.fit_time_exponent(None), "rows", "tuple or list"),
    "fit_time_exponent-ints": (lambda: fracmech.fit_time_exponent([1, 2]), "rows[0]", "ScalingRow"),
    "hamiltonian-none-state": (lambda: fracmech.hamiltonian(P, V, None), "state", "PhaseState"),
    "period-none-spec": (lambda: fracmech.period(None), "spec", "OscillatorSpec"),
    # these raised a raw AttributeError inside the call
    "period_quadrature-none-spec": (lambda: fracmech.period_quadrature(None), "spec", "OscillatorSpec"),
    "hj_position-string-spec": (lambda: fracmech.hj_position("x", 0.1), "spec", "OscillatorSpec"),
    "levels-none-spec": (lambda: fracmech.quantum_levels(None, 1.0, 1), "spec", "OscillatorSpec"),
    "lagrangian-none-params": (lambda: fracmech.lagrangian(None, V, [1.0], [0.5]), "params", "FractionalParams"),
    "poisson-none-field": (lambda: fracmech.poisson_bracket(None, len, fracmech.PhaseState(0.0, [1.0], [0.0])), "u",
                           "Callable"),
    # a record field that is not of its annotated type: these records were built as given
    "event-string-state": (lambda: fracmech.EventRecord("turning_point", 0.5, "x"), "state", "PhaseState"),
    "event-float-kind": (lambda: fracmech.EventRecord(1.0, 0.5, fracmech.PhaseState(0.5, [1.0], [0.0])), "kind",
                         "str"),
    "segment-list-y_start": (lambda: fracmech.DenseSegment(0.0, 0.5, [1.0, 0.0], np.zeros((2, 4))), "y_start",
                             "ndarray"),
    "kepler_report-list-rows": (lambda: fracmech.KeplerReport([], 1.0, 1.0, None, None), "rows", "tuple"),
    # a variadic tuple's entries: the report built with rows that are not ScalingRows
    "kepler_report-string-row": (lambda: fracmech.KeplerReport(("x", None), 1.0, 1.0, None, None), "rows[0]",
                                 "ScalingRow"),
}


def test_every_record_field_has_a_boundary_rule():
    # a field whose annotation the rule does not know is let through unchecked
    records = [obj for obj in map(fracmech.__dict__.get, fracmech.__all__) if dataclasses.is_dataclass(obj)]
    assert len(records) >= 13
    unchecked = [f"{record.__name__}.{name}: {hint}" for record in records
                 for name, hint in typing.get_type_hints(record.__init__).items()
                 if name != "return" and not _rule(hint)]
    assert unchecked == []


def _entry_points():
    """Each function of a package layer's __all__, each record's __init__, and each public method or
    classmethod of a record that has an annotated argument."""
    for layer in PACKAGE_LAYERS:
        module = importlib.import_module(f"fracmech.{layer}")
        for obj in map(module.__dict__.get, module.__all__):
            if inspect.isfunction(obj):
                yield obj
            elif dataclasses.is_dataclass(obj):
                yield obj.__init__
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if attr[0] != "_" and inspect.isfunction(fn) and typing.get_type_hints(fn).keys() - {"return"}:
                        yield fn


def test_every_public_entry_point_is_the_compiled_guard():
    # an entry point that is not the guard checks its arguments by a second rule of its own, or not at all
    points = {fn.__qualname__: fn for fn in _entry_points()}
    assert {"abs_power", "ln_gamma", "beta", "inc_beta", "inv_inc_beta", "hyp2f1", "Trajectory.eval",
            "Trajectory.derivative", "Trajectory.state", "Trajectory.segment", "DenseSegment.at", "DenseSegment.eval",
            "PowerLawPotential.energy", "PowerLawPotential.gradient", "InitialConditions.resolve",
            "FractionalParams.from_mass", "OscillatorSpec.from_exponents", "ScalingRow.of"} <= points.keys()
    assert len(points) >= 58  # 33 functions, 13 records and 12 methods
    unguarded = [name for name, fn in points.items() if fn.__code__.co_filename != f"<guard of {name}>"]
    assert unguarded == []


def test_an_optional_annotation_keeps_its_rule_in_the_typing_union_form():
    # Python 3.10's get_type_hints turns an argument or field that defaults to None into Optional[X], a
    # typing.Union rather than the X | None written in the source; the rule must read both forms alike
    guarded = [obj.__init__ if dataclasses.is_dataclass(obj) else obj
               for obj in map(fracmech.__dict__.get, fracmech.__all__) if callable(obj)]
    optional = [(f"{fn.__qualname__}.{name}", hint) for fn in guarded if inspect.isfunction(fn)
                for name, hint in typing.get_type_hints(fn).items()
                if type(hint) is types.UnionType and type(None) in typing.get_args(hint)]
    assert len(optional) >= 8
    lost = [where for where, hint in optional
            if bool(_rule(hint)) != bool(_rule(typing.Optional[typing.Union[typing.get_args(hint)]]))]
    assert lost == []


def test_an_int_field_refuses_a_fraction_and_keeps_its_integral_values():
    # an EventRecord was built with component 1.5; quantum_levels refused a fractional n by its own check alone
    state = fracmech.PhaseState(0.0, [1.0], [0.0])
    with pytest.raises(fracmech.DomainError, match=r"^component must be an integer, got 1\.5$"):
        fracmech.EventRecord("x", 0.5, state, 1.5)
    with pytest.raises(fracmech.DomainError, match=r"^n must be an integer, got 0\.5$"):
        fracmech.quantum_levels(fracmech.OscillatorSpec.from_exponents(1.5, 1.5), 1.0, 0.5)
    for component in (1, np.int64(1), 1.0, np.array(1)):
        assert fracmech.EventRecord("x", 0.5, state, component).component is component
    assert _rule(int)(2.0, "n") == 2.0


@pytest.mark.parametrize("call, name, kind", OBJECT_EDGE.values(), ids=OBJECT_EDGE.keys())
def test_an_object_of_the_wrong_type_is_a_domain_error_naming_its_argument(call, name, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fracmech.DomainError, match=f"^{re.escape(name)} must be of type {kind}, got "):
            call()


# one row per call whose argument is not the container it must be, and the start of the
# DomainError that names it: each once raised a raw TypeError, IndexError or ValueError, or
# ran on the part it could read
SHAPE_EDGE = {
    "span-scalar": (lambda: fracmech.integrate(P, V, IC, 1.0), "span must be a (t0, t1) pair, got 1.0"),
    "span-one": (lambda: fracmech.integrate(P, V, IC, (0.0,)), "span must be a (t0, t1) pair, got (0.0,)"),
    "span-three": (lambda: fracmech.integrate(P, V, IC, (0.0, 1.0, 5.0)), "span must be a (t0, t1) pair, got "),
    "q_levels-none": (lambda: fracmech.integrate(P, V, IC, (0.0, 1.0), q_levels=None), "q_levels must be a sequence"),
    "q_levels-int": (lambda: fracmech.integrate(P, V, IC, (0.0, 1.0), q_levels=5), "q_levels must be a sequence"),
    "verify_scaling-scalar": (lambda: fracmech.verify_scaling(P, V, IC, 2.0), "rho_list must be a sequence"),
    "kepler-scalar": (lambda: fracmech.fractional_kepler_check(1.5, PLANE, 2.0), "rho_list must be a sequence"),
}


@pytest.mark.parametrize("call, message", SHAPE_EDGE.values(), ids=SHAPE_EDGE.keys())
def test_a_malformed_span_event_option_or_scale_list_is_a_domain_error_naming_it(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fracmech.DomainError, match=f"^{re.escape(message)}"):
            call()
