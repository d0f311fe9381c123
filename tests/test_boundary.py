"""The whole public surface: every callable gives a finite answer or a FracmechError.

One property test walks every callable in ``fracmech.__all__``, every public
method or classmethod of its records that takes an annotated argument, and
every CLI subcommand through in-process ``main``.  Each argument in turn (each
flag, for the CLI) takes one input while the others keep a valid base value.
The inputs are the explicit examples below, values that once leaked raw errors
or non-finite answers, plus the derandomised floats of the ``fracmech``
hypothesis profile.  Every call runs with warnings as errors and under a
wall-clock bound.  It must return a value whose numbers are all finite, or raise
a ``FracmechError``.  A CLI call must exit 0, 2, 3 or 4, never 1 or with a
traceback.  ``action`` may also warn ``ToleranceWarning``: it is the documented
outcome when the quadrature error exceeds ``quad_tol``, which a tiny
``quad_tol`` asks for.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import math
import signal
import typing
import warnings

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import fracmech as fm
from fracmech import cli

P, V = fm.FractionalParams(1.5, 1.0), fm.PowerLawPotential(1.0, 1.5)
STATE = fm.PhaseState(0.0, [0.5], [0.3])
IC, PLANE = fm.InitialConditions(q0=[1.0], p0=[0.0]), fm.InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.8])
# loose tolerances keep each run short, and a step budget ends a run that would take many steps (a huge
# span or force) within the bound
SPEC, CFG = fm.OscillatorSpec.from_exponents(1.5, 1.5), fm.IntegratorConfig(1e-6, 1e-9, 2000)
TOLERANCES = ("--rel-tol", "1e-6", "--abs-tol", "1e-9", "--max-steps", "2000")
TRAJ = fm.integrate(P, V, IC, (0.0, 0.5))[0]
SEGMENT = TRAJ.segment(0)
ROWS = [fm.ScalingRow(2.0, 2.0, 2.0, 0.0), fm.ScalingRow(4.0, 4.0, 4.0, 0.0)]


def field(state: fm.PhaseState) -> float:
    """A finite phase-space field, for the brackets."""
    return float(state.q[0] * state.p[0])


ERROR = ("a message",)
# one valid call per public callable: positional arguments, then keyword arguments
BASE = {
    "FracmechError": (ERROR, {}), "DomainError": (ERROR, {}), "IntegrationError": (ERROR, {}),
    "StepSizeUnderflow": (ERROR, {}), "MaxStepsExceeded": (ERROR, {}), "UnsuitablePhysicsError": (ERROR, {}),
    "ToleranceWarning": (ERROR, {}),
    "FractionalParams": ((1.5, 1.0), {}),
    "PowerLawPotential": ((1.0, 1.5), {}),
    "PhaseState": ((0.0, [0.5], [0.3]), {}),
    "InitialConditions": (([1.0], [0.0]), {}),
    "abs_power": ((0.5, 1.5), {}),
    "hamiltonian": ((P, V, STATE), {}),
    "lagrangian": ((P, V, [0.5], [0.3]), {}),
    "momentum_from_velocity": ((P, [0.3]), {}),
    "velocity_from_momentum": ((P, [0.3]), {}),
    "hamilton_rhs": ((P, V, STATE), {}),
    "euler_lagrange_residual": ((P, V, 0.5, 0.3, 0.1), {}),
    "turning_point": ((V, 1.0), {}),
    "free_particle_trajectory": ((P, 1.0, 0.0, 0.5), {}),
    "poisson_bracket": ((field, field, STATE, 1e-6), {}),
    "total_time_derivative": ((field, P, V, STATE, 1e-6), {}),
    "DenseSegment": ((0.0, 0.1, TRAJ._rows[0], TRAJ.coefs[0]), {}),
    "Trajectory": ((TRAJ.times, TRAJ.positions, TRAJ.momenta, TRAJ.energies, TRAJ.coefs, TRAJ.widths, 5, 1), {}),
    "action": ((P, V, TRAJ, 1e-9), {}),
    "ln_gamma": ((0.5,), {}),
    "beta": ((0.5, 0.7), {}),
    "inc_beta": ((0.5, 0.7, 0.3), {}),
    "inv_inc_beta": ((0.5, 0.7, 0.5), {}),
    "hyp2f1": ((0.5, 0.5, 1.5, 0.3), {}),
    "IntegratorConfig": ((1e-6, 1e-9, 2000), {}),
    "EventRecord": (("turning_point", 0.5, STATE, 0), {}),
    "integrate": ((P, V, IC, (0.0, 0.5), CFG),
                  {"q_levels": [(0, 0.5)], "radial_direction": 0, "stop_after": ("custom", 1)}),
    "OscillatorSpec": ((P, V, 1.0), {}),
    "PeriodReport": ((1.0, 1.0, 1.0, 0.0), {}),
    "period": ((SPEC,), {}),
    "period_quadrature": ((SPEC,), {}),
    "measure_period": ((P, V, 1.0, CFG), {}),
    "period_report": ((SPEC, CFG, True), {}),
    "hj_time_of_flight": ((SPEC, 0.5), {}),
    "hj_position": ((SPEC, 0.3), {}),
    "hj_trajectory": ((SPEC, 0.3, 0.1), {}),
    "quantum_levels": ((SPEC, 1.0, 2), {}),
    "classical_limit_solution": ((1.0, 1.0, 1.0, 0.0, 0.5), {}),
    "SimilarityExponents": ((1.0, 1.0, 1.0, 1.0), {}),
    "ScalingRow": ((2.0, 2.0, 2.0, 0.0), {}),
    "KeplerReport": ((tuple(ROWS), 1.0, 1.5, 1.5, 0.0), {}),
    "exponents": ((1.5, 1.5), {}),
    "scale_trajectory": ((TRAJ, 2.0, 1.5, 1.5), {}),
    "verify_scaling": ((P, V, IC, [2.0], CFG), {}),
    "fractional_kepler_check": ((1.5, PLANE, [2.0], CFG), {"d_alpha": 1.0, "strength": -1.0}),
    "kepler_gamma": ((1.5,), {}),
    "fit_time_exponent": ((ROWS,), {}),
}
# one valid call per public method or classmethod of a record that takes an annotated argument: the bound
# method, positional arguments, then keyword arguments
METHODS = {
    "Trajectory.eval": (TRAJ.eval, (0.2,), {}),
    "Trajectory.derivative": (TRAJ.derivative, (0.2,), {}),
    "Trajectory.state": (TRAJ.state, (1,), {}),
    "Trajectory.segment": (TRAJ.segment, (0,), {}),
    "DenseSegment.at": (SEGMENT.at, (0.5,), {}),
    "DenseSegment.eval": (SEGMENT.eval, (SEGMENT.t_start + 0.5 * SEGMENT.width,), {}),
    "PowerLawPotential.energy": (V.energy, ([0.5],), {}),
    "PowerLawPotential.gradient": (V.gradient, ([0.5],), {}),
    "InitialConditions.resolve": (IC.resolve, (P,), {}),
    "FractionalParams.from_mass": (fm.FractionalParams.from_mass, (1.0,), {}),
    "OscillatorSpec.from_exponents": (fm.OscillatorSpec.from_exponents, (1.5, 1.5), {"d_alpha": 1.0, "g2": 1.0,
                                                                                     "energy": 1.0}),
    "ScalingRow.of": (fm.ScalingRow.of, (2.0, 2.0, 2.1), {}),
}

# one valid command line per subcommand: the flags the walk replaces, one per kind of value a flag feeds
# (the other flags of a kind reach the same constructors), then fixed arguments
COMMANDS = {
    "simulate": ({"--alpha": "1.5", "--q0": "1.0", "--t1": "0.2", "--rel-tol": "1e-6"},
                 ("--d-alpha", "1.0", "--strength", "1.0", "--degree", "1.5", "--p0", "0.0", *TOLERANCES[2:])),
    "period": ({"--beta": "1.5", "--energy": "1.0", "--check-tol": "1e-4"}, ("--alpha", "1.5", "--skip-ode")),
    "hj": ({"--energy": "1.0", "--samples": "3"}, ("--alpha", "1.5", "--beta", "1.5", *TOLERANCES)),
    "sweep": ({"--alphas": "1.5", "--g2": "1.0", "--jobs": "1"},
              ("--betas", "1.5", "--energies", "1.0", *TOLERANCES)),
    "kepler": ({"--alpha": "1.5", "--strength": "-1.0", "--q0": "1.0,0.0", "--rhos": "1.0", "--check-tol": "1e-3"},
               ("--p0", "0.0,0.8", *TOLERANCES)),
}

CALL_BOUND_S = 5.0


class CallTimeout(Exception):
    """A call ran past the per-call wall-clock bound."""


def _on_alarm(signum, frame):
    raise CallTimeout(f"a call ran past {CALL_BOUND_S} s")


def _finite(value) -> bool:
    """Whether every number in value, through sequences, arrays and records, is finite."""
    if isinstance(value, (bool, np.bool_, str)) or value is None:
        return True
    if isinstance(value, int):  # exact, however large
        return True
    if isinstance(value, (float, np.number)):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value))) if value.dtype.kind in "iuf" else all(map(_finite, value.flat))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True  # an error instance, a callable


def _bounded(call):
    """call() under warnings as errors and the wall-clock bound."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signal.setitimer(signal.ITIMER_REAL, CALL_BOUND_S)
            try:
                return call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _walk_library(value) -> list[str]:
    """Each public callable and record method with each argument in turn replaced by value: the calls that
    leaked."""
    leaks = []
    calls = [(name, getattr(fm, name), args, kwargs) for name, (args, kwargs) in BASE.items()]
    for name, fn, args, kwargs in calls + [(name, *call) for name, call in METHODS.items()]:
        slots = [*range(len(args)), *kwargs]
        for slot in slots:
            a, kw = list(args), dict(kwargs)
            if isinstance(slot, int):
                a[slot] = value
            else:
                kw[slot] = value
            try:
                out = _bounded(lambda: fn(*a, **kw))
            except fm.FracmechError:
                continue
            except Exception as exc:  # noqa: BLE001 - the leak the walk reports
                if not (name == "action" and isinstance(exc, fm.ToleranceWarning)):
                    leaks.append(f"{name}[{slot}] = {value!r}: {type(exc).__name__}: {exc}")
                continue
            if not _finite(out):
                leaks.append(f"{name}[{slot}] = {value!r}: returned {out!r}")
    return leaks


def _walk_cli(value, out_dir) -> list[str]:
    """Each subcommand with each flag in turn given value's text: the runs that did not exit 0, 2, 3 or 4."""
    text = value if isinstance(value, str) else repr(value)
    leaks = []
    for command, (flags, fixed) in COMMANDS.items():
        for flag in flags:
            argv = [command, *fixed, "--out", str(out_dir / f"{command}.out")]
            for f, v in flags.items():
                argv += [f, text if f == flag else v]
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = _bounded(lambda: cli.main(argv))
            except SystemExit as exc:  # argparse refuses a flag's value with exit 2
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - the leak the walk reports
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 2, 3, 4):
                leaks.append(f"{' '.join(argv)} -> {code}")
    return leaks


def test_the_walk_covers_every_public_callable():
    public = {n for n in fm.__all__ if callable(getattr(fm, n))}
    assert set(BASE) == public
    for name, (args, kwargs) in BASE.items():  # every base call is valid
        out = _bounded(lambda: getattr(fm, name)(*args, **kwargs))
        assert _finite(out), name
    records = [getattr(fm, n) for n in fm.__all__ if dataclasses.is_dataclass(getattr(fm, n))]
    methods = {f"{record.__name__}.{attr}" for record in records for attr, member in vars(record).items()
               if attr[0] != "_" and inspect.isfunction(fn := getattr(member, "__func__", member))
               and typing.get_type_hints(fn).keys() - {"return"}}
    assert set(METHODS) == methods
    for name, (fn, args, kwargs) in METHODS.items():
        out = _bounded(lambda: fn(*args, **kwargs))
        assert _finite(out), name
    assert set(COMMANDS) == set(cli._build_parser()[1])


# the inputs of the original walk (an array where one number goes, None, a string, a bool, a ragged
# sequence, a huge value, NaN), the far ends of the float range, subnormals, 0-d arrays, alpha -> 1+
# and a degree -> 0
WALK = (np.array([0.1]), None, "x", True, [1.0, [2.0]], 1e300, math.nan, -1e300, 1e-300, -1e-300, 5e-324,
        2.2e-310, np.array(0.1), np.array(1e300), np.float64(math.nan), 1.0 + 1e-12, 1e-12, 0, -1, math.inf,
        -math.inf, 10**400)


def _with_walk_examples(test):
    for value in reversed(WALK):
        test = example(value=value)(test)
    return test


@_with_walk_examples
@given(value=st.floats())
def test_every_public_callable_gives_a_finite_answer_or_a_fracmech_error(value, tmp_path_factory):
    leaks = _walk_library(value) + _walk_cli(value, tmp_path_factory.mktemp("cli"))
    assert leaks == [], "\n".join(leaks)
