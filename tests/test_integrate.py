"""Adaptive integration of the canonical equations: accuracy, events, drift.

The long-horizon drift and reversal numbers come from the session-scoped
grid in conftest; everything else is computed inline.
"""

from __future__ import annotations

import importlib
import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from fracmech import (
    DomainError,
    FractionalParams,
    InitialConditions,
    IntegrationError,
    IntegratorConfig,
    MaxStepsExceeded,
    OscillatorSpec,
    PowerLawPotential,
    StepSizeUnderflow,
    action,
    hamiltonian,
    integrate,
    measure_period,
    period,
)
from conftest import GRID_EXPONENTS
from fracmech.integrate import (
    _DENSE, _ERR, _MAX_FACTOR, _MIN_FACTOR, _ORDER_EXP, _SAFETY, _TABLEAU, _event_rows, _kernel, _list_attempt,
    first_event_times,
)
from fracmech.model import PhaseState, _dot, _field, hamilton_rhs
from fracmech.trajectory import DenseSegment

M1 = FractionalParams.from_mass(1.0)
OSC = PowerLawPotential(1.0, 2.0)
HARMONIC_T = math.pi * math.sqrt(2.0)


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(abs_tol=-1e-12)
    with pytest.raises(DomainError):
        IntegratorConfig(max_steps=0)
    assert IntegratorConfig(max_steps=np.int64(10)).max_steps == 10


@pytest.mark.parametrize(
    "options",
    [{"max_steps": 2.5}, {"max_steps": 2.0}, {"max_steps": True}, {"rel_tol": True},
     {"abs_tol": "1e-12"}, {"rel_tol": None}],
    ids=["fractional-max-steps", "float-max-steps", "bool-max-steps", "bool-rel-tol",
         "string-abs-tol", "none-rel-tol"],
)
def test_config_refuses_bools_and_non_integer_max_steps(options):
    # each of these once built a config or raised a raw TypeError: a bool is
    # an int subclass, and a float max_steps compared fine against the step count
    with pytest.raises(DomainError):
        IntegratorConfig(**options)


HARMONIC_IC = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: FractionalParams(1.5, math.inf),
        lambda: FractionalParams(math.nan, 1.0),
        lambda: PowerLawPotential(math.nan, 2.0),
        lambda: PowerLawPotential(1.0, math.inf),
        lambda: OscillatorSpec(M1, OSC, math.inf),
        lambda: OscillatorSpec(M1, OSC, math.nan),
        lambda: InitialConditions(q0=np.array([math.inf]), p0=np.array([0.0])),
        lambda: InitialConditions(q0=np.array([1.0]), p0=np.array([math.nan])),
        lambda: InitialConditions(q0=np.array([1.0, 0.0]), qdot0=np.array([0.0, -math.inf])),
        lambda: integrate(M1, OSC, HARMONIC_IC, (0.0, math.inf)),
        lambda: integrate(M1, OSC, HARMONIC_IC, (math.nan, 1.0)),
        lambda: integrate(M1, OSC, HARMONIC_IC, (0.0, math.nan), stop_after=("turning_point", 1)),
        lambda: integrate(M1, OSC, HARMONIC_IC, (-math.inf, 0.0), stop_after=("turning_point", 1)),
        lambda: IntegratorConfig(rel_tol=math.inf),
        lambda: IntegratorConfig(abs_tol=math.nan),
        lambda: IntegratorConfig(max_steps=math.inf),
    ],
    ids=[
        "d_alpha-inf", "alpha-nan", "strength-nan", "degree-inf", "energy-inf",
        "energy-nan", "q0-inf", "p0-nan", "qdot0-inf", "span-end-inf",
        "span-start-nan", "span-end-nan", "span-start-neg-inf", "rel_tol-inf",
        "abs_tol-nan", "max_steps-inf",
    ],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(DomainError):
        build()


def test_overflowing_field_at_the_start_is_integration_error():
    # alpha * d_alpha = 2e308 overflows the velocity while the energy,
    # d_alpha p^2 = 1e308, is finite; the initial-step estimate divides by
    # the step it derives from that field, which is then zero
    params, free = FractionalParams(2.0, 1e308), PowerLawPotential(0.0, 2.0)
    ic = InitialConditions(q0=np.array([1e-160]), p0=np.array([1.0]))
    with pytest.raises(IntegrationError, match="non-finite step") as err:
        integrate(params, free, ic, (0.0, 3.0))
    assert err.value.t == 0.0


def test_non_finite_energy_raises_with_the_state():
    # |q| = 1e200 overflows |q|^2
    ic = InitialConditions(q0=np.array([1e200]), p0=np.array([0.0]))
    with pytest.raises(IntegrationError, match="non-finite energy") as err:
        integrate(M1, OSC, ic, (0.0, 1.0))
    assert err.value.t == 0.0
    assert list(err.value.y) == [1e200, 0.0]


@pytest.mark.parametrize(
    "params, pot, q0, p0",
    [(FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5), [1e-300], [0.0]),
     (FractionalParams(1.5, 1.0), PowerLawPotential(0.0, 2.0), [0.0], [1e-300]),
     (FractionalParams(1.5, 1.0), PowerLawPotential(-1.0, 1.5), [0.0, 1e-300], [1e-300, 0.0])],
    ids=["potential", "free-kinetic", "plane"],
)
def test_launch_energy_zero_by_underflow_is_domain_error(params, pot, q0, p0):
    # E = 0 only because a nonzero coordinate's term underflowed: the run
    # once stepped on tolerance scales of 1, e.g. 79,838 samples with a drift
    # of 2.6e285 from q0 = 1e-300 in a beta = 1.5 well
    ic = InitialConditions(q0=np.array(q0), p0=np.array(p0))
    with pytest.raises(DomainError, match=r"underflows: q0 = .*, p0 = "):
        integrate(params, pot, ic, (0.0, 1.0))


@pytest.mark.parametrize(
    "pot, q0, p0",
    [(OSC, [0.0], [0.0]), (PowerLawPotential(0.0, 2.0), [1.0], [0.0]), (PowerLawPotential(-1.0, 2.0), [1.0], [1.0])],
    ids=["rest-at-origin", "free-at-rest", "exact-cancellation"],
)
def test_launch_energy_zero_without_underflow_runs(pot, q0, p0):
    ic = InitialConditions(q0=np.array(q0), p0=np.array(p0))
    traj, _ = integrate(FractionalParams(2.0, 1.0), pot, ic, (0.0, 1.0))
    assert traj.energies[0] == 0.0 and traj.t_end == 1.0


@pytest.mark.parametrize(
    "span, base",
    [((8150.0, 8250.0), (0.0, 100.0)), ((1e6, 1e6 + 10.0), (0.0, 10.0))],
)
def test_events_far_from_the_time_origin(span, base):
    # past t = 2^13 an absolute 1e-12 is below one ulp of t; events are
    # located in the step's own theta to the precision of t, so the run ends
    # and matches the same motion started at t = 0
    _, far = integrate(M1, OSC, HARMONIC_IC, span)
    _, near = integrate(M1, OSC, HARMONIC_IC, base)
    assert [ev.kind for ev in far] == [ev.kind for ev in near]
    shifted = [ev.time - span[0] for ev in far]
    assert shifted == pytest.approx([ev.time for ev in near], abs=1e-6)


def test_span_must_be_forward():
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    with pytest.raises(DomainError):
        integrate(M1, OSC, ic, (1.0, 1.0))
    with pytest.raises(DomainError):
        integrate(M1, OSC, ic, (2.0, 1.0))


def test_origin_start_rejected_for_singular_force():
    grav = PowerLawPotential(-1.0, -1.0)
    ic = InitialConditions(q0=np.array([0.0, 0.0]), p0=np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        integrate(FractionalParams(2.0, 0.5), grav, ic, (0.0, 1.0))


def test_harmonic_matches_cosine_phase():
    # defaults leave ~1.5e-10 one-period drift (the 5(4) pair's floor at
    # rel_tol 1e-10); one notch tighter clears the 1e-10 budget cleanly
    cfg = IntegratorConfig(rel_tol=1e-11)
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    traj, _ = integrate(M1, OSC, ic, (0.0, HARMONIC_T), cfg)
    om = math.sqrt(2.0)
    worst = max(
        abs(float(traj.eval(float(t)).q[0]) - math.cos(om * float(t)))
        for t in np.linspace(0.0, HARMONIC_T, 200)
    )
    assert worst < 1e-8
    assert traj.energy_drift() < 1e-10


def test_free_particle_linear_motion():
    free = PowerLawPotential(0.0, 2.0)
    params = FractionalParams(1.5, 1.0)
    # launch with the momentum that carries unit energy: p = E^(1/alpha)
    p0 = 1.0
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([p0]))
    traj, _ = integrate(params, free, ic, (0.0, 5.0))
    slope = 1.5  # alpha * D * (E/D)^(1 - 1/alpha)
    for t in (1.0, 2.5, 5.0):
        assert float(traj.eval(t).q[0]) == pytest.approx(slope * t, rel=1e-10)
        assert float(traj.eval(t).p[0]) == pytest.approx(p0, rel=1e-12)


def test_turning_events_give_half_period_spacing():
    spec = OscillatorSpec.from_exponents(1.5, 1.5, energy=1.0)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    traj, events = integrate(spec.params, spec.pot, ic, (0.0, 3.0 * period(spec)))
    turns = [ev.time for ev in events if ev.kind == "turning_point"]
    assert len(turns) >= 4
    gaps = np.diff(turns[:5])
    half = period(spec) / 2.0
    assert gaps == pytest.approx(half, rel=1e-6)


def test_measured_period_matches_closed_form():
    spec = OscillatorSpec.from_exponents(1.5, 2.0, energy=2.0)
    got = measure_period(spec.params, spec.pot, 2.0)
    assert got == pytest.approx(period(spec), rel=1e-6)


def test_measured_period_harmonic_energy_independent():
    t1 = measure_period(M1, OSC, 1.0)
    t100 = measure_period(M1, OSC, 100.0)
    assert t1 == pytest.approx(HARMONIC_T, rel=1e-6)
    assert abs(t1 - t100) / t1 < 1e-8


def test_turning_event_state_sits_on_the_energy_shell():
    # the event root itself is located to ~1e-13 in p; hitting the 1e-8
    # energy-shell budget is limited by global trajectory error, which at
    # the default tolerances sits a factor of a few above it (same story
    # as the long-horizon drift, see conftest), so this runs tight
    cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
    for a, b, e in [(1.5, 1.5, 1.0), (1.2, 1.9, 2.0), (2.0, 1.1, 0.5)]:
        spec = OscillatorSpec.from_exponents(a, b, energy=e)
        p0 = (e / spec.params.d_alpha) ** (1.0 / a)
        ic = InitialConditions(q0=np.array([0.0]), p0=np.array([p0]))
        _, events = integrate(spec.params, spec.pot, ic, (0.0, period(spec)), cfg)
        turns = [ev for ev in events if ev.kind == "turning_point"]
        assert turns
        for ev in turns:
            # at qdot = 0 the potential carries the whole energy budget
            assert abs(float(ev.state.p[0])) < 1e-6 * p0
            v = spec.pot.strength * abs(float(ev.state.q[0])) ** spec.pot.degree
            assert v == pytest.approx(e, rel=1e-8)


def test_origin_crossing_events():
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    _, events = integrate(M1, OSC, ic, (0.0, HARMONIC_T))
    crossings = [ev.time for ev in events if ev.kind == "origin_crossing"]
    assert crossings == pytest.approx([HARMONIC_T / 4.0, 3.0 * HARMONIC_T / 4.0], rel=1e-9)


def test_level_crossing_events():
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    _, events = integrate(M1, OSC, ic, (0.0, HARMONIC_T), q_levels=[(0, 0.5)])
    hits = [ev for ev in events if ev.kind == "custom"]
    om = math.sqrt(2.0)
    expected = [math.acos(0.5) / om, (2.0 * math.pi - math.acos(0.5)) / om]
    assert [ev.time for ev in hits] == pytest.approx(expected, rel=1e-9)
    for ev in hits:
        assert float(ev.state.q[0]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
def test_a_level_equal_to_a_sample_is_crossed_at_that_sample(sign):
    # the row is exactly 0.0 at the end of the step onto sample i: the crossing tests a < 0.0 <= g and
    # a > 0.0 >= g count it there, where strict ones would miss it on that step and on the next; the
    # bisection places it to the precision of t
    traj, _ = integrate(M1, OSC, HARMONIC_IC, (0.0, HARMONIC_T))
    q, t = traj.positions[:, 0], traj.times
    rises = sign * np.diff(q) > 0.0
    i = next(k for k in range(1, len(q) - 1) if abs(q[k]) < 0.5 and rises[k - 1] and rises[k])
    again, events = integrate(M1, OSC, HARMONIC_IC, (0.0, HARMONIC_T), q_levels=[(0, float(q[i]))])
    assert again.times.tobytes() == t.tobytes()
    assert min(abs(ev.time - t[i]) for ev in events if ev.kind == "custom") <= 2.0 * math.ulp(t[i])


def test_radial_flux_rising_zeros_mark_closest_approach():
    # bound orbit in an attractive inverse-distance potential; q.p rising
    # through zero happens exactly at minimum radius
    grav = PowerLawPotential(-1.0, -1.0)
    params = FractionalParams(2.0, 0.5)
    ic = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, 0.8]))
    traj, events = integrate(
        params, grav, ic, (0.0, 16.0), radial_direction=+1
    )
    peri = [ev for ev in events if ev.kind == "custom"]
    assert len(peri) >= 2
    for ev in peri:
        r_here = float(np.linalg.norm(ev.state.q))
        for dt in (-0.05, 0.05):
            s = traj.eval(min(max(ev.time + dt, 0.0), 16.0))
            assert float(np.linalg.norm(s.q)) >= r_here - 1e-9


@pytest.mark.parametrize("v", [0.8, 1.1])
def test_radial_direction_zero_counts_both_ways(v):
    # the zeros of q.p with direction 0 are the rising (+1) and the falling
    # (-1) ones merged in time order; every other event is the same in all three
    grav = PowerLawPotential(-1.0, -1.0)
    params = FractionalParams(1.7, 0.5)
    ic = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, v]))
    runs = {way: integrate(params, grav, ic, (0.0, 16.0), radial_direction=way)[1] for way in (-1, 0, 1)}

    def custom(events):
        return [(ev.time, ev.state.q.tobytes()) for ev in events if ev.kind == "custom"]

    rising, falling = custom(runs[1]), custom(runs[-1])
    assert rising and falling
    assert custom(runs[0]) == sorted(rising + falling)
    assert all(ev.component is None for ev in runs[0] if ev.kind == "custom")
    others = [[(ev.kind, ev.time) for ev in evs if ev.kind != "custom"] for evs in runs.values()]
    assert others[0] == others[1] == others[2]


@pytest.mark.parametrize("comp", [-1, 2])
def test_level_component_outside_the_dimension_is_domain_error(comp):
    ic = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, 0.5]))
    with pytest.raises(DomainError, match=f"component {comp} outside dimension 2"):
        integrate(M1, OSC, ic, (0.0, 1.0), q_levels=[(comp, 0.5)])


def test_stop_after_truncates_at_event():
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    traj, events = integrate(
        M1, OSC, ic, (0.0, 50.0), stop_after=("turning_point", 2)
    )
    turns = [ev for ev in events if ev.kind == "turning_point"]
    assert len(turns) == 2
    assert traj.t_end == pytest.approx(turns[-1].time, abs=1e-9)
    assert traj.t_end < 50.0


@pytest.mark.parametrize("kind", ["turning_point", "origin_crossing"])
def test_stopped_run_ends_its_last_step_on_the_event(kind):
    # the step holding the stop event is cut there, so action stops there too
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([2.0]))  # E = 2
    traj, _ = integrate(M1, OSC, ic, (0.0, math.inf), stop_after=(kind, 2))
    assert np.array_equal(traj.times[:-1] + traj.widths, traj.times[1:])
    closed, _ = integrate(M1, OSC, ic, (0.0, traj.t_end), IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15))
    assert action(M1, OSC, traj) == pytest.approx(action(M1, OSC, closed), abs=1e-9)


@pytest.mark.parametrize(
    "stop_after", [("turning_pont", 2), ("turning_point", 0), ("turning_point", -3)]
)
def test_stop_after_is_validated(stop_after):
    with pytest.raises(DomainError, match=re.escape(repr(stop_after))):
        integrate(M1, OSC, HARMONIC_IC, (0.0, 20.0), stop_after=stop_after)


@pytest.mark.parametrize(
    "options",
    [
        {"q_levels": [(0.7, 0.5)]},
        {"q_levels": [(0, math.nan)]},
        {"q_levels": [(0, math.inf)]},
        {"radial_direction": 0.5},
        {"radial_direction": 2},
        {"stop_after": ("turning_point",)},
        {"stop_after": "turning_point"},
        {"stop_after": ("turning_point", 1.5)},
        {"q_levels": [(0, 0.5, 1)]},
        {"q_levels": [0.5]},
        {"q_levels": [(0, "a")]},
        {"stop_after": (["turning_point"], 1)},
        {"q_levels": [(0, 0.5)], "stop_after": ("turning_point", 1)},
        {"radial_direction": 0, "stop_after": ("origin_crossing", 1)},
    ],
    ids=["fractional-component", "nan-level", "inf-level", "half-direction", "direction-2",
         "stop-after-no-count", "stop-after-string", "stop-after-fractional-count",
         "level-triple", "level-bare-float", "level-string", "stop-after-unhashable-kind",
         "levels-under-turning-point-stop", "radial-under-origin-stop"],
)
def test_malformed_event_options_are_domain_errors(options):
    # none of these may run as some nearby valid option, or fail as a raw Python error
    with pytest.raises(DomainError):
        integrate(M1, OSC, HARMONIC_IC, (0.0, 1.0), **options)


@pytest.mark.parametrize(
    "options",
    [
        {"q_levels": [(False, 0.5)]},
        {"q_levels": [(0, True)]},
        {"stop_after": ("turning_point", True)},
        {"radial_direction": True},
    ],
    ids=["bool-component", "bool-level", "bool-count", "bool-direction"],
)
def test_bool_event_options_are_domain_errors(options):
    # bool is an int subclass: each of these once ran as component 0, level
    # 1.0, count 1 or direction +1 instead of being refused
    with pytest.raises(DomainError):
        integrate(M1, OSC, HARMONIC_IC, (0.0, 10.0), **options)


def test_integer_event_options_still_accept_numpy_integers():
    options = {"q_levels": [(np.int64(0), np.float64(0.5))], "stop_after": ("custom", np.int64(1))}
    _, events = integrate(M1, OSC, HARMONIC_IC, (0.0, 10.0), **options)
    assert [e.kind for e in events] == ["custom"]


def test_stopped_run_reports_only_its_stop_kind():
    # a stopped run detects the rows of its stop kind alone: it once also
    # located every turning point and origin crossing on the way
    _, events = integrate(M1, OSC, HARMONIC_IC, (0.0, math.inf), stop_after=("turning_point", 2))
    assert [ev.kind for ev in events] == ["turning_point", "turning_point"]
    kepler = FractionalParams(1.6, 1.0), PowerLawPotential(-1.0, -1.0)
    ic = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, 0.7]))
    _, events = integrate(*kepler, ic, (0.0, math.inf), radial_direction=0, stop_after=("custom", 2))
    assert [ev.kind for ev in events] == ["custom", "custom"]
    assert events[-1].time == 4.933603242989269


def test_non_finite_energy_names_the_awaited_event():
    ic = InitialConditions(q0=np.array([1e200]), p0=np.array([0.0]))
    with pytest.raises(IntegrationError) as err:
        integrate(M1, OSC, ic, (0.0, math.inf), stop_after=("turning_point", 2))
    assert str(err.value) == (
        f"non-finite energy inf at t = 0.0, y = {err.value.y}, awaiting stop_after ('turning_point', 2)"
    )


def test_max_steps_guard():
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    with pytest.raises(MaxStepsExceeded) as err:
        integrate(M1, OSC, ic, (0.0, 1e6), IntegratorConfig(max_steps=50))
    assert err.value.t is not None  # failure reports where it stopped


@pytest.mark.parametrize("t1, awaiting", [(1e7, ""), (math.inf, ", awaiting stop_after ('turning_point', 3)")])
def test_failed_step_names_the_state(t1, awaiting):
    # t and y, as in the non-finite-step message, with the awaited event last
    stop_after = ("turning_point", 3) if awaiting else None
    with pytest.raises(MaxStepsExceeded) as err:
        integrate(M1, OSC, HARMONIC_IC, (0.0, t1), IntegratorConfig(max_steps=5), stop_after=stop_after)
    assert str(err.value) == f"exceeded 5 steps at t = {err.value.t}, y = {err.value.y}{awaiting}"
    # ten ulp of t = 1e15 is 1.25, so the run's own first step of 1.6e-3 underflows at once
    with pytest.raises(StepSizeUnderflow) as err:
        integrate(M1, OSC, HARMONIC_IC, (1e15, 1e15 + t1), stop_after=stop_after)
    assert str(err.value) == f"step size underflow (1.585e-03) at t = 1000000000000000.0, y = [1. 0.]{awaiting}"


def test_tolerance_refinement_reduces_error():
    params = FractionalParams(1.7, 1.0)
    pot = PowerLawPotential(1.0, 1.7)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    ref_cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
    ref, _ = integrate(params, pot, ic, (0.0, 5.0), ref_cfg)
    ref_q = float(ref.eval(5.0).q[0])

    errs = []
    for rel in (1e-5, 1e-7, 1e-9):
        traj, _ = integrate(params, pot, ic, (0.0, 5.0), IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2))
        errs.append(abs(float(traj.eval(5.0).q[0]) - ref_q))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def test_energy_drift_stays_within_budget(drift_grid):
    worst = max(row.drift for row in drift_grid.rows)
    assert worst < 1e-8, f"worst ten-period drift {worst:.3e}"


def test_time_reversal_returns_to_start(drift_grid):
    worst = max(row.reversal_err for row in drift_grid.rows)
    assert worst < 1e-6, f"worst reversal error {worst:.3e}"


def test_energy_column_tracks_hamiltonian():
    spec = OscillatorSpec.from_exponents(1.3, 1.8, energy=2.0)
    p0 = (2.0 / spec.params.d_alpha) ** (1.0 / 1.3)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([p0]))
    traj, _ = integrate(spec.params, spec.pot, ic, (0.0, 2.0))
    for i in (0, len(traj.times) // 2, len(traj.times) - 1):
        s = traj.state(i)
        assert traj.energies[i] == pytest.approx(
            hamiltonian(spec.params, spec.pot, s), rel=1e-14
        )


def test_open_span_ends_on_the_awaited_event():
    traj, events = integrate(M1, OSC, HARMONIC_IC, (0.0, math.inf), stop_after=("turning_point", 2))
    assert traj.t_end == events[-1].time
    assert [ev.time for ev in events if ev.kind == "turning_point"] == pytest.approx(
        [HARMONIC_T / 2.0, HARMONIC_T], rel=1e-8
    )
    assert first_event_times(M1, OSC, HARMONIC_IC, "turning_point", 2) == [
        ev.time for ev in events if ev.kind == "turning_point"
    ]


def test_measured_period_frozen():
    # no step is bounded by the span, so an open span keeps these bits
    spec = OscillatorSpec.from_exponents(1.5, 1.5, energy=1.0)
    assert measure_period(spec.params, spec.pot, 1.0) == 3.6504714727088943


@pytest.mark.parametrize(
    "spec",
    [OscillatorSpec.from_exponents(1.5, 1.5, energy=1.0), OscillatorSpec(M1, OSC, 1.0)],
    ids=["alpha=beta=1.5", "harmonic"],
)
def test_measured_period_integrates_one_cycle(monkeypatch, spec):
    # the run from rest at the turning point ends on its first return there:
    # one cycle of integration, and the period is that event's time
    module = importlib.import_module("fracmech.integrate")
    original, runs = module.integrate, []

    def recording(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(module, "integrate", recording)
    measured = measure_period(spec.params, spec.pot, spec.energy)
    assert len(runs) == 1
    traj, events = runs[0]
    assert (traj.t0, traj.t_end) == (0.0, measured)
    assert [ev.kind for ev in events].count("turning_point") == 2
    assert events[-1].kind == "turning_point" and events[-1].time == measured


def test_reanchor_run_keeps_its_step_sequence():
    # the stepper's arithmetic fixes every step; any change to its rounding
    # moves these counts (the bench cross-check pins the same run)
    spec = OscillatorSpec.from_exponents(1.5, 1.5, energy=1.0)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    traj, events = integrate(spec.params, spec.pot, ic, (0.0, 10.0 * period(spec)))
    assert (traj.accepted_steps, traj.rejected_steps, len(events)) == (3014, 1262, 40)
    assert f"{traj.energy_drift():.1e}" == "4.0e-07"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_phase_field_is_hamilton_rhs_bitwise(d):
    rng = np.random.default_rng(d)
    for params, pot in [
        (FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5)),
        (FractionalParams(1.83, 0.37), PowerLawPotential(-2.5, -1.0)),
        (M1, OSC),
    ]:
        for _ in range(20):
            q, p = rng.normal(size=d), rng.normal(size=d)
            qdot, pdot = hamilton_rhs(params, pot, PhaseState(0.0, q, p))
            assert _field(params, pot, [*q, *p]) == [*qdot, *pdot]


def both_attempts(params, pot, y, f, h, atol=None, rel_tol=1e-10):
    """One attempt in dimension d = len(y) / 2 through the run's kernel and through the list
    attempt, the reference, with the error norm integrate took before the kernel: np.dot(_ERR, K)
    and the loop below.  Each as (y_new, f_new, the 7 stages flat, [err_norm]) in float.hex bits,
    the kernel's stages read from its kbuf, or the DomainError message it raised."""
    n, out = len(y), []
    atol = [1e-12 * (j + 1) for j in range(n)] if atol is None else atol  # a distinct tol per component
    kbuf = np.empty((7, n))
    kernel, _ = _kernel(n // 2, ())(params, pot, atol, rel_tol, kbuf, np.empty(n), ())

    def through_kernel():
        y_new, f_new, err_norm = kernel(y, f, h, ())[:3]
        return y_new, f_new, kbuf.ravel().tolist(), [err_norm]

    def through_list():
        y_new, f_new, stages = _list_attempt(params, pot, y, f, h)
        sq = 0.0
        try:
            for e, a, b, tol in zip(np.dot(_ERR, np.reshape(stages, (7, n))).tolist(), y, y_new, atol):
                r = h * e / (tol + rel_tol * max(abs(a), abs(b)))
                sq += r * r
        except ZeroDivisionError:  # a zero error scale
            sq = math.inf
        return y_new, f_new, stages, [math.sqrt(sq / n)]

    for attempt in (through_kernel, through_list):
        try:
            with np.errstate(all="ignore"):  # as in integrate: a non-finite estimate is a value here
                out.append([[x.hex() for x in part] for part in attempt()])
        except DomainError as err:
            out.append(str(err))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_field_is_the_list_field_bitwise(d):
    # at h = 0 the second stage is the field at y: both signs of zero, a subnormal, and norms
    # beyond the float range (hypot(-1.7e308, -1.7e308) = inf), in every component
    values = [0.0, -0.0, 5e-324, -1e-300, 0.3, -2.5, 1e200, -1.7e308][:8 if d < 3 else 4]
    for params, pot in [(FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5)),
                        (FractionalParams(1.83, 0.37), PowerLawPotential(-2.5, 3.0)),
                        (FractionalParams(1.6, 0.5), PowerLawPotential(-1.0, -1.0)), (M1, OSC)]:
        for y in itertools.product(values, repeat=2 * d):
            kernel, listed = both_attempts(params, pot, list(y), [0.0] * 2 * d, 0.0)
            assert kernel == listed
            if not any(y[:d]) and pot.degree <= 1.0:
                assert kernel == f"force is undefined at q = 0 for degree {pot.degree} <= 1"


@pytest.mark.parametrize("alpha", GRID_EXPONENTS)
@pytest.mark.parametrize("beta", GRID_EXPONENTS)
def test_scalar_attempt_is_the_list_attempt_bitwise(alpha, beta):
    rng = np.random.default_rng([int(100 * alpha), int(100 * beta)])
    params, pot = FractionalParams(alpha, rng.uniform(0.2, 3.0)), PowerLawPotential(rng.uniform(0.2, 3.0), beta)
    for i in range(200):
        # every 10th state starts at rest or at the origin, where a rate is +0.0
        y = [float(v) for v in rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3, size=2)]
        if i % 10 == 0:
            y[i % 20 // 10] = 0.0
        h = 10.0 ** rng.uniform(-6, 0)
        scalar, listed = both_attempts(params, pot, y, _field(params, pot, y), h)
        assert scalar == listed and not isinstance(scalar, str)


def test_scalar_attempt_raises_the_list_attempts_errors():
    # a stage at q = 0 for a force of degree <= 1 has no value
    for beta in (1.0, 0.5, -1.0):
        scalar, listed = both_attempts(FractionalParams(1.5, 1.0), PowerLawPotential(-1.0, beta), [0.0, 1.0],
                                       [0.0, 0.0], 0.1)
        assert scalar == listed == f"force is undefined at q = 0 for degree {beta} <= 1"
    # a stage force beyond the float range: abs_power names the power
    scalar, listed = both_attempts(FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 40.0), [1e9, 1.0],
                                   [1e9, 0.0], 1.0)
    assert scalar == listed and "overflows the float range" in scalar
    # at rest at the origin with a zero tolerance the error scale is 0, and the norm inf
    scalar, listed = both_attempts(M1, OSC, [0.0, 0.0], [0.0, 0.0], 0.1, atol=[0.0, 0.0])
    assert scalar == listed and scalar[3] == ["inf"]


@pytest.mark.parametrize("alpha", GRID_EXPONENTS)
@pytest.mark.parametrize("degree", [-1.0, -0.5, 1.5, 2.0])
@pytest.mark.parametrize("d", [2, 3])
def test_planar_attempt_is_the_list_attempt_bitwise(d, alpha, degree):
    rng = np.random.default_rng([d, int(100 * alpha), int(100 * degree) % 1000])
    strength = math.copysign(rng.uniform(0.2, 3.0), degree)  # attractive below degree 0, a well above
    params, pot = FractionalParams(alpha, rng.uniform(0.2, 3.0)), PowerLawPotential(strength, degree)
    for i in range(200):
        # every 10th state starts at rest or at the origin, where a rate vector is zero
        y = [float(v) for v in rng.normal(size=2 * d) * 10.0 ** rng.uniform(-3, 3, size=2 * d)]
        if i % 10 == 0:
            j = d * (i % 20 // 10)
            y[j:j + d] = [0.0] * d
        at_singular_origin = degree <= 1.0 and not any(y[:d])
        f = [0.0] * 2 * d if at_singular_origin else _field(params, pot, y)  # the first stage then raises for both
        h = 10.0 ** rng.uniform(-6, 0)
        planar, listed = both_attempts(params, pot, y, f, h)
        assert planar == listed and isinstance(planar, str) == at_singular_origin


@pytest.mark.parametrize("d", [2, 3])
def test_planar_attempt_raises_the_list_attempts_errors(d):
    # the d = 1 cases of test_scalar_attempt_raises_the_list_attempts_errors in the plane and in space
    zero = [0.0] * (d - 1)
    for beta in (1.0, 0.5, -1.0):
        planar, listed = both_attempts(FractionalParams(1.5, 1.0), PowerLawPotential(-1.0, beta),
                                       [0.0, *zero, 1.0, *zero], [0.0] * 2 * d, 0.1)
        assert planar == listed == f"force is undefined at q = 0 for degree {beta} <= 1"
    planar, listed = both_attempts(FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 40.0),
                                   [1e9, *zero, 1.0, *zero], [1e9, *zero, 0.0, *zero], 1.0)
    assert planar == listed and "overflows the float range" in planar
    planar, listed = both_attempts(M1, OSC, [0.0] * 2 * d, [0.0] * 2 * d, 0.1, atol=[0.0] * 2 * d)
    assert planar == listed and planar[3] == ["inf"]


FUSED_NORMS = [0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), 1e308, math.inf, math.nan]


def row_values(rows, y):
    """Each event row's value at the float state y from the rows' definition, written apart from the
    kernel's generator: y[index] - level, or q.p summed by model._dot where index is None."""
    d = len(y) // 2
    return [y[index] - level if index is not None else _dot(y[:d], y[d:]) for _, _, index, level, _ in rows]


def loop_decision(rows, g_old, y_new, err_norm):
    """What integrate's loop decided from an attempt's (y_new, err_norm) before the kernel decided it:
    (factor, finite, g_new, hit_rows), with g_new None and hit_rows [] on a rejected or non-finite
    attempt.  A row starting exactly at 0 departs an event: it does not cross one."""
    factor = _MAX_FACTOR if err_norm == 0.0 else min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm**_ORDER_EXP))
    finite = math.isfinite(err_norm) and all(map(math.isfinite, y_new))
    if not finite or err_norm > 1.0:
        return factor, finite, None, []
    g_new = row_values(rows, y_new)
    hit_rows = [r for r, (a, b, (*_, way)) in enumerate(zip(g_old, g_new, rows))
                if (a < 0.0 <= b and way >= 0) or (a > 0.0 >= b and way <= 0)]
    return factor, finite, g_new, hit_rows


def bound_kernel(d, rows, kernel=None):
    """(attempt, values) of the kernel for rows, bound at alpha = beta = 1.5 with a (7, 2d) kbuf."""
    layout, levels = tuple((row[2], row[4]) for row in rows), [row[3] for row in rows]
    params, pot = FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5)
    return (kernel or _kernel(d, layout))(params, pot, [1e-3] * 2 * d, 1e-10, np.empty((7, 2 * d)), np.empty(2 * d),
                                          levels)


@pytest.mark.parametrize("way", [-1, 0, 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_fused_decision_is_the_loops_formulas_bitwise(monkeypatch, d, way):
    # the kernel's step factor, finiteness verdict, row values and crossed rows against the formulas
    # integrate applied after each attempt, on turning-point, origin, level and q.p rows (direction
    # way).  States hold +-0.0 and the levels' own values, so some g_new are exactly 0, some g_old are
    # exactly 0, and every 4th state has an inf or NaN component.  Each error norm of FUSED_NORMS comes
    # from a kernel compiled with a sqrt that returns it; the real norm's kernel runs alongside.
    rows, _ = _event_rows(d, [(0, 0.25), (d - 1, -0.5)], way, None)
    layout = tuple((row[2], row[4]) for row in rows)
    kernels = [_kernel(d, layout)]
    for norm in FUSED_NORMS:
        monkeypatch.setattr(importlib.import_module("fracmech.integrate"), "math", SimpleNamespace(
            fabs=math.fabs, hypot=math.hypot, inf=math.inf, sqrt=lambda _, norm=norm: norm))
        kernels.append(_kernel.__wrapped__(d, layout))
    monkeypatch.undo()
    params, pot = FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5)
    attempts = [bound_kernel(d, rows, bind)[0] for bind in kernels]
    rng = np.random.default_rng([d, way + 1])
    finite_values = np.array([0.0, -0.0, 5e-324, 0.25, -0.5, 1.5])
    outcomes, most_crossed = set(), 0
    for i in range(300):
        y = rng.choice(finite_values, size=2 * d).tolist()
        if i % 4 == 0:
            y[i // 4 % (2 * d)] = [math.inf, -math.inf, math.nan][i // 4 % 3]
        g_old = rng.choice([-1.0, -0.0, 0.0, 5e-324, 2.0], size=len(rows)).tolist()
        h = [0.0, 1e-3, 0.1][i % 3]
        for attempt in attempts:
            with np.errstate(all="ignore"):
                y_new, _, err_norm, *fused = attempt(y, _field(params, pot, y), h, g_old)
            expected = loop_decision(rows, g_old, y_new, err_norm)
            assert [fused[0].hex(), *fused[1:3]] == [expected[0].hex(), *expected[1:3]]
            assert [x.hex() for x in fused[2] or []] == [x.hex() for x in expected[2] or []]
            assert fused[3] == (expected[3] or ())  # the crossed rows in row order, () when none
            outcomes.add((fused[1], fused[2] is not None, bool(fused[3]), 0.0 in (fused[2] or [])))
            most_crossed = max(most_crossed, len(fused[3]))
    # non-finite, rejected, accepted with and without a crossing, and a row landing exactly on 0
    assert {(False, False, False, False), (True, False, False, False), (True, True, False, False),
            (True, True, True, False), (True, True, True, True)} <= outcomes
    assert most_crossed >= 2


@pytest.mark.parametrize("way", [-1, 0, 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_bound_values_are_the_rows_definition_bitwise(d, way):
    # values(y), the evaluator that bisection reads, against y[index] - level and q.p from model._dot,
    # on every row kind: states of +-0.0, subnormals and the levels' own values, so rows land on +-0.0,
    # a level difference is subnormal and a q.p product underflows to -0.0
    rows, _ = _event_rows(d, [(0, 0.25), (d - 1, -0.5), (0, 5e-324)], way, None)
    _, values = bound_kernel(d, rows)
    entries = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.25, -0.5, 1.5]
    states = itertools.product(entries, repeat=2 * d) if d < 3 else np.random.default_rng(way + 1).choice(
        entries, size=(5000, 2 * d))
    for y in states:
        y = [float(x) for x in y]
        assert [x.hex() for x in values(y)] == [x.hex() for x in row_values(rows, y)]


def test_planar_oscillator_run_keeps_its_step_sequence():
    # a d = 2 run outside the Kepler check, on the turning-point and origin-crossing
    # rows of both components; recorded before the planar attempt, which keeps every bit
    ic = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, 0.5]))
    traj, events = integrate(FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5), ic, (0.0, 5.0))
    assert (traj.accepted_steps, traj.rejected_steps, len(events)) == (232, 8, 10)
    assert [float(x).hex() for x in (*traj.positions[-1], *traj.momenta[-1])] == [
        "-0x1.ea045189f3949p-3", "0x1.112b28e2236b6p-1", "-0x1.3f6b81ea8a370p-1", "-0x1.65ac64c7f7b5cp-1"
    ]


def test_spatial_run_keeps_its_step_sequence():
    # a d = 3 run on every row kind: turning points, origin crossings, a q-level and the
    # zeros of q.p; recorded when d = 3 still stepped on lists, so a kernel must keep every bit
    ic = InitialConditions(q0=np.array([1.0, 0.2, -0.3]), p0=np.array([0.1, 0.7, 0.4]))
    traj, events = integrate(FractionalParams(1.75, 0.5), PowerLawPotential(1.0, 1.8), ic, (0.0, 5.0),
                             q_levels=[(2, 0.1)], radial_direction=0)
    assert (traj.accepted_steps, traj.rejected_steps, len(events)) == (189, 4, 18)
    assert [float(x).hex() for x in (*traj.positions[-1], *traj.momenta[-1])] == [
        "0x1.cd38a5baf941bp-1", "0x1.0a57164f0580ap-2", "-0x1.c1f27e80a9c50p-3",
        "0x1.9ee9f8255add6p-2", "0x1.be64125549a58p-1", "0x1.839ac7b649360p-2",
    ]
    assert float(events[-1].time).hex() == "0x1.2a8c97f12c9a0p+2"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_each_attempt_has_the_order_of_its_tableau(d):
    # alpha = beta = 2, D = g = 1/2: qdot = p, pdot = -q, so the exact flow rotates each (q_j, p_j)
    # pair by -t.  One kernel attempt from a fixed state at h = 0.2 / 2^k, k = 0..4: the 5th-order
    # result has local error O(h^6), and the kernel's own error norm (its scale 1 to 1e-10 here) and
    # the dense quartic of its stage buffer at theta = 1/2 are O(h^5).  A wrong stage coefficient
    # breaks an order condition and lowers a slope by one or more, whatever bits a re-pinned step
    # sequence records.
    params, pot = FractionalParams(2.0, 0.5), PowerLawPotential(0.5, 2.0)
    kbuf = np.empty((7, 2 * d))
    attempt, _ = _kernel(d, ())(params, pot, [1.0] * 2 * d, 1e-10, kbuf, np.empty(2 * d), ())
    q, p = np.array([0.6, -0.3, 0.2][:d]), np.array([0.8, 0.5, -0.9][:d])
    y = q.tolist() + p.tolist()
    f = _field(params, pot, y)

    def exact(t):
        return np.concatenate([q * math.cos(t) + p * math.sin(t), p * math.cos(t) - q * math.sin(t)])

    errors = []
    for h in (0.2 / 2**k for k in range(5)):
        y_new, _, err_norm = attempt(y, f, h, ())[:3]
        quartic = DenseSegment(0.0, h, np.array(y), kbuf.T @ _DENSE).at(0.5)
        errors.append([np.linalg.norm(np.array(y_new) - exact(h)), err_norm, np.linalg.norm(quartic - exact(0.5 * h))])
    slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((5.7 <= slopes[:, 0]) & (slopes[:, 0] <= 6.3)), slopes
    assert np.all((4.8 <= slopes[:, 1:]) & (slopes[:, 1:] <= 5.2)), slopes


def test_tableau_is_scipys_dormand_prince_pair():
    # the kernel and its reference both read _TABLEAU, so the parity tests cannot see a wrong
    # coefficient there; scipy's RK45 states the same pair independently (A is 6 x 5 with a zero
    # first row, E the 4th- minus the 5th-order weights, P the dense-output matrix), to the last bit
    from scipy.integrate import RK45

    a, b = np.zeros((6, 5)), np.zeros(6)
    for i, row in enumerate(_TABLEAU[:-1], start=1):
        for j, c in row:
            a[i, j - 1] = c
    for j, c in _TABLEAU[-1]:
        b[j - 1] = c
    assert a.tolist() == RK45.A.tolist() and b.tolist() == RK45.B.tolist()
    assert _ERR.tolist() == (-RK45.E).tolist() and _DENSE.tolist() == RK45.P.tolist()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_batched_dense_contraction_is_per_step_bitwise(n):
    # integrate contracts every step's (7, 2d) stage stack with _DENSE at once
    rng = np.random.default_rng(n)
    for steps in (1, 2, 3, 17, 400):
        stacks = np.array([rng.normal(size=(7, n)) * 10.0 ** rng.uniform(-8, 8, size=(7, n)) for _ in range(steps)])
        batched = stacks.transpose(0, 2, 1) @ _DENSE
        per_step = np.array([K.T @ _DENSE for K in stacks])
        assert batched.tobytes() == per_step.tobytes()


# one bounded fractional orbit per dimension: (params, potential, q0, p0, t1)
ORACLE_ORBITS = [
    (FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5), [0.3], [1.0], 6.0),
    (FractionalParams(1.6, 0.5), PowerLawPotential(-1.0, -1.0), [1.0, 0.0], [0.0, 0.8], 8.0),
    (
        FractionalParams(1.75, 0.5),
        PowerLawPotential(1.0, 1.8),
        [1.0, 0.2, -0.3],
        [0.1, 0.7, 0.4],
        5.0,
    ),
]


@pytest.mark.parametrize("params, pot, q0, p0, t1", ORACLE_ORBITS, ids=["d1", "d2", "d3"])
def test_final_state_matches_scipy_dop853(params, pot, q0, p0, t1):
    from scipy.integrate import solve_ivp

    a, k, s, b = params.alpha, params.d_alpha, pot.strength, pot.degree
    d = len(q0)

    def field(t, y):
        q, p = y[:d], y[d:]
        np_, nq = np.linalg.norm(p), np.linalg.norm(q)
        qdot = a * k * np_ ** (a - 2.0) * p if np_ > 0.0 else 0.0 * p
        return np.concatenate([qdot, -s * b * nq ** (b - 2.0) * q])

    y0 = np.array(q0 + p0)
    ref = solve_ivp(field, (0.0, t1), y0, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
    # at the default tolerance the d = 1 turning points alone cost ~1e-7
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    traj, _ = integrate(params, pot, InitialConditions(q0=q0, p0=p0), (0.0, t1), cfg)
    ours = np.concatenate([traj.positions[-1], traj.momenta[-1]])
    assert traj.t_end == t1
    assert np.linalg.norm(ours - ref) <= 1e-7 * np.linalg.norm(ref)
