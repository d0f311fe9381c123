"""Trajectory container, dense-output interpolation, and the action integral."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from fracmech import (
    DenseSegment,
    DomainError,
    FractionalParams,
    InitialConditions,
    OscillatorSpec,
    PowerLawPotential,
    ToleranceWarning,
    Trajectory,
    action,
    hamilton_rhs,
    hamiltonian,
    integrate,
    lagrangian,
    period,
    velocity_from_momentum,
)
from fracmech.trajectory import _quartic, _theta

M1 = FractionalParams.from_mass(1.0)
OSC = PowerLawPotential(1.0, 2.0)


@pytest.fixture(scope="module")
def harmonic():
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    traj, _ = integrate(M1, OSC, ic, (0.0, 3.0))
    return traj


def test_times_must_increase():
    # with valid quartics and widths, so the refusal is the times' own
    with pytest.raises(DomainError, match="strictly increasing"):
        Trajectory(
            times=np.array([0.0, 1.0, 1.0]),
            positions=np.zeros((3, 1)),
            momenta=np.zeros((3, 1)),
            energies=np.zeros(3),
            coefs=np.zeros((2, 2, 4)),
            widths=np.ones(2),
        )


def test_trajectory_without_samples_is_refused():
    with pytest.raises(DomainError, match="at least one sample"):
        Trajectory(times=np.zeros(0), positions=np.zeros((0, 1)), momenta=np.zeros((0, 1)), energies=np.zeros(0))


@pytest.mark.parametrize("positions, momenta", [(np.zeros((2, 1)), np.zeros((2, 2))),
                                                (np.zeros((3, 1)), np.zeros((3, 1)))])
def test_trajectory_arrays_of_inconsistent_shapes_are_refused(positions, momenta):
    # q and p of different dimension, or one sample count for the times and another for the states
    with pytest.raises(DomainError, match="inconsistent shapes"):
        Trajectory(times=np.array([0.0, 1.0]), positions=positions, momenta=momenta, energies=np.zeros(2),
                   coefs=np.zeros((1, 2, 4)), widths=np.ones(1))


def test_segment_refuses_a_time_outside_its_step():
    seg = DenseSegment(1.0, 0.5, np.zeros(2), np.zeros((2, 4)))
    assert seg.eval(1.5).tolist() == [0.0, 0.0]
    with pytest.raises(DomainError, match=r"time 1\.6 outside segment \[1\.0, 1\.5\]"):
        seg.eval(1.6)


@pytest.mark.parametrize("theta, message", [("x", "theta must be a finite number, got 'x'"),
                                            (math.nan, "theta must be finite, got nan"),
                                            (5.0, "theta must be in [0, 1], got 5.0"),
                                            (-0.5, "theta must be in [0, 1], got -0.5")])
def test_segment_at_refuses_a_theta_outside_its_step(theta, message):
    # "x" raised a raw TypeError, NaN returned [nan nan] and 5.0 extrapolated the quartic
    seg = DenseSegment(1.0, 0.5, np.zeros(2), np.ones((2, 4)))
    assert seg.at(0).tolist() == [0.0, 0.0] and seg.at(1).tolist() == [2.0, 2.0]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        seg.at(theta)


def test_samples_without_dense_output_are_refused():
    # every trajectory passes its quartics; see the lone-sample test below
    with pytest.raises(DomainError, match="one quartic and one width per step"):
        Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            positions=np.zeros((3, 1)),
            momenta=np.zeros((3, 1)),
            energies=np.zeros(3),
        )


def test_lone_sample_without_quartics_is_refused():
    # a single sample spans no step and passes empty quartics, as in test_action_zero_length
    with pytest.raises(DomainError, match="one quartic and one width per step"):
        Trajectory(
            times=np.array([0.0]),
            positions=np.zeros((1, 1)),
            momenta=np.zeros((1, 1)),
            energies=np.zeros(1),
        )


def _lone_sample() -> Trajectory:
    return Trajectory(
        np.array([0.5]), np.array([[1.0, -2.0]]), np.array([[0.25, 0.0]]), np.array([1.0]),
        np.empty((0, 4, 4)), np.empty(0),
    )


def test_lone_sample_evaluates_to_itself_at_its_own_time():
    state = _lone_sample().eval(0.5)
    assert state.t == 0.5
    assert state.q.tolist() == [1.0, -2.0]
    assert state.p.tolist() == [0.25, 0.0]


def test_lone_sample_has_no_derivative():
    with pytest.raises(DomainError, match="a lone sample holds no step, not even at its own time 0.5"):
        _lone_sample().derivative(0.5)


@pytest.mark.parametrize(
    "t, message",
    [(0.25, "time 0.25 outside trajectory span [0.5, 0.5]"), (0.75, "time 0.75 outside trajectory span [0.5, 0.5]"),
     (math.nan, "t must be finite, got nan")],
    ids=["0.25", "0.75", "nan"],
)
def test_lone_sample_refuses_other_times(t, message):
    traj = _lone_sample()
    for read in (traj.eval, traj.derivative):
        with pytest.raises(DomainError, match=re.escape(message)):
            read(t)


def _three_samples() -> dict:
    """The fields of a valid 3-sample, 1D trajectory."""
    return dict(
        times=np.array([0.0, 1.0, 2.0]),
        positions=np.zeros((3, 1)),
        momenta=np.zeros((3, 1)),
        energies=np.zeros(3),
        coefs=np.zeros((2, 2, 4)),
        widths=np.ones(2),
    )


@pytest.mark.parametrize("name", ["times", "positions", "momenta", "energies", "coefs", "widths"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_arrays_are_refused(name, bad):
    # each array is checked, in field order, before the times are differenced:
    # inf - inf would warn
    import warnings

    fields = _three_samples()
    fields[name].flat[-1] = bad
    if name == "times":
        fields[name][1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            Trajectory(**fields)
    assert Trajectory(**_three_samples()).t_end == 2.0


def test_quartics_of_the_wrong_shape_are_refused():
    # each step's quartic is (2d, 4); a wrong shape fails at construction, not in eval
    with pytest.raises(DomainError, match="one quartic and one width per step"):
        Trajectory(
            times=np.array([0.0, 1.0]),
            positions=np.zeros((2, 1)),
            momenta=np.zeros((2, 1)),
            energies=np.zeros(2),
            coefs=np.zeros((1, 1, 1)),
            widths=np.array([1.0]),
        )


def test_eval_just_outside_the_span_names_the_span(harmonic):
    # one rule: t may stray from its step by 1e-9 of the step's width
    first, last = float(harmonic.widths[0]), float(harmonic.widths[-1])
    assert harmonic.eval(-0.5e-9 * first).q.tobytes() == harmonic.positions[0].tobytes()
    span = f"outside trajectory span [0.0, {harmonic.t_end}]"
    for t in (-2e-9 * first, harmonic.t_end + 2e-9 * last):
        with pytest.raises(DomainError, match=re.escape(f"time {t} {span}")):
            harmonic.eval(t)


def test_sample_access(harmonic):
    assert harmonic.t0 == 0.0
    assert harmonic.t_end == pytest.approx(3.0)
    assert harmonic.dimension == 1
    s0 = harmonic.state(0)
    assert float(s0.q[0]) == 1.0
    assert float(s0.p[0]) == 0.0
    n = len(harmonic.times)
    assert len(harmonic.samples) == n
    # stored energies are the Hamiltonian evaluated at the samples
    for i in (0, n // 2, n - 1):
        s = harmonic.state(i)
        assert harmonic.energies[i] == pytest.approx(hamiltonian(M1, OSC, s), rel=1e-14)


@pytest.mark.parametrize("i, message", [(10**6, "i must index one of the "), (1.5, "i must be an integer, got 1.5"),
                                        ("a", "i must be a finite number, got 'a'"),
                                        (None, "i must be a finite number, got None")])
def test_state_and_segment_refuse_an_i_that_indexes_nothing(harmonic, i, message):
    # each raised a raw IndexError or TypeError
    for method in (harmonic.state, harmonic.segment):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            method(i)


def test_negative_indices_count_from_the_end(harmonic):
    # segment(-1) took the last sample's time as its start, one step past the last step's
    n = len(harmonic.times)
    assert harmonic.state(-1).t == harmonic.state(n - 1).t == harmonic.t_end
    last = harmonic.segment(-1)
    assert last.t_start == harmonic.segment(n - 2).t_start == float(harmonic.times[-2])
    assert last.at(1.0).tolist() == harmonic.segment(n - 2).at(1.0).tolist()


def test_eval_reproduces_samples(harmonic):
    n = len(harmonic.times)
    for i in (0, 1, n // 3, n - 1):
        t = float(harmonic.times[i])
        s = harmonic.eval(t)
        assert s.q == pytest.approx(harmonic.positions[i], abs=1e-12)
        assert s.p == pytest.approx(harmonic.momenta[i], abs=1e-12)


def test_eval_between_samples_matches_solution(harmonic):
    om = math.sqrt(2.0)
    for t in np.linspace(0.05, 2.95, 37):
        s = harmonic.eval(float(t))
        assert float(s.q[0]) == pytest.approx(math.cos(om * t), abs=1e-9)
        assert float(s.p[0]) == pytest.approx(-om * math.sin(om * t), abs=1e-9)


def test_eval_outside_span_rejected(harmonic):
    with pytest.raises(DomainError):
        harmonic.eval(-0.5)
    with pytest.raises(DomainError):
        harmonic.eval(3.5)


def test_derivative_matches_rhs(harmonic):
    # d/dt of the interpolant agrees with the equations of motion
    for t in (0.4, 1.3, 2.7):
        dq, dp = harmonic.derivative(t)
        qdot, pdot = hamilton_rhs(M1, OSC, harmonic.eval(t))
        assert dq == pytest.approx(qdot, abs=1e-8)
        assert dp == pytest.approx(pdot, abs=1e-8)


@pytest.mark.parametrize(
    "params, pot, q0, p0",
    [
        (FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5), [0.3], [1.0]),
        (FractionalParams(1.6, 0.5), PowerLawPotential(-1.0, -1.0), [1.0, 0.0], [0.0, 0.8]),
        (FractionalParams(1.75, 0.5), PowerLawPotential(1.0, 1.8), [1.0, 0.2, -0.3], [0.1, 0.7, 0.4]),
    ],
    ids=["d1", "d2", "d3"],
)
def test_eval_keeps_the_segment_arithmetic_bitwise(params, pot, q0, p0):
    # eval reads the step's row in place of building a DenseSegment; its
    # bits must equal the broadcast quartic that every read used before
    traj, _ = integrate(params, pot, InitialConditions(q0=q0, p0=p0), (0.0, 2.0))
    for t in np.linspace(0.0, traj.t_end, 101).tolist():
        i = min(max(int(traj.times.searchsorted(t, "right")) - 1, 0), len(traj.widths) - 1)
        seg = traj.segment(i)
        theta = np.array([_theta(t, seg.t_start, seg.width)])
        y = seg.y_start + seg.width * _quartic(seg.coef, theta)[0]
        dy = _quartic(seg.coef, theta, derivative=True)[0]
        s = traj.eval(t)
        assert s.t == t and np.concatenate([s.q, s.p]).tobytes() == y.tobytes()
        assert seg.eval(t).tobytes() == y.tobytes()
        assert np.concatenate(traj.derivative(t)).tobytes() == dy.tobytes()
        for v in (s.q, s.p):
            with pytest.raises(ValueError):
                v[0] = 1.0


def test_energy_drift_definition(harmonic):
    rel = np.abs(harmonic.energies - harmonic.energies[0]) / abs(harmonic.energies[0])
    assert harmonic.energy_drift() == pytest.approx(float(np.max(rel)))


# ------------------------------------------------------------------ action


def test_action_free_particle():
    # L = qdot^2/2 = 1/2 along a unit-velocity classical path
    free = PowerLawPotential(0.0, 2.0)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    traj, _ = integrate(M1, free, ic, (0.0, 1.0))
    assert action(M1, free, traj) == pytest.approx(0.5, rel=1e-10)


def test_action_zero_length():
    traj = Trajectory(
        times=np.array([0.0]),
        positions=np.array([[1.0]]),
        momenta=np.array([[0.0]]),
        energies=np.array([1.0]),
        coefs=np.empty((0, 2, 4)),
        widths=np.empty(0),
    )
    assert action(M1, OSC, traj) == 0.0


def test_action_vanishes_over_harmonic_period():
    # kinetic and potential averages coincide over one closed orbit
    full = math.pi * math.sqrt(2.0)
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    traj, _ = integrate(M1, OSC, ic, (0.0, full))
    assert abs(action(M1, OSC, traj)) < 1e-8


def test_action_warns_when_tolerance_unreachable():
    params = FractionalParams(1.7, 1.0)
    pot = PowerLawPotential(1.0, 1.7)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    traj, _ = integrate(params, pot, ic, (0.0, 2.0))
    with pytest.warns(ToleranceWarning):
        action(params, pot, traj, quad_tol=1e-22)


@pytest.mark.parametrize("quad_tol", [math.nan, math.inf, 0.0, -1.0])
def test_action_refuses_a_quad_tol_that_is_not_finite_and_positive(quad_tol):
    # nan once switched the error check off and a negative value always warned
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    traj, _ = integrate(M1, OSC, ic, (0.0, 1.0))
    with pytest.raises(DomainError, match="quad_tol"):
        action(M1, OSC, traj, quad_tol=quad_tol)


def test_action_additive_over_subspans():
    free = PowerLawPotential(0.0, 2.0)
    params = FractionalParams(1.5, 1.0)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([2.0]))
    whole, _ = integrate(params, free, ic, (0.0, 2.0))
    first, _ = integrate(params, free, ic, (0.0, 0.75))
    mid_state = whole.eval(0.75)
    second, _ = integrate(
        params,
        free,
        InitialConditions(q0=mid_state.q.copy(), p0=mid_state.p.copy()),
        (0.75, 2.0),
    )
    total = action(params, free, whole)
    split = action(params, free, first) + action(params, free, second)
    assert total == pytest.approx(split, rel=1e-10)


def _per_node_action(params, pot, traj):
    """The fine (halved) 8-point Gauss-Legendre sum of ``action``, with the
    Lagrangian taken in its velocity form, one node at a time."""
    x, w = np.polynomial.legendre.leggauss(8)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    d = traj.dimension
    total = 0.0
    for i in range(len(traj.widths)):
        seg = traj.segment(i)
        for theta, weight in [(0.5 * xk, wk) for xk, wk in zip(x, w)] + [
            (0.5 + 0.5 * xk, wk) for xk, wk in zip(x, w)
        ]:
            y = seg.at(theta)
            qdot = velocity_from_momentum(params, y[d:])
            total += 0.5 * seg.width * weight * lagrangian(params, pot, y[:d], qdot)
    return total


def _one_period_at_alpha_beta_1_5():
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    p_launch = (spec.energy / spec.params.d_alpha) ** (1.0 / 1.5)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([p_launch]))
    return spec.params, spec.pot, ic, (0.0, period(spec))


def _alpha_1_7_to_1_3():
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    return FractionalParams(1.7, 1.0), PowerLawPotential(1.0, 1.7), ic, (0.0, 1.3)


def _planar_orbit():
    ic = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, 0.7]))
    return FractionalParams(1.6, 1.0), PowerLawPotential(-1.0, -1.0), ic, (0.0, 6.0)


@pytest.mark.parametrize("case", [_one_period_at_alpha_beta_1_5, _alpha_1_7_to_1_3, _planar_orbit])
def test_action_matches_the_per_node_lagrangian(case):
    # on-shell (alpha - 1) T - V against L(q, qdot(p)) at the same nodes
    params, pot, ic, span = case()
    traj, _ = integrate(params, pot, ic, span)
    reference = _per_node_action(params, pot, traj)
    assert action(params, pot, traj) == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_stationarity_against_path_perturbation():
    """First variation of the action vanishes on an integrated solution.

    The path is perturbed by eps * eta(t) with eta a half-sine vanishing
    at both ends; the measured first-order coefficient must sit at the
    quadratic-response floor.
    """
    params = FractionalParams(1.7, 1.0)
    pot = PowerLawPotential(1.0, 1.7)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    ta, tb = 0.0, 1.3
    traj, _ = integrate(params, pot, ic, (ta, tb))

    def perturbed_action(eps: float) -> float:
        # fixed-grid composite Simpson over the dense output; the same
        # grid for every eps makes the difference quotient clean
        n = 4000
        ts = np.linspace(ta, tb, n + 1)
        h = (tb - ta) / n
        vals = np.empty(n + 1)
        w = math.pi / (tb - ta)
        for i, t in enumerate(ts):
            s = traj.eval(float(t))
            eta = math.sin(w * (t - ta))
            eta_dot = w * math.cos(w * (t - ta))
            q = float(s.q[0]) + eps * eta
            qdot = float(velocity_from_momentum(params, s.p)[0]) + eps * eta_dot
            vals[i] = lagrangian(params, pot, q, qdot)
        return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum()))

    eps = 1e-4
    first_order = (perturbed_action(eps) - perturbed_action(-eps)) / (2.0 * eps)
    assert abs(first_order) < 1e-6
