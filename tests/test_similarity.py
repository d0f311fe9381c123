"""Scaling exponents, trajectory mapping, and orbit-period power laws."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmech import (
    DomainError,
    FracmechError,
    FractionalParams,
    InitialConditions,
    PowerLawPotential,
    UnsuitablePhysicsError,
    exponents,
    fit_time_exponent,
    fractional_kepler_check,
    hamilton_rhs,
    hamiltonian,
    integrate,
    kepler_gamma,
    momentum_from_velocity,
    scale_trajectory,
    verify_scaling,
)
from fracmech.model import PhaseState
from conftest import TIGHT_CFG

ALPHAS = st.floats(min_value=1.05, max_value=2.0)
DEGREES = st.floats(min_value=-3.0, max_value=3.0).filter(lambda b: abs(b) > 0.2)


# --------------------------------------------------------------- exponents


def test_exponent_table():
    e22 = exponents(2.0, 2.0)
    assert e22.time_vs_length == pytest.approx(0.0, abs=1e-15)
    assert e22.velocity_vs_length == pytest.approx(1.0)
    assert e22.energy_vs_length == pytest.approx(2.0)
    assert e22.time_vs_energy == pytest.approx(0.0, abs=1e-15)

    # inverse-distance potential under classical kinetics: t^2 ~ l^3
    assert exponents(2.0, -1.0).time_vs_length == pytest.approx(1.5)
    # uniform field: fall time goes as the square root of the height
    assert exponents(2.0, 1.0).time_vs_length == pytest.approx(0.5)


def test_exponents_reject_bad_args():
    with pytest.raises(DomainError):
        exponents(1.0, 2.0)
    with pytest.raises(DomainError):
        exponents(1.5, 0.0)


@given(ALPHAS, DEGREES)
def test_exponent_consistency(alpha, beta_degree):
    e = exponents(alpha, beta_degree)
    assert e.time_vs_length == pytest.approx(
        e.time_vs_energy * e.energy_vs_length, rel=1e-12, abs=1e-12
    )


@given(ALPHAS, DEGREES, st.floats(min_value=0.2, max_value=5.0))
def test_time_ratio_same_through_length_or_energy(alpha, beta_degree, stretch):
    # expressing the time ratio through the length ratio or through the
    # induced energy ratio must give the same number
    e = exponents(alpha, beta_degree)
    energy_ratio = stretch**e.energy_vs_length
    via_length = stretch**e.time_vs_length
    via_energy = energy_ratio**e.time_vs_energy
    assert via_length == pytest.approx(via_energy, rel=1e-12)


def test_kepler_gamma_values():
    assert kepler_gamma(2.0) == pytest.approx(1.0, rel=1e-15)
    assert kepler_gamma(1.5) == pytest.approx(1.5, rel=1e-15)


@given(ALPHAS)
def test_kepler_gamma_defining_property(alpha):
    gamma = kepler_gamma(alpha)
    assert exponents(alpha, -gamma).time_vs_length == pytest.approx(1.5, rel=1e-14)


# --------------------------------------------------------- scale_trajectory


@pytest.fixture(scope="module")
def base_osc_traj():
    params = FractionalParams(1.5, 1.0)
    pot = PowerLawPotential(1.0, 1.5)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    traj, _ = integrate(params, pot, ic, (0.0, 4.0))
    return params, pot, traj


def test_scale_identity(base_osc_traj):
    _, _, traj = base_osc_traj
    mapped = scale_trajectory(traj, 1.0, 1.5, 1.5)
    assert mapped.times == pytest.approx(traj.times, rel=1e-15)
    assert mapped.positions == pytest.approx(traj.positions, rel=1e-15)
    assert mapped.momenta == pytest.approx(traj.momenta, rel=1e-15)


def test_scale_harmonic_keeps_period():
    params = FractionalParams.from_mass(1.0)
    pot = PowerLawPotential(1.0, 2.0)
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    traj, _ = integrate(params, pot, ic, (0.0, 3.0))
    mapped = scale_trajectory(traj, 3.0, 2.0, 2.0)
    # zero time exponent: same clock, triple amplitude
    assert mapped.t_end == pytest.approx(traj.t_end, rel=1e-14)
    assert np.max(np.abs(mapped.positions)) == pytest.approx(
        3.0 * np.max(np.abs(traj.positions)), rel=1e-12
    )


def test_scaled_energy_samples_follow_power_law(base_osc_traj):
    params, pot, traj = base_osc_traj
    rho = 2.0
    mapped = scale_trajectory(traj, rho, params.alpha, pot.degree)
    for i in (0, len(traj.times) // 2, len(traj.times) - 1):
        assert mapped.energies[i] == pytest.approx(
            rho**pot.degree * traj.energies[i], rel=1e-10
        )


def _dense_residual(params, pot, traj, ts):
    q_scale = float(np.max(np.abs(traj.positions)))
    p_scale = float(np.max(np.abs(traj.momenta)))
    worst = 0.0
    for t in ts:
        dq, dp = traj.derivative(float(t))
        qdot, pdot = hamilton_rhs(params, pot, traj.eval(float(t)))
        worst = max(worst, float(np.max(np.abs(dq - qdot))) / q_scale)
        worst = max(worst, float(np.max(np.abs(dp - pdot))) / p_scale)
    return worst


@pytest.mark.parametrize("rho", [0.5, 2.0, 5.0])
def test_scaled_trajectory_satisfies_dynamics(base_osc_traj, rho):
    # the mapped dense output must still solve the equations of motion
    params, pot, traj = base_osc_traj
    mapped = scale_trajectory(traj, rho, params.alpha, pot.degree)

    # at sample times the interpolant slope equals the vector field by
    # construction, so any error in the map's stretch factors shows up
    # here undamped; measured ~9e-16, bound is 10x the default rel tol
    assert _dense_residual(params, pot, mapped, mapped.times[:-1]) < 1e-9

    # between samples the quartic's slope is one order less accurate
    # than its values (~5e-7 of amplitude at default tolerance, scaled
    # and unscaled alike), so only compare against the unmapped path
    fracs = np.linspace(0.0, 1.0, 60)[1:-1]
    base_worst = _dense_residual(
        params, pot, traj, traj.t0 + fracs * (traj.t_end - traj.t0)
    )
    mapped_worst = _dense_residual(
        params, pot, mapped, mapped.t0 + fracs * (mapped.t_end - mapped.t0)
    )
    assert mapped_worst < 10.0 * base_worst


# ------------------------------------------------------------ verify_scaling


def test_uniform_field_fall_times():
    # dropping from h and 4h in a linear potential: times double
    params = FractionalParams.from_mass(1.0)
    pot = PowerLawPotential(1.0, 1.0)
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    rows = verify_scaling(params, pot, ic, [4.0])
    assert rows[0].predicted_ratio == pytest.approx(2.0, rel=1e-14)
    assert rows[0].measured_ratio == pytest.approx(2.0, rel=1e-5)


def test_oscillator_scaling_ratio():
    params = FractionalParams(1.5, 1.0)
    pot = PowerLawPotential(1.0, 2.0)
    ic = InitialConditions(q0=np.array([0.9]), p0=np.array([0.0]))
    rows = verify_scaling(params, pot, ic, [2.0])
    assert rows[0].predicted_ratio == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
    assert abs(rows[0].rel_err) < 1e-5


def test_radial_plunge_scaling():
    # free fall toward an attractive center from r and 2r
    params = FractionalParams.from_mass(1.0)
    pot = PowerLawPotential(-1.0, -1.0)
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    rows = verify_scaling(params, pot, ic, [2.0])
    assert rows[0].predicted_ratio == pytest.approx(2.0**1.5, rel=1e-14)
    assert abs(rows[0].rel_err) < 1e-5


@pytest.mark.parametrize(
    "alpha,beta_degree",
    [(2.0, 2.0), (1.5, 2.0), (2.0, 1.0), (1.75, -1.0)],
)
def test_fitted_exponent_recovers_prediction(alpha, beta_degree):
    params = FractionalParams(alpha, 0.5 if alpha == 2.0 else 1.0)
    if beta_degree > 0:
        pot = PowerLawPotential(1.0, beta_degree)
    else:
        pot = PowerLawPotential(-1.0, beta_degree)
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    rows = verify_scaling(params, pot, ic, [1.0, 2.0, 4.0, 8.0])
    fit = fit_time_exponent(rows)
    assert fit is not None
    slope, _ = fit
    expected = exponents(alpha, beta_degree).time_vs_length
    assert slope == pytest.approx(expected, abs=1e-3)


@pytest.mark.parametrize("alpha", [1.3, 2.0])
@pytest.mark.parametrize("beta_degree", [0.3, 0.5])
@pytest.mark.parametrize("p0", [0.0, 0.3])
def test_fall_in_a_cusped_well_scales(alpha, beta_degree, p0):
    # the force |q|^(beta - 1) is singular at the origin for beta < 1, so the
    # landmark is the crossing of q0/2, which the fall reaches before the cusp
    params, pot = FractionalParams(alpha, 1.0), PowerLawPotential(1.0, beta_degree)
    rows = verify_scaling(params, pot, InitialConditions(q0=[1.0], p0=[p0]), [1.0, 2.0, 4.0, 8.0])
    slope, _ = fit_time_exponent(rows)
    assert slope == pytest.approx(exponents(alpha, beta_degree).time_vs_length, abs=1e-7)


def test_half_position_landmark_needs_a_nonzero_first_coordinate():
    # from (0, 1) the level q[0] = 0 is where the motion already is
    ic = InitialConditions(q0=[0.0, 1.0], p0=[0.0, 0.0])
    with pytest.raises(DomainError, match=r"q0\[0\] != 0"):
        verify_scaling(FractionalParams(1.5, 1.0), PowerLawPotential(-1.0, -1.0), ic, [2.0])


def test_attractive_plunge_ratio_frozen():
    rows = verify_scaling(
        FractionalParams(1.75, 1.0), PowerLawPotential(-1.0, -1.0),
        InitialConditions(q0=[1.0], p0=[0.0]), [2.0],
    )
    assert rows[0].measured_ratio == 2.6918003852645715


@pytest.mark.parametrize(
    "pot, p0", [(PowerLawPotential(-1.0, -1.0), 5.0), (PowerLawPotential(-1.0, 2.0), 1.0)],
    ids=["coulomb-escape", "inverted-well"],
)
def test_landmark_never_reached_names_the_awaited_event(pot, p0):
    # the motion runs away from q0/2; the open-span run fails within its
    # step budget, naming the event it waited for
    import time
    import warnings

    start = time.process_time()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FracmechError, match=re.escape("awaiting stop_after ('custom', 1)")):
            verify_scaling(FractionalParams(1.5, 1.0), pot, InitialConditions(q0=[1.0], p0=[p0]), [2.0])
    assert time.process_time() - start < 1.0


def test_fit_needs_two_distinct_scales():
    params = FractionalParams.from_mass(1.0)
    pot = PowerLawPotential(1.0, 2.0)
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    rows = verify_scaling(params, pot, ic, [1.0])
    assert fit_time_exponent(rows) is None


def test_similarity_initial_conditions_scale_energy():
    # mapped starting states carry rho^beta times the energy, pointwise
    params = FractionalParams(1.6, 1.0)
    pot = PowerLawPotential(1.0, 1.8)
    e = exponents(params.alpha, pot.degree)
    q0, qdot0 = 0.8, 0.7
    base_p = momentum_from_velocity(params, np.array([qdot0]))
    base_h = hamiltonian(params, pot, PhaseState(0.0, np.array([q0]), base_p))
    for rho in (0.5, 2.0, 5.0):
        q = rho * q0
        qdot = rho**e.velocity_vs_length * qdot0
        p = momentum_from_velocity(params, np.array([qdot]))
        h = hamiltonian(params, pot, PhaseState(0.0, np.array([q]), p))
        assert h == pytest.approx(rho**pot.degree * base_h, rel=1e-10)


# ------------------------------------------------------------ orbital check


BOUND_IC = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, 0.8]))


def test_kepler_classical_ratio():
    report = fractional_kepler_check(2.0, BOUND_IC, [4.0], d_alpha=0.5)
    assert report.rows[0].predicted_ratio == pytest.approx(8.0, rel=1e-14)
    assert report.rows[0].measured_ratio == pytest.approx(8.0, rel=1e-4)


def test_kepler_fractional_ratio():
    report = fractional_kepler_check(1.5, BOUND_IC, [2.0])
    assert report.rows[0].predicted_ratio == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-14)
    assert abs(report.rows[0].rel_err) < 1e-4


def test_kepler_slope_fit():
    report = fractional_kepler_check(1.75, BOUND_IC, [1.0, 2.0, 4.0, 8.0])
    assert report.base_radial_period > 0.0
    assert report.fitted_slope is not None
    assert report.fitted_slope == pytest.approx(2.0 - 1.0 / 1.75, abs=1e-3)
    assert report.predicted_slope == pytest.approx(2.0 - 1.0 / 1.75, rel=1e-15)


def test_kepler_radial_periods_frozen():
    report = fractional_kepler_check(1.6, InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.7]), [2.0])
    assert report.base_radial_period == 4.933603242989538
    assert report.rows[0].measured_ratio == 2.593679109344413


def _recording_first_event_times(monkeypatch) -> list:
    """Patch similarity.first_event_times to log (count, options, times) per run."""
    import fracmech.similarity as similarity

    runs, real = [], similarity.first_event_times

    def recording(params, pot, ic, kind, count, cfg=None, **events):
        times = real(params, pot, ic, kind, count, cfg, **events)
        runs.append((count, events, times))
        return times

    monkeypatch.setattr(similarity, "first_event_times", recording)
    return runs


def test_kepler_times_one_radial_period_from_an_apsis(monkeypatch):
    # from the apsis (1, 0) with momentum (0, v) each orbit runs to its 2nd q.p
    # zero, the first return to the launch apsis, and that zero is the period
    runs = _recording_first_event_times(monkeypatch)
    report = fractional_kepler_check(1.6, InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.7]), [2.0, 4.0])
    assert [(count, events) for count, events, _ in runs] == [(2, {"radial_direction": 0})] * 3
    assert report.base_radial_period == runs[0][2][-1]
    assert [row.measured_ratio for row in report.rows] == [t[-1] / runs[0][2][-1] for _, _, t in runs[1:]]


@pytest.mark.parametrize("t_launch, inbound", [(1.0, True), (3.5, False)])
def test_kepler_times_one_radial_period_off_an_apsis(t_launch, inbound):
    # launched from later states of the orbit above, falling in (q.p < 0) or
    # climbing out (q.p > 0), the period spans its 1st to its 3rd q.p zero
    alpha, ic = 1.6, InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.7])
    reference = fractional_kepler_check(alpha, ic, [2.0], TIGHT_CFG).base_radial_period
    traj, _ = integrate(FractionalParams(alpha, 1.0), PowerLawPotential(-1.0, -1.0), ic, (0.0, 4.0), TIGHT_CFG)
    state = traj.eval(t_launch)
    assert (float(state.q @ state.p) < 0.0) == inbound
    report = fractional_kepler_check(alpha, InitialConditions(q0=state.q, p0=state.p), [2.0])
    assert report.base_radial_period == pytest.approx(reference, rel=1e-9)
    assert report.rows[0].rel_err < 1e-8


@pytest.mark.parametrize(
    "check",
    [
        lambda rhos: fractional_kepler_check(1.75, InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.8]), rhos),
        lambda rhos: verify_scaling(
            FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5), InitialConditions(q0=[1.0], p0=[0.0]), rhos
        ),
    ],
    ids=["kepler", "verify_scaling"],
)
def test_unit_scale_reuses_the_base_run(monkeypatch, check):
    # rho = 1 launches bitwise the base motion: 4 runs for 4 scales, not 5
    runs = _recording_first_event_times(monkeypatch)
    rows = check([1.0, 2.0, 4.0, 8.0])
    rows = getattr(rows, "rows", rows)
    assert len(runs) == 4
    assert rows[0].measured_ratio == 1.0
    assert rows[0].rel_err == 0.0


def test_kepler_single_scale_reports_no_fit():
    report = fractional_kepler_check(2.0, BOUND_IC, [1.0], d_alpha=0.5)
    assert report.rows[0].measured_ratio == pytest.approx(1.0, rel=1e-12)
    assert report.fitted_slope is None
    assert report.fit_residual is None


def test_kepler_rejects_unbound_orbit():
    fast = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, 2.0]))
    with pytest.raises(UnsuitablePhysicsError):
        fractional_kepler_check(2.0, fast, [2.0], d_alpha=0.5)


def test_kepler_rejects_radial_collision_course():
    no_spin = InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, 0.0]))
    with pytest.raises(UnsuitablePhysicsError):
        fractional_kepler_check(2.0, no_spin, [2.0], d_alpha=0.5)


@pytest.mark.parametrize("alpha", [1.3, 1.6, 2.0])
def test_kepler_refuses_a_circular_orbit(alpha):
    # at the circular speed alpha^(-1/alpha) q.p is rounding noise, and its
    # rising zeros gave slope errors of 6.1e-2, 7.7e-4 and 6.8e-3
    circle = InitialConditions(q0=[1.0, 0.0], p0=[0.0, alpha ** (-1.0 / alpha)])
    with pytest.raises(UnsuitablePhysicsError, match="circular minimum for its angular momentum"):
        fractional_kepler_check(alpha, circle, [2.0])


def test_kepler_refuses_the_circular_cli_orbit():
    # fracmech kepler --alpha 2 --d-alpha 0.5 --p0 0,1 --rhos 2 reported the
    # ratio 2.8427 against the predicted 2.8284
    circle = InitialConditions(q0=[1.0, 0.0], p0=[0.0, 1.0])
    with pytest.raises(UnsuitablePhysicsError, match="circular"):
        fractional_kepler_check(2.0, circle, [2.0], d_alpha=0.5)


@pytest.mark.parametrize("alpha", [1.3, 1.6, 2.0])
def test_kepler_times_an_orbit_just_off_circular(alpha):
    # 1e-5 above the circular speed the energy gap is 4.0e-10 to 1.2e-9, far
    # above the 1e-12 bound; the slope errors measured 1.7e-7, 2.8e-7, 1.9e-8
    ic = InitialConditions(q0=[1.0, 0.0], p0=[0.0, (1.0 + 1e-5) * alpha ** (-1.0 / alpha)])
    row = fractional_kepler_check(alpha, ic, [2.0]).rows[0]
    assert abs(math.log(row.measured_ratio / row.predicted_ratio)) / math.log(2.0) < 1e-6


def test_kepler_rejects_bad_setup():
    # repulsive center is a physics refusal, wrong dimension a contract one
    with pytest.raises(UnsuitablePhysicsError):
        fractional_kepler_check(2.0, BOUND_IC, [2.0], d_alpha=0.5, strength=1.0)
    one_d = InitialConditions(q0=np.array([1.0]), p0=np.array([0.5]))
    with pytest.raises(DomainError):
        fractional_kepler_check(2.0, one_d, [2.0], d_alpha=0.5)


def test_scale_factor_beyond_the_float_range_is_domain_error(base_osc_traj):
    # energies scale by rho^1.5 = 1e450
    _, _, traj = base_osc_traj
    with pytest.raises(DomainError, match="overflows"):
        scale_trajectory(traj, 1e300, 1.5, 1.5)


def test_non_finite_initial_energy_is_domain_error_without_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite initial energy inf"):
            fractional_kepler_check(
                1.75, InitialConditions(q0=[1.0, 0.0], p0=[0.0, 1e300]), [1.0, 2.0]
            )
        with pytest.raises(DomainError, match="non-finite initial energy inf"):
            verify_scaling(
                FractionalParams(1.5, 1.0),
                PowerLawPotential(1.0, 1.5),
                InitialConditions(q0=[1e300], p0=[0.0]),
                [2.0],
            )


def test_overflowing_scaled_trajectory_is_domain_error_without_warning():
    # rho = 1e308 maps q = 5 to 5e308, past the float range
    import warnings

    params, pot = FractionalParams(2.0, 0.5), PowerLawPotential(1.0, 1.0)
    traj, _ = integrate(params, pot, InitialConditions(q0=[5.0], p0=[0.0]), (0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be finite"):
            scale_trajectory(traj, 1e308, 2.0, 1.0)


def test_kepler_scale_factor_beyond_the_float_range_is_domain_error():
    # the predicted ratio rho^(2 - 1/alpha) is 1e375 at rho = 1e300
    ic = InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.8])
    with pytest.raises(DomainError, match="overflows"):
        fractional_kepler_check(1.75, ic, [1e300])



def _verify_rhos(rhos, q0=1.0):
    return verify_scaling(
        FractionalParams(1.5, 1.0),
        PowerLawPotential(1.0, 1.5),
        InitialConditions(q0=[q0], p0=[0.0]),
        rhos,
    )


def _kepler_rhos(rhos):
    return fractional_kepler_check(1.75, InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.8]), rhos)


@pytest.mark.parametrize(
    "call",
    [
        lambda traj: scale_trajectory(traj, math.inf, 1.5, 1.5),
        lambda traj: _verify_rhos([math.inf]),
        lambda traj: _verify_rhos([math.nan]),
        lambda traj: _kepler_rhos([math.inf]),
    ],
    ids=["scale_trajectory", "verify_scaling", "verify_scaling_nan", "kepler"],
)
def test_non_finite_scale_factor_is_domain_error_without_warning(base_osc_traj, call):
    import warnings

    _, _, traj = base_osc_traj
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="scale factors must be finite and positive"):
            call(traj)


@pytest.mark.parametrize("check", [_verify_rhos, _kepler_rhos])
def test_scale_factors_are_checked_before_any_integration(monkeypatch, check):
    import fracmech.similarity as similarity

    def no_runs(*args, **kwargs):
        raise AssertionError("integrated before the scale factors were checked")

    monkeypatch.setattr(similarity, "first_event_times", no_runs)
    with pytest.raises(DomainError, match="got -1.0"):
        check([2.0, -1.0])


def test_overflowing_scaled_launch_point_is_domain_error_without_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"scaled_q0 must be finite, got \[inf\]"):
            _verify_rhos([1e300], q0=1e10)
