"""Scaling exponents, trajectory mapping, and orbit-period power laws."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmech import (
    DomainError,
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


def test_kepler_scale_factor_beyond_the_float_range_is_domain_error():
    # the predicted ratio rho^(2 - 1/alpha) is 1e375 at rho = 1e300
    ic = InitialConditions(q0=[1.0, 0.0], p0=[0.0, 0.8])
    with pytest.raises(DomainError, match="overflows"):
        fractional_kepler_check(1.75, ic, [1e300])
