"""Pointwise mechanics: evaluators, transforms, and their consistency.

Closed-form expectations are hand-evaluated and cross-checked offline;
the Legendre-transform properties are exercised over random parameters.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmech import (
    DomainError,
    FractionalParams,
    InitialConditions,
    IntegratorConfig,
    PhaseState,
    PowerLawPotential,
    abs_power,
    euler_lagrange_residual,
    free_particle_trajectory,
    hamilton_rhs,
    hamiltonian,
    integrate,
    lagrangian,
    momentum_from_velocity,
    poisson_bracket,
    total_time_derivative,
    turning_point,
    velocity_from_momentum,
)
from fracmech.model import _field, require_finite

ALPHAS = st.floats(min_value=1.05, max_value=2.0)
SCALES = st.floats(min_value=0.1, max_value=10.0)


def state(q, p, t=0.0):
    return PhaseState(t=t, q=np.atleast_1d(np.asarray(q, float)), p=np.atleast_1d(np.asarray(p, float)))


def phase_field(params, pot, y):
    """The canonical equations at the stacked float state y = (q, p), as the integrator steps them."""
    return _field(params, pot, len(y) // 2)(y)


# ------------------------------------------------------------- primitives


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_require_finite_refuses_non_finite_floats_by_first_keyword(bad):
    with pytest.raises(DomainError) as err:
        require_finite(good=1.5, first=bad, second=math.nan)
    assert str(err.value) == f"first must be finite, got {bad}"


def test_require_finite_checks_plain_floats_without_numpy(monkeypatch):
    def refuse(_):
        raise AssertionError("a plain float went through numpy")

    monkeypatch.setattr(np, "isfinite", refuse)
    require_finite(a=0.0, b=-1e308, c=5e-324)
    with pytest.raises(DomainError, match="^b must be finite, got nan$"):
        require_finite(a=2.0, b=math.nan)


# values other than a plain float keep the numpy rule: None passes, anything
# else passes exactly when all(isfinite(value))
ACCEPTED = [
    None, 0, -7, 2**62, True, False, np.float64(1.5), np.int64(3),
    np.array(2.0), np.array([1.0, 2.0]), np.array([]),
]
REFUSED = [
    np.float64(math.inf), np.float64(-math.inf), np.float64(math.nan), np.float32(math.inf),
    np.array(math.nan), np.array(-math.inf), np.array([1.0, math.inf]), np.array([math.nan, 0.0]),
]


@pytest.mark.parametrize("value", ACCEPTED, ids=[repr(v) for v in ACCEPTED])
def test_require_finite_accepts_finite_non_floats(value):
    require_finite(x=value)


def test_require_finite_takes_an_int_exactly_when_it_converts_to_a_float():
    largest = int(sys.float_info.max)
    require_finite(a=2**70, b=-largest, c=largest + 2**970 - 1)  # rounds down to the largest float
    for bad in (largest + 2**970, -(2**1024), 10**400):  # round past it
        with pytest.raises(DomainError, match=f"^x must be finite, got an int of {bad.bit_length()} bits$"):
            require_finite(x=bad)


@pytest.mark.parametrize("value", REFUSED, ids=[repr(v) for v in REFUSED])
def test_require_finite_refuses_non_finite_numpy_values(value):
    with pytest.raises(DomainError) as err:
        require_finite(x=value)
    assert str(err.value) == f"x must be finite, got {value}"


NON_NUMERIC = ["1.5", b"2", np.array([1.0, "a"], dtype=object), np.array(["1.0"])]


@pytest.mark.parametrize("value", NON_NUMERIC, ids=[repr(v) for v in NON_NUMERIC])
def test_require_finite_names_a_non_numeric_value(value):
    # numpy's isfinite raises TypeError on these; the check names the field instead
    with pytest.raises(DomainError) as err:
        require_finite(good=1.0, x=value)
    assert str(err.value) == f"x must be a finite number, got {value!r}"


def test_params_refuse_a_string_exponent():
    with pytest.raises(DomainError, match="^alpha must be a finite number, got '1.5'$"):
        FractionalParams("1.5", 1.0)


def test_abs_power_edges():
    assert abs_power(0.0, 0.7) == 0.0
    assert abs_power(0.0, 0.0) == 1.0
    assert abs_power(-2.0, 2.0) == 4.0
    assert abs_power(-8.0, 1.0 / 3.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError):
        abs_power(0.0, -1.0)


def test_params_validation():
    with pytest.raises(DomainError):
        FractionalParams(1.0, 1.0)
    with pytest.raises(DomainError):
        FractionalParams(2.5, 1.0)
    with pytest.raises(DomainError):
        FractionalParams(1.5, 0.0)
    p = FractionalParams.from_mass(2.0)
    assert p.alpha == 2.0
    assert p.d_alpha == 0.25


def test_potential_validation():
    with pytest.raises(DomainError):
        PowerLawPotential(1.0, 0.0)
    PowerLawPotential(0.0, 2.0)  # zero strength = free particle, allowed
    PowerLawPotential(-1.0, -1.0)  # attractive inverse-distance, allowed
    with pytest.raises(DomainError):
        PowerLawPotential(1.0, 2.5).require_oscillator()
    with pytest.raises(DomainError):
        PowerLawPotential(-1.0, 2.0).require_oscillator()
    PowerLawPotential(1.0, 1.1).require_oscillator()


def test_phase_state_dimension_mismatch():
    with pytest.raises(DomainError):
        PhaseState(0.0, np.array([1.0, 0.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        PhaseState(0.0, np.zeros(4), np.zeros(4))


def test_phase_state_refuses_non_finite_values():
    # hamilton_rhs returned nan on PhaseState(0.0, [nan], [1.0])
    with pytest.raises(DomainError, match=r"^q must be finite, got \[nan\]$"):
        PhaseState(0.0, [math.nan], [1.0])
    with pytest.raises(DomainError, match="^p must be finite"):
        PhaseState(0.0, [1.0, 0.0], [0.5, -math.inf])
    with pytest.raises(DomainError, match="^t must be finite, got inf$"):
        PhaseState(math.inf, [1.0], [0.5])


def test_initial_conditions_exactly_one_velocity_form():
    with pytest.raises(DomainError):
        InitialConditions(q0=np.array([1.0]))
    with pytest.raises(DomainError):
        InitialConditions(q0=np.array([1.0]), p0=np.array([1.0]), qdot0=np.array([1.0]))
    params = FractionalParams(1.5, 1.0)
    ic = InitialConditions(q0=np.array([0.0]), qdot0=np.array([1.5]))
    q0, p0 = ic.resolve(params)
    assert p0 == pytest.approx(np.array([1.0]), rel=1e-14)


def test_initial_conditions_dimension_mismatch_is_refused_at_construction():
    with pytest.raises(DomainError, match="must match q0"):
        InitialConditions(q0=[1.0, 0.0], p0=[0.5])
    with pytest.raises(DomainError, match="must match q0"):
        InitialConditions(q0=[1.0], qdot0=[0.5, 0.0])


# ------------------------------------------------------------- hamiltonian


def test_hamiltonian_classical_values():
    m1 = FractionalParams.from_mass(1.0)
    osc = PowerLawPotential(1.0, 2.0)
    assert hamiltonian(m1, osc, state(0.0, 1.0)) == pytest.approx(0.5, rel=1e-15)
    assert hamiltonian(m1, osc, state(1.0, 1.0)) == pytest.approx(1.5, rel=1e-15)


def test_hamiltonian_fractional_value():
    p = FractionalParams(1.5, 1.0)
    osc = PowerLawPotential(1.0, 2.0)
    # D*|p|^alpha = 2^1.5
    assert hamiltonian(p, osc, state(0.0, 2.0)) == pytest.approx(2.8284271247461903, rel=1e-15)


def test_hamiltonian_vector_norm():
    p = FractionalParams(1.5, 1.0)
    osc = PowerLawPotential(1.0, 2.0)
    # |p| = 5, |q| = 5 for the 3-4-5 pairs
    got = hamiltonian(p, osc, state([3.0, 4.0], [4.0, 3.0]))
    assert got == pytest.approx(5.0**1.5 + 25.0, rel=1e-14)


def test_hamiltonian_singular_at_origin_for_negative_degree():
    p = FractionalParams(2.0, 0.5)
    grav = PowerLawPotential(-1.0, -1.0)
    with pytest.raises(DomainError):
        hamiltonian(p, grav, state(0.0, 1.0))


def test_energy_beyond_the_float_range_is_domain_error_without_warning():
    # |q|^2 = 1e320 and |p|^1.5 = 1e375 overflow; the norms themselves do not
    import warnings

    params, pot = FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be finite, got inf"):
            hamiltonian(params, pot, state([1e160], [0.0]))
        with pytest.raises(DomainError, match="must be finite, got inf"):
            lagrangian(params, pot, [1e160], [0.0])
        with pytest.raises(DomainError, match="must be finite, got inf"):
            pot.energy([1e160])
        with pytest.raises(DomainError, match="must be finite, got inf"):
            hamiltonian(params, pot, state([0.0], [1e250]))


def test_energy_norms_do_not_square_out_of_range():
    # |p| = |q| = 1e160 square past the float range; the energy terms, 1e240
    # each at these exponents, do not
    params, pot = FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 1.5)
    assert hamiltonian(params, pot, state(1e160, -1e160)) == pytest.approx(2e240, rel=1e-14, abs=0)
    got = hamiltonian(params, pot, state([1e160, 0.0], [0.0, 1e160]))
    assert got == pytest.approx(2e240, rel=1e-14, abs=0)


def test_scalar_energy_equals_the_squared_norm_formula_bitwise():
    # at d = 1 the energy takes |x| as abs(x), the same bits as sqrt(x * x)
    # wherever x * x is a normal float
    rng = np.random.default_rng(7)
    x = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-150.0, 150.0, 4000)
    for a, b in [(1.5, 1.5), (1.83, -1.0), (2.0, 2.0)]:
        params, pot = FractionalParams(a, 0.37), PowerLawPotential(2.5, b)
        for q, p in zip(x[:2000], x[2000:]):
            expected = 0.37 * math.sqrt(p * p) ** a + 2.5 * math.sqrt(q * q) ** b
            assert hamiltonian(params, pot, state(q, p)) == expected


# -------------------------------------------------------------- lagrangian


def test_lagrangian_classical_kinetic():
    m1 = FractionalParams.from_mass(1.0)
    free = PowerLawPotential(0.0, 2.0)
    assert lagrangian(m1, free, 0.0, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_lagrangian_zero_velocity():
    p = FractionalParams(1.7, 2.0)
    assert lagrangian(p, PowerLawPotential(0.0, 2.0), 1.0, 0.0) == 0.0


def test_lagrangian_fractional_value():
    # (1/1.5)^2 * (1/3) * 1.5^3 = 0.5 exactly
    p = FractionalParams(1.5, 1.0)
    free = PowerLawPotential(0.0, 2.0)
    assert lagrangian(p, free, 0.0, 1.5) == pytest.approx(0.5, rel=1e-14)


# ------------------------------------------------- momentum <-> velocity


def test_momentum_from_velocity_classical():
    m1 = FractionalParams.from_mass(1.0)
    assert momentum_from_velocity(m1, np.array([3.0])) == pytest.approx(np.array([3.0]))
    assert np.all(momentum_from_velocity(m1, np.array([0.0, 0.0])) == 0.0)


def test_momentum_from_velocity_fractional():
    p = FractionalParams(1.5, 1.0)
    got = momentum_from_velocity(p, np.array([1.5, 0.0]))
    assert got == pytest.approx(np.array([1.0, 0.0]), rel=1e-14)


def test_velocity_from_momentum_values():
    m1 = FractionalParams.from_mass(1.0)
    assert velocity_from_momentum(m1, np.array([3.0])) == pytest.approx(np.array([3.0]))
    assert np.all(velocity_from_momentum(m1, np.zeros(3)) == 0.0)
    p = FractionalParams(1.5, 1.0)
    assert velocity_from_momentum(p, np.array([4.0])) == pytest.approx(np.array([3.0]), rel=1e-14)


@given(ALPHAS, SCALES, st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: abs(v) > 1e-3))
def test_legendre_roundtrip(alpha, d_alpha, qdot):
    params = FractionalParams(alpha, d_alpha)
    back = velocity_from_momentum(params, momentum_from_velocity(params, np.array([qdot])))
    assert float(back[0]) == pytest.approx(qdot, rel=1e-12)


@given(ALPHAS, SCALES, st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: abs(v) > 1e-3), SCALES)
def test_lagrangian_hamiltonian_consistency(alpha, d_alpha, qdot, q):
    # L(qdot, q) = p*qdot - H(p, q) with p the conjugate momentum
    params = FractionalParams(alpha, d_alpha)
    pot = PowerLawPotential(1.0, 2.0)
    p = momentum_from_velocity(params, np.array([qdot]))
    lhs = lagrangian(params, pot, q, qdot)
    rhs = float(p[0]) * qdot - hamiltonian(params, pot, state(q, float(p[0])))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------ hamilton_rhs


def test_hamilton_rhs_classical_oscillator():
    m1 = FractionalParams.from_mass(1.0)
    osc = PowerLawPotential(1.0, 2.0)
    qdot, pdot = hamilton_rhs(m1, osc, state(1.0, 0.0))
    assert qdot == pytest.approx(np.array([0.0]))
    assert pdot == pytest.approx(np.array([-2.0]), rel=1e-14)
    qdot, pdot = hamilton_rhs(m1, osc, state(0.0, 1.0))
    assert qdot == pytest.approx(np.array([1.0]), rel=1e-14)
    assert pdot == pytest.approx(np.array([0.0]))


def test_hamilton_rhs_fractional_values():
    p = FractionalParams(1.5, 1.0)
    osc = PowerLawPotential(1.0, 1.5)
    qdot, pdot = hamilton_rhs(p, osc, state(1.0, 1.0))
    assert float(qdot[0]) == pytest.approx(1.5, rel=1e-14)
    assert float(pdot[0]) == pytest.approx(-1.5, rel=1e-14)


def test_hamilton_rhs_vector_directions():
    p = FractionalParams(1.5, 1.0)
    osc = PowerLawPotential(1.0, 2.0)
    qdot, pdot = hamilton_rhs(p, osc, state([3.0, 4.0], [0.0, 2.0]))
    # qdot parallel to p, pdot antiparallel to q
    assert float(qdot[0]) == 0.0
    assert float(qdot[1]) == pytest.approx(1.5 * math.sqrt(2.0), rel=1e-14)
    assert pdot == pytest.approx(np.array([-6.0, -8.0]), rel=1e-14)


def test_hamilton_rhs_singular_origin():
    p = FractionalParams(2.0, 0.5)
    grav = PowerLawPotential(-1.0, -1.0)
    with pytest.raises(DomainError):
        hamilton_rhs(p, grav, state([0.0, 0.0], [1.0, 0.0]))
    # degree > 1 extends continuously to the origin instead
    osc = PowerLawPotential(1.0, 1.5)
    _, pdot = hamilton_rhs(p, osc, state(0.0, 1.0))
    assert float(pdot[0]) == 0.0


def test_classical_reduction_is_exact():
    # alpha = 2 with D = 1/2m must reproduce p^2/2m mechanics bit-for-bit
    m = 1.7
    params = FractionalParams.from_mass(m)
    pot = PowerLawPotential(0.9, 2.0)
    s = state(0.8, -1.3)
    assert hamiltonian(params, pot, s) == pytest.approx(
        (-1.3) ** 2 / (2 * m) + 0.9 * 0.8**2, rel=1e-15
    )
    qdot, pdot = hamilton_rhs(params, pot, s)
    assert float(qdot[0]) == pytest.approx(-1.3 / m, rel=1e-15)
    assert float(pdot[0]) == pytest.approx(-2 * 0.9 * 0.8, rel=1e-15)


# ------------------------------------------------ Euler-Lagrange residual


def test_euler_lagrange_free_particle():
    p = FractionalParams(1.5, 1.0)
    free = PowerLawPotential(0.0, 2.0)
    assert euler_lagrange_residual(p, free, 1.0, 2.0, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_euler_lagrange_rejects_turning_point():
    p = FractionalParams(1.5, 1.0)
    osc = PowerLawPotential(1.0, 2.0)
    with pytest.raises(DomainError):
        euler_lagrange_residual(p, osc, 1.0, 0.0, -2.0)


def test_euler_lagrange_classical_oscillator():
    # m*qddot + 2*g2*q = 0 along the harmonic solution
    m1 = FractionalParams.from_mass(1.0)
    osc = PowerLawPotential(1.0, 2.0)
    om = math.sqrt(2.0)
    t = 0.3
    q = math.cos(om * t)
    qdot = -om * math.sin(om * t)
    qddot = -om * om * math.cos(om * t)
    assert euler_lagrange_residual(m1, osc, q, qdot, qddot) == pytest.approx(0.0, abs=1e-12)


def test_euler_lagrange_along_integrated_trajectory():
    """The second-order form vanishes mid-swing on an integrated path."""
    params = FractionalParams(1.75, 1.0)
    pot = PowerLawPotential(1.0, 1.75)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([1.0]))
    traj, _ = integrate(params, pot, ic, (0.0, 0.8))
    t = 0.35  # well away from any turning point
    st_ = traj.eval(t)
    h = 1e-5
    v = lambda tt: float(velocity_from_momentum(params, traj.eval(tt).p)[0])
    qddot = (v(t + h) - v(t - h)) / (2.0 * h)
    res = euler_lagrange_residual(params, pot, float(st_.q[0]), v(t), qddot)
    assert abs(res) < 1e-6


def test_euler_lagrange_refuses_a_non_finite_input():
    with pytest.raises(DomainError, match="^qddot must be finite, got inf$"):
        euler_lagrange_residual(FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 2.0), 1.0, 1.0, math.inf)


def test_euler_lagrange_refuses_a_residual_beyond_the_float_range():
    # the kinematic coefficient (1/1.5e-3)^2/0.5 = 8.9e5 times qddot = 1e308
    with pytest.raises(DomainError, match="^residual must be finite, got inf$"):
        euler_lagrange_residual(FractionalParams(1.5, 1e-3), PowerLawPotential(1.0, 2.0), 1.0, 1.0, 1e308)


# --------------------------------------------------------- Poisson bracket


def test_poisson_bracket_canonical_pair():
    s = state(0.7, -0.4)
    u = lambda st_: float(st_.p[0])
    v = lambda st_: float(st_.q[0])
    assert poisson_bracket(u, v, s) == pytest.approx(1.0, rel=1e-9)
    assert poisson_bracket(u, u, s) == 0.0


def test_poisson_bracket_hamiltonian_gives_velocity():
    params = FractionalParams(1.5, 1.0)
    pot = PowerLawPotential(1.0, 2.0)
    s = state(0.3, 2.0)
    h_field = lambda st_: hamiltonian(params, pot, st_)
    q_field = lambda st_: float(st_.q[0])
    # {H, q} = dH/dp = qdot = 1.5 * sqrt(2)
    assert poisson_bracket(h_field, q_field, s) == pytest.approx(2.1213203435596426, rel=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_poisson_bracket_canonical_pairs_in_the_plane_and_space(d):
    # {q_i, p_j} = -delta_ij in this sign convention
    s = state([0.7, -0.4, 1.3][:d], [-0.2, 0.9, 0.5][:d])
    for i in range(d):
        for j in range(d):
            got = poisson_bracket(lambda x: float(x.q[i]), lambda x: float(x.p[j]), s)
            assert got == pytest.approx(-1.0 if i == j else 0.0, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "q, p", [([0.9, -0.4], [0.3, 0.7]), ([0.9, -0.4, 0.2], [0.3, 0.7, -0.5])], ids=["d2", "d3"]
)
def test_total_time_derivative_conserves_angular_momentum(q, p):
    # a central potential exerts no torque: d(q1 p2 - q2 p1)/dt = 0
    params, pot = FractionalParams(1.6, 0.8), PowerLawPotential(-1.0, -1.0)
    planar = lambda x: float(x.q[0] * x.p[1] - x.q[1] * x.p[0])
    assert total_time_derivative(planar, params, pot, state(q, p)) == pytest.approx(0.0, abs=1e-8)


def test_total_time_derivative_conserves_energy():
    params = FractionalParams(1.5, 1.0)
    pot = PowerLawPotential(1.0, 1.5)
    s = state(0.9, 1.1)
    h_field = lambda st_: hamiltonian(params, pot, st_)
    assert total_time_derivative(h_field, params, pot, s) == pytest.approx(0.0, abs=1e-8)


def test_total_time_derivative_of_position_is_velocity():
    params = FractionalParams(1.5, 1.0)
    pot = PowerLawPotential(1.0, 2.0)
    s = state(0.3, 2.0)
    q_field = lambda st_: float(st_.q[0])
    expected = float(velocity_from_momentum(params, s.p)[0])
    assert total_time_derivative(q_field, params, pot, s) == pytest.approx(expected, rel=1e-8)


def test_total_time_derivative_matches_trajectory_difference():
    params = FractionalParams.from_mass(1.0)
    pot = PowerLawPotential(1.0, 2.0)
    ic = InitialConditions(q0=np.array([1.0]), p0=np.array([0.0]))
    traj, _ = integrate(params, pot, ic, (0.0, 2.0))
    f = lambda st_: float(st_.p[0]) * float(st_.q[0])
    t = 0.9
    got = total_time_derivative(f, params, pot, traj.eval(t))
    h = 1e-4
    expected = (f(traj.eval(t + h)) - f(traj.eval(t - h))) / (2.0 * h)
    assert got == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf])
def test_finite_difference_step_must_be_finite_and_positive(step):
    # step = 0 raised a raw ZeroDivisionError and step = nan returned nan
    params, pot = FractionalParams(1.5, 1.0), PowerLawPotential(1.0, 2.0)
    s = state(0.3, 2.0)
    h_field = lambda st_: hamiltonian(params, pot, st_)
    q_field = lambda st_: float(st_.q[0])
    with pytest.raises(DomainError, match="step must be"):
        total_time_derivative(q_field, params, pot, s, step=step)
    with pytest.raises(DomainError, match="step must be"):
        poisson_bracket(h_field, q_field, s, step=step)


# ----------------------------------------------------------- turning point


def test_turning_point_values():
    assert turning_point(PowerLawPotential(1.0, 2.0), 1.0) == pytest.approx(1.0)
    assert turning_point(PowerLawPotential(1.0, 2.0), 4.0) == pytest.approx(2.0)
    # (E/g2)^(1/beta) = 4^(2/3)
    got = turning_point(PowerLawPotential(0.5, 1.5), 2.0)
    assert got == pytest.approx(2.5198420997897464, rel=1e-14)


def test_turning_point_closes_energy_balance():
    pot = PowerLawPotential(0.5, 1.5)
    q_turn = turning_point(pot, 2.0)
    params = FractionalParams(1.5, 1.0)
    assert hamiltonian(params, pot, state(q_turn, 0.0)) == pytest.approx(2.0, rel=1e-14)


def test_turning_point_rejects_bad_inputs():
    with pytest.raises(DomainError):
        turning_point(PowerLawPotential(1.0, 2.0), 0.0)
    with pytest.raises(DomainError):
        turning_point(PowerLawPotential(-1.0, -1.0), 1.0)


def test_turning_point_refuses_a_non_finite_energy():
    with pytest.raises(DomainError, match="^energy must be finite, got inf$"):
        turning_point(PowerLawPotential(1.0, 1.5), math.inf)


def test_turning_point_beyond_the_float_range_is_domain_error():
    # E/strength = 1e600 overflows before the root is taken
    with pytest.raises(DomainError, match="^turning_point must be finite, got inf$"):
        turning_point(PowerLawPotential(1e-300, 1.1), 1e300)


# ------------------------------------------------------------ free particle


def test_free_particle_classical():
    m1 = FractionalParams.from_mass(1.0)
    for t in (0.0, 0.5, 2.0):
        q, p = free_particle_trajectory(m1, 0.5, 0.0, t)
        assert q == pytest.approx(t, rel=1e-14, abs=1e-14)
        assert p == pytest.approx(1.0, rel=1e-14)


def test_free_particle_zero_at_phase_origin():
    p15 = FractionalParams(1.5, 1.0)
    q, _ = free_particle_trajectory(p15, 3.0, -1.25, 1.25)
    assert q == 0.0


def test_free_particle_fractional_values():
    # q = alpha*D*(E/D)^(1-1/alpha)*(t+delta) = 1.5*2 = 3 at unit elapsed
    # phase; p = (E/D)^(1/alpha) = 4; the pair closes the energy balance
    # since D*|p|^alpha = 4^1.5 = 8 = E
    p15 = FractionalParams(1.5, 1.0)
    q, p = free_particle_trajectory(p15, 8.0, 0.0, 1.0)
    assert q == pytest.approx(3.0, rel=1e-14)
    assert p == pytest.approx(4.0, rel=1e-14)
    assert hamiltonian(p15, PowerLawPotential(0.0, 2.0), state(q, p)) == pytest.approx(8.0, rel=1e-14)


def test_free_particle_rejects_nonpositive_energy():
    p15 = FractionalParams(1.5, 1.0)
    with pytest.raises(DomainError):
        free_particle_trajectory(p15, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        free_particle_trajectory(p15, -1.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "energy, delta, t, name",
    [(math.inf, 0.0, 1.0, "energy"), (1.0, math.nan, 1.0, "delta"), (1.0, 0.0, -math.inf, "t")],
)
def test_free_particle_refuses_non_finite_inputs(energy, delta, t, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        free_particle_trajectory(FractionalParams(1.5, 1.0), energy, delta, t)


def test_free_particle_position_beyond_the_float_range_is_domain_error():
    # q = 1.5 (t + delta) at E = D = 1: 1.5e308 is finite, 2.55e308 is not
    p15 = FractionalParams(1.5, 1.0)
    assert free_particle_trajectory(p15, 1.0, 0.0, 1e308) == (1.5e308, 1.0)
    with pytest.raises(DomainError, match="^q must be finite, got inf$"):
        free_particle_trajectory(p15, 1.0, 0.0, 1.7e308)


@given(ALPHAS, SCALES, SCALES)
def test_free_particle_velocity_consistency(alpha, d_alpha, energy):
    # the time slope of the analytic position equals the velocity that the
    # momentum map assigns to the analytic momentum
    params = FractionalParams(alpha, d_alpha)
    q1, p1 = free_particle_trajectory(params, energy, 0.0, 1.0)
    q2, _ = free_particle_trajectory(params, energy, 0.0, 2.0)
    slope = q2 - q1
    expected = float(velocity_from_momentum(params, np.array([p1]))[0])
    assert slope == pytest.approx(expected, rel=1e-12)


def test_power_beyond_the_float_range_is_domain_error():
    # alpha - 1 = 1e-7 puts (1/(alpha d_alpha))^(1/(alpha-1)) far past 1e308
    params = FractionalParams(1.0000001, 1e-3)
    pot = PowerLawPotential(1.0, 2.0)
    with pytest.raises(DomainError, match="overflows"):
        momentum_from_velocity(params, [10.0])
    with pytest.raises(DomainError, match="overflows"):
        lagrangian(params, pot, [0.0], [10.0])
    with pytest.raises(DomainError, match="overflows"):
        euler_lagrange_residual(params, pot, 0.0, 10.0, 1.0)


def test_momentum_beyond_the_float_range_is_domain_error_without_warning():
    # |p| = (|qdot| / 1.5)^2 is about 4.4e319
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for qdot in ([1e160], [1e160, 0.0]):
            with pytest.raises(DomainError, match="overflows"):
                momentum_from_velocity(FractionalParams(1.5, 1.0), qdot)
        # both factors are finite here, 4.4e5 and 1e304, but not their product
        with pytest.raises(DomainError, match="momentum must be finite"):
            momentum_from_velocity(FractionalParams(1.5, 1e-3), [1e152])


def test_lagrangian_kinetic_beyond_the_float_range_is_domain_error_without_warning():
    # coeff is about 1.5e5 and |qdot|^3 is 2.7e304, both finite, but not their product
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="kinetic must be finite, got inf"):
            lagrangian(FractionalParams(1.5, 1e-3), PowerLawPotential(1.0, 2.0), [0.0], [3e101])


# ------------------------------------------------------ the bound vector field


def test_field_norms_neither_overflow_nor_underflow():
    # |p|^2 leaves the float range on both sides, |p| does not: the field
    # used to square and return 0 for both momenta
    params = FractionalParams(1.5, 1.0)
    assert velocity_from_momentum(params, [1e160])[0] == pytest.approx(1.5e80, rel=1e-14, abs=0)
    assert velocity_from_momentum(params, [1e-170])[0] == pytest.approx(1.5e-85, rel=1e-14, abs=0)
    qdot, pdot = hamilton_rhs(params, PowerLawPotential(1.0, 1.5), state([1.0, 0.0], [1e160, 1e160]))
    expected = 1.5e80 / 2.0**0.25
    assert qdot == pytest.approx([expected, expected], rel=1e-14, abs=0)
    assert pdot.tolist() == [-1.5, -0.0]


@pytest.mark.parametrize("q", [[1e-110], [1e-110, 0.0]], ids=["d1", "d2"])
def test_overflowing_force_is_domain_error_on_every_route(q):
    # attractive inverse-distance force |q|^-2 = 1e220 is finite, but the
    # radial factor |q|^-3 = 1e330 is not
    params, pot = FractionalParams(1.5, 1.0), PowerLawPotential(-1.0, -1.0)
    p = [0.5] * len(q)
    with pytest.raises(DomainError, match="overflows"):
        phase_field(params, pot, q + p)
    with pytest.raises(DomainError, match="overflows"):
        hamilton_rhs(params, pot, state(q, p))
    with pytest.raises(DomainError, match="overflows"):
        integrate(params, pot, InitialConditions(q0=q, p0=p), (0.0, 1.0))


def test_field_at_the_origin_of_its_arguments():
    params = FractionalParams(1.5, 1.0)
    with pytest.raises(DomainError, match="undefined at q = 0"):
        phase_field(params, PowerLawPotential(1.0, 1.0), [0.0, 1.0])
    with pytest.raises(DomainError, match="undefined at q = 0"):
        PowerLawPotential(1.0, 1.0).gradient([0.0, -0.0])
    # a zero momentum moves nothing and a zero force pushes nothing, as +0.0
    for y in ([1.0, -0.0], [1.0, 2.0, -0.0, -0.0]):
        d = len(y) // 2
        out = phase_field(params, PowerLawPotential(1.0, 2.0), y)
        assert [math.copysign(1.0, v) for v in out[:d]] == [1.0] * d
    assert math.copysign(1.0, velocity_from_momentum(params, [-0.0])[0]) == 1.0
    out = phase_field(params, PowerLawPotential(1.0, 2.0), [-0.0, 1.0])
    assert math.copysign(1.0, out[1]) == 1.0


@given(
    ALPHAS,
    SCALES,
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-2.0, max_value=3.0).filter(lambda b: abs(b) > 1e-3),
    st.floats(min_value=1e-150, max_value=1e150),
    st.floats(min_value=1e-150, max_value=1e150),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([-1.0, 1.0]),
)
def test_scalar_field_equals_the_squared_norm_formula_bitwise(a, k, s, b, mq, mp, sq, sp):
    # at d = 1 the field takes |x| as abs(x); sqrt(x * x) gives the same
    # bits wherever x * x is a normal float, so every 1-D step is unchanged
    q, p = sq * mq, sp * mp
    params, pot = FractionalParams(a, k), PowerLawPotential(s, b)
    try:
        force = -s * b * math.sqrt(q * q) ** (b - 2.0) * q
    except OverflowError:
        with pytest.raises(DomainError, match="overflows"):
            phase_field(params, pot, [q, p])
        return
    assert phase_field(params, pot, [q, p]) == [a * k * math.sqrt(p * p) ** (a - 2.0) * p, force]
