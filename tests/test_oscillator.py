"""Oscillator closed forms, time-of-flight inversion, and level spacing.

Frozen constants were produced offline with 40-digit arithmetic; the
grid-wide comparisons consume the session period grid from conftest.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from conftest import GRID_EXPONENTS

from fracmech import (
    DomainError,
    FractionalParams,
    InitialConditions,
    IntegrationError,
    IntegratorConfig,
    OscillatorSpec,
    PeriodReport,
    PowerLawPotential,
    abs_power,
    beta,
    classical_limit_solution,
    exponents,
    hj_position,
    hj_time_of_flight,
    hj_trajectory,
    inc_beta,
    integrate,
    period,
    period_quadrature,
    period_report,
    quantum_levels,
    turning_point,
    velocity_from_momentum,
)
from fracmech.oscillator import _beta_integral_quad

HARMONIC = OscillatorSpec(FractionalParams.from_mass(1.0), PowerLawPotential(1.0, 2.0), 1.0)
OMEGA = math.sqrt(2.0)


def test_spec_validation():
    params = FractionalParams(1.5, 1.0)
    with pytest.raises(DomainError):
        OscillatorSpec(params, PowerLawPotential(1.0, 2.0), 0.0)
    with pytest.raises(DomainError):
        OscillatorSpec(params, PowerLawPotential(-1.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        OscillatorSpec(params, PowerLawPotential(1.0, 2.5), 1.0)
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    assert spec.alpha == 1.5
    assert spec.beta == 1.5
    assert spec.q_turn == pytest.approx(1.0)


def test_period_harmonic_closed_form():
    assert period(HARMONIC) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-14)


def test_period_harmonic_energy_independent_exactly():
    hi = OscillatorSpec(HARMONIC.params, HARMONIC.pot, 10.0)
    assert period(HARMONIC) == period(hi)


def test_period_frozen_values():
    # 40-digit references for unit scale factors at unit energy
    assert period(OscillatorSpec.from_exponents(1.5, 2.0)) == pytest.approx(
        3.4494794123063874, rel=1e-12
    )
    assert period(OscillatorSpec.from_exponents(1.5, 1.5)) == pytest.approx(
        3.6504714985585372, rel=1e-12
    )


def test_period_quadrature_harmonic():
    assert period_quadrature(HARMONIC) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)


def test_period_closed_vs_quadrature_on_grid(period_grid):
    for row in period_grid.rows:
        assert abs(row.closed - row.quadrature) / row.closed < 1e-10, row


# a = 1/beta, b = 1/alpha over the test grid of exponents (alpha = beta = 2 among them) and the
# edge alpha, beta = 1 + 1e-7
EXPONENTS_AND_EDGE = GRID_EXPONENTS + (1.0 + 1e-7,)
BETA_INTEGRAL_ARGS = [(1.0 / x, 1.0 / y) for x in EXPONENTS_AND_EDGE for y in EXPONENTS_AND_EDGE]


def test_beta_integral_quadrature_matches_mpmath_and_qaws():
    # the tanh-sinh table against 40-digit Beta values and against QUADPACK's QAWS rule, whose own
    # error here is up to 5.1e-16
    mpmath = pytest.importorskip("mpmath")
    from scipy.integrate import quad

    worst_mp = worst_qaws = 0.0
    for a, b in BETA_INTEGRAL_ARGS:
        value = _beta_integral_quad(a, b)
        with mpmath.workdps(40):
            exact = mpmath.beta(a, b)
            worst_mp = max(worst_mp, float(abs(value - exact) / exact))
        qaws = quad(lambda z: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0), epsabs=1e-14, epsrel=1e-13)[0]
        worst_qaws = max(worst_qaws, abs(value - qaws) / qaws)
    print(f"worst tanh-sinh error {worst_mp:.3e} vs mpmath, {worst_qaws:.3e} vs QAWS")
    assert worst_mp < 4.5e-16
    assert worst_qaws < 1e-15


def test_beta_integral_quadrature_refuses_an_unresolved_integrand():
    # at a = 0.1 the z^(-0.9) end is not resolved by |t| <= 4: the step-2h sum is 2.2e-4 away
    with pytest.raises(IntegrationError, match=r"error 2\.235e-04 too large for a=0\.1, b=0\.9"):
        _beta_integral_quad(0.1, 0.9)


def test_period_closed_vs_ode_on_grid(period_grid):
    for row in period_grid.rows:
        assert abs(row.closed - row.ode) / row.closed < 1e-5, row


def test_measured_period_accuracy_on_grid(period_grid):
    # the run times its first cycle, measured at 1.167e-7 worst; its second
    # cycle, the time between the second and fourth momentum zeros, is 1.721e-7
    worst = max(abs(row.ode - row.closed) / row.closed for row in period_grid.rows)
    print(f"worst |T_ode - T_closed|/T_closed {worst:.3e}")
    assert worst < 1.5e-7


def test_period_energy_scaling_closed_form():
    for a, b in [(1.1, 1.9), (1.5, 1.5), (1.75, 1.25)]:
        lo = OscillatorSpec.from_exponents(a, b, energy=1.0)
        hi = OscillatorSpec.from_exponents(a, b, energy=7.0)
        expected = 7.0 ** (1.0 / a + 1.0 / b - 1.0)
        assert period(hi) / period(lo) == pytest.approx(expected, rel=1e-14)


def test_period_energy_scaling_from_ode(period_grid):
    # measured-period ratios across the energy axis follow the same power law
    by_pair = {}
    for row in period_grid.rows:
        by_pair.setdefault((row.alpha, row.beta), []).append(row)
    for (a, b), rows in by_pair.items():
        rows.sort(key=lambda r: r.energy)
        base = rows[0]
        for other in rows[1:]:
            expected = (other.energy / base.energy) ** (1.0 / a + 1.0 / b - 1.0)
            assert other.ode / base.ode == pytest.approx(expected, rel=1e-5)


def test_period_report_shape():
    rep = period_report(HARMONIC)
    assert rep.closed_form == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)
    assert rep.ode_measured is not None
    assert rep.max_pairwise_rel_diff < 1e-5
    rep2 = period_report(HARMONIC, include_ode=False)
    assert rep2.ode_measured is None


# ---------------------------------------------------------- time of flight


def test_time_of_flight_endpoints():
    spec = OscillatorSpec.from_exponents(1.75, 1.5)
    assert hj_time_of_flight(spec, 0.0) == 0.0
    assert hj_time_of_flight(spec, spec.q_turn) == pytest.approx(period(spec) / 4.0, rel=1e-12)


def test_time_of_flight_harmonic_frozen():
    # q = sin(0.7) is reached at t = 0.7/omega
    got = hj_time_of_flight(HARMONIC, math.sin(0.7))
    assert got == pytest.approx(0.49497474683058327, rel=1e-12)


def test_time_of_flight_domain():
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    with pytest.raises(DomainError):
        hj_time_of_flight(spec, -0.1)
    with pytest.raises(DomainError):
        hj_time_of_flight(spec, spec.q_turn * 1.01)


def test_time_of_flight_strictly_increasing():
    spec = OscillatorSpec.from_exponents(1.2, 1.9)
    qs = np.linspace(0.0, spec.q_turn, 50)
    ts = [hj_time_of_flight(spec, float(q)) for q in qs]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_time_of_flight_derivative_is_inverse_speed():
    # dt/dq = 1/|qdot| with qdot given by the momentum on the energy shell
    for a, b in [(2.0, 2.0), (1.5, 1.75), (1.8, 1.2)]:
        spec = OscillatorSpec.from_exponents(a, b, energy=1.3)
        d_alpha = spec.params.d_alpha
        for frac in (0.15, 0.5, 0.85):
            q = frac * spec.q_turn
            h = 1e-6 * spec.q_turn
            dt_dq = (hj_time_of_flight(spec, q + h) - hj_time_of_flight(spec, q - h)) / (2.0 * h)
            kinetic = spec.energy - spec.pot.strength * abs(q) ** spec.pot.degree
            p_shell = (kinetic / d_alpha) ** (1.0 / a)
            speed = float(velocity_from_momentum(spec.params, np.array([p_shell]))[0])
            assert dt_dq == pytest.approx(1.0 / speed, rel=1e-8)


# -------------------------------------------------------------- inversion


def test_position_endpoints():
    spec = OscillatorSpec.from_exponents(1.75, 1.5)
    assert hj_position(spec, 0.0) == 0.0
    assert hj_position(spec, period(spec) / 4.0) == pytest.approx(spec.q_turn, rel=1e-10)


def test_position_harmonic_is_sine():
    quarter = period(HARMONIC) / 4.0
    for t in np.linspace(0.0, quarter, 40):
        assert hj_position(HARMONIC, float(t)) == pytest.approx(
            math.sin(OMEGA * float(t)), abs=1e-10
        )


def test_position_domain():
    with pytest.raises(DomainError):
        hj_position(HARMONIC, -1e-3)
    with pytest.raises(DomainError):
        hj_position(HARMONIC, period(HARMONIC) / 4.0 + 1e-3)


def test_position_just_short_of_the_turning_point():
    # 1/alpha < 1 puts the Beta root near x = 1, where these times used to
    # raise a non-convergence DomainError or a raw ValueError
    spec = OscillatorSpec.from_exponents(1.897431663748042, 1.3081781927697052, energy=2.6491260314565186)
    for t in (1.2097343113637042, spec.quarter_period * (1.0 - 1e-9)):
        q = hj_position(spec, t)
        assert 0.0 < q <= spec.q_turn
        assert q == pytest.approx(spec.q_turn, rel=1e-9)
    assert hj_trajectory(spec, 4.687791094944384, 6.2) == pytest.approx(spec.q_turn, rel=1e-9)


@pytest.mark.parametrize("exps", [(2.0, 2.0), (1.5, 2.0), (1.75, 1.5), (1.2, 1.2)])
def test_position_time_roundtrip(exps):
    spec = OscillatorSpec.from_exponents(*exps, energy=1.7)
    for frac in np.linspace(0.001, 0.999, 25):
        q = float(frac) * spec.q_turn
        back = hj_position(spec, hj_time_of_flight(spec, q))
        assert back == pytest.approx(q, rel=1e-9)


# ------------------------------------------------------ full-period extension


def test_trajectory_symmetry_points():
    spec = OscillatorSpec.from_exponents(1.6, 1.4)
    full = period(spec)
    assert abs(hj_trajectory(spec, 0.0)) == 0.0
    assert abs(hj_trajectory(spec, full / 2.0)) < 1e-9 * spec.q_turn
    assert hj_trajectory(spec, full / 4.0) == pytest.approx(spec.q_turn, rel=1e-9)
    assert hj_trajectory(spec, 3.0 * full / 4.0) == pytest.approx(-spec.q_turn, rel=1e-9)


def test_trajectory_harmonic_globally():
    full = period(HARMONIC)
    for t in np.linspace(-full, 2.0 * full, 121):
        assert hj_trajectory(HARMONIC, float(t)) == pytest.approx(
            math.sin(OMEGA * float(t)), abs=1e-10
        )


def test_trajectory_periodic_and_odd():
    spec = OscillatorSpec.from_exponents(1.3, 1.7, energy=2.0)
    full = period(spec)
    for t in (0.13, 0.61, 1.9):
        q = hj_trajectory(spec, t)
        assert hj_trajectory(spec, t + full) == pytest.approx(q, rel=1e-9, abs=1e-12)
        assert hj_trajectory(spec, -t) == pytest.approx(-q, rel=1e-9, abs=1e-12)


def test_trajectory_phase_offset():
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    for t in (0.0, 0.4, 1.1):
        assert hj_trajectory(spec, t, delta=0.25) == pytest.approx(
            hj_trajectory(spec, t + 0.25), rel=1e-10, abs=1e-12
        )


@pytest.mark.parametrize("exps", [(1.75, 1.5), (1.2, 1.2)])
def test_trajectory_matches_integration(exps):
    spec = OscillatorSpec.from_exponents(*exps)
    full = period(spec)
    p0 = (spec.energy / spec.params.d_alpha) ** (1.0 / spec.alpha)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([p0]))
    traj, _ = integrate(spec.params, spec.pot, ic, (0.0, full))
    worst = max(
        abs(hj_trajectory(spec, float(t)) - float(traj.eval(float(t)).q[0]))
        for t in np.linspace(0.0, full, 50)
    )
    assert worst < 1e-6 * spec.q_turn


@pytest.mark.parametrize("alpha", GRID_EXPONENTS)
def test_hj_trajectory_at_the_quarter_points_takes_few_evaluations(alpha, monkeypatch):
    # t = k T/4 on a 192-sample sweep leaves a remainder within rounding of 0
    # or T/4, so the root lies within rounding of x = 0 or 1; the 1e-12
    # start clip and bisection took up to 48 inc_beta evaluations there
    import fracmech.oscillator as oscillator
    import fracmech.specfun as specfun

    evaluations, solves = [], []
    true_inc_beta, true_inv_inc_beta = specfun.inc_beta, oscillator.inv_inc_beta

    def counting_inc_beta(a, b, x):
        evaluations[-1] += 1
        return true_inc_beta(a, b, x)

    def recording_inv_inc_beta(a, b, target):
        solves.append((a, b, target))
        return true_inv_inc_beta(a, b, target)

    monkeypatch.setattr(specfun, "inc_beta", counting_inc_beta)
    monkeypatch.setattr(oscillator, "inv_inc_beta", recording_inv_inc_beta)
    for beta_exp in GRID_EXPONENTS:
        for energy in (0.5, 2.0, 7.0):
            spec = OscillatorSpec.from_exponents(alpha, beta_exp, energy=energy)
            full = period(spec)
            for k in range(0, 192, 48):
                evaluations.append(0)
                hj_trajectory(spec, full * k / 192)
                assert evaluations[-1] <= 3, (alpha, beta_exp, energy, k, evaluations[-1])
    monkeypatch.undo()
    for a, b, target in solves:
        total = beta(a, b)
        if not 0.0 < target < total:  # answered 0 or 1 without an evaluation
            continue
        if target > 0.5 * total:
            a, b, target = b, a, total - target
        x = specfun.inv_inc_beta(a, b, target)
        assert abs(inc_beta(a, b, x) - target) <= 1e-13 * total


# recorded to the bit from the Halley-step inversion, each within 1e-15 q_turn
# of a 40-digit reference; a point in each quarter, one just short of the
# turning point, a phase offset and a negative time
TRAJECTORY_BITS = [
    (0.4, 0.0, "0x1.73d28b24acf62p-1"),
    (1.9, 0.0, "0x1.a98bb98d5ee34p-2"),
    (3.1, 0.0, "-0x1.7768925dd9c8bp+0"),
    (3.9, 0.0, "-0x1.44baa7c66f575p-1"),
    (1.0615468201596465, 0.0, "0x1.80df422ae67bap+0"),
    (0.3, 0.8, "0x1.7df87ef15df91p+0"),
    (-2.5, 0.0, "0x1.5fc49fe069369p-1"),
]


def test_trajectory_frozen_to_the_bit():
    spec = OscillatorSpec.from_exponents(1.5, 1.7, energy=2.0)
    assert period(spec).hex() == "0x1.0fc18850515a5p+2"
    assert [hj_trajectory(spec, t, delta).hex() for t, delta, _ in TRAJECTORY_BITS] == [
        bits for _, _, bits in TRAJECTORY_BITS
    ]


# ----------------------------------------------------------- quantum levels


def test_quantum_levels_harmonic_values():
    # hbar * omega * (n + 1/2) with omega = sqrt(2)
    assert quantum_levels(HARMONIC, 1.0, 0) == pytest.approx(0.7071067811865476, rel=1e-13)
    for n in range(5):
        expected = math.sqrt(2.0) * (n + 0.5)
        assert quantum_levels(HARMONIC, 1.0, n) == pytest.approx(expected, rel=1e-13)


def test_quantum_levels_harmonic_equidistant():
    levels = [quantum_levels(HARMONIC, 1.0, n) for n in range(8)]
    gaps = np.diff(levels)
    assert np.ptp(gaps) < 1e-12 * gaps[0]


def test_quantum_levels_fractional_spacing_shrinks():
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    levels = [quantum_levels(spec, 1.0, n) for n in range(10)]
    gaps = np.diff(levels)
    assert np.all(gaps > 0)
    assert np.all(np.diff(gaps) < 0)


def test_quantum_levels_exponent():
    # level growth follows (n + 1/2)^(alpha*beta/(alpha+beta))
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    ex = 0.75
    ratios = [quantum_levels(spec, 1.0, n) / (n + 0.5) ** ex for n in range(6)]
    assert max(ratios) - min(ratios) < 1e-12 * ratios[0]


def test_quantum_levels_validation():
    with pytest.raises(DomainError):
        quantum_levels(HARMONIC, 1.0, -1)
    with pytest.raises(DomainError):
        quantum_levels(HARMONIC, 0.0, 0)
    with pytest.raises(DomainError, match="^n must be a finite number, got True$"):
        quantum_levels(HARMONIC, 1.0, True)  # a bool is an int subclass: it once returned E_1
    with pytest.raises(DomainError, match="^n must be a finite number, got '2'$"):
        quantum_levels(HARMONIC, 1.0, "2")


# ----------------------------------------------------------- classical limit


def test_classical_limit_shape():
    assert classical_limit_solution(1.0, 1.0, 1.0, 0.0, 0.0) == 0.0
    # amplitude reaches the turning point of the quadratic well
    quarter = math.pi / (2.0 * OMEGA)
    assert classical_limit_solution(1.0, 1.0, 1.0, 0.0, quarter) == pytest.approx(1.0, rel=1e-12)
    got = classical_limit_solution(2.0, 1.0, 1.0, 0.0, quarter)
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)])
def test_classical_limit_refuses_an_argument_that_is_not_positive(args):
    with pytest.raises(DomainError, match="classical limit needs positive energy, mass and g"):
        classical_limit_solution(*args, 0.0, 0.0)


@pytest.mark.parametrize("values", [(0.0, 1.0, None), (1.0, -1.0, None), (1.0, 1.0, 0.0)])
def test_period_report_refuses_a_period_that_is_not_positive(values):
    with pytest.raises(DomainError, match="period values must be strictly positive"):
        PeriodReport(*values, 0.0)


def test_classical_limit_matches_extension():
    full = period(HARMONIC)
    for t in np.linspace(0.0, 2.0 * full, 41):
        assert classical_limit_solution(1.0, 1.0, 1.0, 0.0, float(t)) == pytest.approx(
            hj_trajectory(HARMONIC, float(t)), abs=1e-10
        )


@pytest.mark.parametrize(
    "alpha, beta_exp, expected",
    [
        (1.5, 1.5, 3.650471498558537210725743887),
        (1.25, 1.75, 3.731488344799012876823928657),
        (2.0, 1.25, 3.678860509516751622040743025),
        (1.75, 1.75, 3.391781463367943136614651136),
    ],
)
def test_period_frozen_to_the_last_ulps(alpha, beta_exp, expected):
    # 40-digit references for T = 4 B(1/beta, 1/alpha) / (alpha beta) at
    # unit scale factors and energy; the exponents are exact binary floats
    spec = OscillatorSpec.from_exponents(alpha, beta_exp)
    assert period(spec) == pytest.approx(expected, rel=5e-16, abs=0.0)


SPEC = OscillatorSpec.from_exponents(1.5, 1.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hj_trajectory(SPEC, math.inf),
        lambda: hj_trajectory(SPEC, math.nan),
        lambda: hj_trajectory(SPEC, 0.3, delta=math.inf),
        lambda: hj_trajectory(SPEC, 1e308, delta=1e308),
        lambda: quantum_levels(SPEC, 1.0, math.nan),
        lambda: quantum_levels(SPEC, 1.0, math.inf),
        lambda: quantum_levels(SPEC, math.inf, 1),
        lambda: classical_limit_solution(1.0, 1.0, 1.0, 0.0, math.inf),
        lambda: classical_limit_solution(1.0, 1.0, 1.0, math.nan, 1.0),
        lambda: exponents(1.5, math.nan),
        lambda: exponents(1.5, math.inf),
        lambda: inc_beta(math.inf, 1.0, 0.5),
    ],
    ids=[
        "hj_t_inf",
        "hj_t_nan",
        "hj_delta_inf",
        "hj_phase_overflow",
        "levels_n_nan",
        "levels_n_inf",
        "levels_hbar_inf",
        "classical_t_inf",
        "classical_delta_nan",
        "exponents_degree_nan",
        "exponents_degree_inf",
        "inc_beta_a_inf",
    ],
)
def test_non_finite_scalars_are_domain_errors(call):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            call()


# an int is exact and unbounded: finite exactly when it converts to a float
def test_spec_refuses_an_energy_beyond_the_float_range():
    with pytest.raises(DomainError, match="^energy must be finite, got an int of 1329 bits$"):
        OscillatorSpec.from_exponents(1.5, 1.5, energy=10**400)


def test_hj_trajectory_refuses_a_time_beyond_the_float_range():
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    with pytest.raises(DomainError, match="^t must be finite"):
        hj_trajectory(spec, 10**400)
    with pytest.raises(DomainError, match="^delta must be finite"):
        hj_trajectory(spec, 0.0, -(10**400))
    assert hj_trajectory(spec, 2**70) == hj_trajectory(spec, float(2**70))


def test_quantum_levels_take_a_level_index_beyond_64_bits():
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    level = quantum_levels(spec, 1.0, 2**70)
    assert math.isfinite(level) and level == quantum_levels(spec, 1.0, float(2**70))
    with pytest.raises(DomainError, match="^n must be finite"):
        quantum_levels(spec, 1.0, 10**400)


# ------------------------------------------------- derived values on the spec


def _derived_by_formula(spec):
    """q_turn, time_scale and quarter_period evaluated from the fields alone."""
    a, b = spec.alpha, spec.beta
    scale = abs_power(spec.energy, 1.0 / a + 1.0 / b - 1.0) / (
        a * b * abs_power(spec.params.d_alpha, 1.0 / a) * abs_power(spec.pot.strength, 1.0 / b)
    )
    return {
        "q_turn": turning_point(spec.pot, spec.energy),
        "time_scale": scale,
        "quarter_period": scale * beta(1.0 / b, 1.0 / a),
    }


DERIVED = ("q_turn", "time_scale", "quarter_period")


def _read(spec):
    return [getattr(spec, name) for name in DERIVED]


@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("beta_exp", [1.25, 1.75, 2.0])
@pytest.mark.parametrize("energy", [0.5, 3.0, 1e4])
def test_derived_values_are_their_formulas_bitwise(alpha, beta_exp, energy):
    spec = OscillatorSpec(FractionalParams(alpha, 0.7), PowerLawPotential(1.3, beta_exp), energy)
    expected = {name: value.hex() for name, value in _derived_by_formula(spec).items()}
    # the first read computes, the second returns what was kept; read in reverse
    # order, quarter_period derives time_scale before it is read directly
    for name in reversed(DERIVED):
        assert getattr(spec, name).hex() == expected[name]
    for name in DERIVED:
        assert getattr(spec, name).hex() == expected[name]


def test_replaced_spec_derives_its_own_values():
    spec = OscillatorSpec.from_exponents(1.5, 1.7, energy=2.0)
    before = _read(spec)
    moved = dataclasses.replace(spec, energy=5.0)
    fresh = OscillatorSpec.from_exponents(1.5, 1.7, energy=5.0)
    assert _read(moved) == _read(fresh) and _read(moved) != before
    assert period(moved) == period(fresh)


def test_equality_and_hash_ignore_what_has_been_read():
    read, unread = (OscillatorSpec.from_exponents(1.3, 1.9, energy=0.8) for _ in range(2))
    hash_before = hash(read)
    _read(read)
    assert set(DERIVED) <= set(vars(read)) and not set(DERIVED) & set(vars(unread))
    assert read == unread and hash(read) == hash(unread) == hash_before
    assert len({read, unread}) == 1


def test_pickled_spec_round_trips():
    spec = OscillatorSpec.from_exponents(1.25, 1.6, d_alpha=0.4, g2=2.5, energy=3.0)
    cold = pickle.loads(pickle.dumps(spec))
    period(spec)
    warm = pickle.loads(pickle.dumps(spec))
    assert cold == spec == warm and hash(cold) == hash(warm)
    assert _read(warm) == _read(cold)
    assert period(cold) == period(warm) == period(spec)


@pytest.mark.parametrize("name", ["energy", "params", *DERIVED])
def test_spec_fields_and_derived_values_cannot_be_assigned(name):
    spec = OscillatorSpec.from_exponents(1.5, 1.5)
    period(spec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(spec, name, 2.0)
