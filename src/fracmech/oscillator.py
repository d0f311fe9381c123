"""Closed-form and semi-analytic machinery for the 1D power-law oscillator.

The system is H = d_alpha |p|^alpha + g2 |q|^beta with exponents in
(1, 2].  Everything here reduces to elementary harmonic-oscillator
formulas at alpha = beta = 2, which the tests use as fixed anchors.

The period carries the energy dependence T ~ E^(1/alpha + 1/beta - 1);
the numeric factor is a complete Beta function, computed three mutually
independent ways (closed form, adaptive quadrature, ODE measurement) so
any one route can audit the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, IntegrationError
from .integrate import IntegratorConfig, first_event_times
from .model import FractionalParams, InitialConditions, PowerLawPotential, abs_power, require_finite
from .model import turning_point
from .specfun import inc_beta, inv_inc_beta
from .specfun import beta as beta_fn

__all__ = [
    "OscillatorSpec",
    "PeriodReport",
    "period",
    "period_quadrature",
    "measure_period",
    "period_report",
    "hj_time_of_flight",
    "hj_position",
    "hj_trajectory",
    "quantum_levels",
    "classical_limit_solution",
]


@dataclass(frozen=True)
class OscillatorSpec:
    """A bounded 1D oscillator: kinetic params, confining potential, energy."""

    params: FractionalParams
    pot: PowerLawPotential
    energy: float

    def __post_init__(self) -> None:
        self.pot.require_oscillator()
        require_finite(energy=self.energy)
        if not self.energy > 0.0:
            raise DomainError(f"oscillator energy must be positive, got {self.energy}")

    @classmethod
    def from_exponents(
        cls,
        alpha: float,
        beta: float,
        d_alpha: float = 1.0,
        g2: float = 1.0,
        energy: float = 1.0,
    ) -> "OscillatorSpec":
        return cls(FractionalParams(alpha, d_alpha), PowerLawPotential(g2, beta), energy)

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def beta(self) -> float:
        return self.pot.degree

    # the derived values below are computed on first read and kept in the
    # instance dict (no __slots__); the fields are frozen, so they never go stale
    @cached_property
    def q_turn(self) -> float:
        return turning_point(self.pot, self.energy)

    @cached_property
    def time_scale(self) -> float:
        """Prefactor E^(1/alpha + 1/beta - 1) / (alpha beta d^(1/alpha) g2^(1/beta)).

        The time of flight to q is this times the incomplete Beta function
        at x = g2 q^beta / E; at the turning point it is the quarter period.
        """
        a, b = self.alpha, self.beta
        return abs_power(self.energy, 1.0 / a + 1.0 / b - 1.0) / (
            a
            * b
            * abs_power(self.params.d_alpha, 1.0 / a)
            * abs_power(self.pot.strength, 1.0 / b)
        )

    @cached_property
    def quarter_period(self) -> float:
        """Time from the origin to the turning point: time_scale * B(1/beta, 1/alpha)."""
        return self.time_scale * beta_fn(1.0 / self.beta, 1.0 / self.alpha)


def period(spec: OscillatorSpec) -> float:
    """Closed-form oscillation period T = 4 * spec.quarter_period."""
    return 4.0 * spec.quarter_period


def _beta_integral_quad(a: float, b: float) -> float:
    """B(a, b) = int_0^1 z^(a-1) (1-z)^(b-1) dz by QUADPACK's QAWS rule, whose
    weight moments come from recurrences, so no Gamma function is called."""
    # imported here so that importing the package (and every CLI start)
    # does not pay for scipy; only this independent cross-check needs it
    from scipy.integrate import quad

    total, err = quad(
        lambda z: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0), epsabs=1e-14, epsrel=1e-13
    )
    if err > 1e-11 * abs(total):
        raise IntegrationError(f"Beta-integral quadrature error {err:.3e} too large for a={a}, b={b}")
    return total


def period_quadrature(spec: OscillatorSpec) -> float:
    """Period with the Beta factor evaluated by adaptive quadrature.

    Same prefactor as :func:`period`; the integral route shares no code
    with the Gamma-function evaluation, so the two serve as mutual
    oracles.
    """
    return 4.0 * spec.time_scale * _beta_integral_quad(1.0 / spec.beta, 1.0 / spec.alpha)


def measure_period(
    params: FractionalParams,
    pot: PowerLawPotential,
    energy: float,
    cfg: IntegratorConfig | None = None,
) -> float:
    """Period measured from the integrated motion as the time of the first
    return to the launch state.  One open-span run starts at rest at the
    turning point (q_turn, p = 0) at t = 0 and ends on its second momentum
    zero, which is event-located; that zero's time is one full cycle."""
    spec = OscillatorSpec(params, pot, energy)  # validates the oscillator
    ic = InitialConditions(q0=[spec.q_turn], p0=[0.0])
    return first_event_times(params, pot, ic, "turning_point", 2, cfg)[1]


@dataclass(frozen=True)
class PeriodReport:
    """The three period routes side by side, with their worst disagreement."""

    closed_form: float
    quadrature: float
    ode_measured: float | None
    max_pairwise_rel_diff: float

    def __post_init__(self) -> None:
        vals = [self.closed_form, self.quadrature]
        if self.ode_measured is not None:
            vals.append(self.ode_measured)
        if not all(v > 0.0 for v in vals):
            raise DomainError("period values must be strictly positive")


def period_report(
    spec: OscillatorSpec,
    cfg: IntegratorConfig | None = None,
    include_ode: bool = True,
) -> PeriodReport:
    """Compute the period by every available route and compare."""
    closed = period(spec)
    quadr = period_quadrature(spec)
    ode = (
        measure_period(spec.params, spec.pot, spec.energy, cfg) if include_ode else None
    )
    vals = [closed, quadr] + ([ode] if ode is not None else [])
    return PeriodReport(closed, quadr, ode, (max(vals) - min(vals)) / closed)


def hj_time_of_flight(spec: OscillatorSpec, q: float) -> float:
    """Time to reach position q from the origin on the ascending quarter cycle.

    t(q) = time_scale * B_x(1/beta, 1/alpha) with x = g2 q^beta / E.
    Strictly increasing on [0, q_turn]; t(q_turn) is exactly a quarter
    period.
    """
    q_turn = spec.q_turn
    if not 0.0 <= q <= q_turn * (1.0 + 1e-12):
        raise DomainError(f"position {q} outside [0, q_turn={q_turn}]")
    x = min(spec.pot.energy(q) / spec.energy, 1.0)
    return spec.time_scale * inc_beta(1.0 / spec.beta, 1.0 / spec.alpha, x)


def hj_position(spec: OscillatorSpec, t: float) -> float:
    """Invert the time of flight: the unique q in [0, q_turn] reached at t.

    Defined for t in [0, T/4]; uses the inverse incomplete Beta, so the
    roundtrip with :func:`hj_time_of_flight` is exact to solver tolerance.
    """
    quarter = spec.quarter_period
    if not 0.0 <= t <= quarter * (1.0 + 1e-12):
        raise DomainError(f"time {t} outside the quarter period [0, {quarter}]")
    target = min(t, quarter) / spec.time_scale
    x = inv_inc_beta(1.0 / spec.beta, 1.0 / spec.alpha, target)
    return spec.q_turn * abs_power(x, 1.0 / spec.beta)


def hj_trajectory(spec: OscillatorSpec, t: float, delta: float = 0.0) -> float:
    """Position at any time, extending the quarter-period solution.

    Phase convention: q = 0 with positive velocity at t = -delta.  The
    extension reflects evenly at turning points and oddly at origin
    crossings, which is forced by the even potential and energy
    conservation; the result is periodic with the closed-form period.
    """
    full = period(spec)
    require_finite(t=t, delta=delta)  # before the sum, which a huge int overflows
    require_finite(phase=t + delta)
    quarter = 0.25 * full
    s = math.fmod(t + delta, full)
    if s < 0.0:
        s += full
    k, r = divmod(s, quarter)
    k = int(k) % 4
    q = hj_position(spec, quarter - r if k % 2 else r)
    return -q if k >= 2 else q


def quantum_levels(spec: OscillatorSpec, hbar: float, n: int) -> float:
    """Semiclassical energy levels of the quantized oscillator.

    E_n = (pi hbar beta d^(1/alpha) g2^(1/beta) / (2 B(1/beta, 1/alpha + 1)))
          ^ (alpha beta / (alpha + beta)) * (n + 1/2)^(alpha beta / (alpha + beta)).

    The spacing E_(n+1) - E_n is constant exactly when the exponent
    alpha beta / (alpha + beta) equals 1, i.e. alpha = beta = 2; for
    fractional exponents the levels crowd together as n grows, mirroring
    the energy dependence of the classical period.
    """
    require_finite(hbar=hbar, n=n)
    if not hbar > 0.0:
        raise DomainError(f"hbar must be positive, got {hbar}")
    if n < 0 or n != int(n):
        raise DomainError(f"level index must be a nonnegative integer, got {n}")
    a, b = spec.alpha, spec.beta
    exponent = a * b / (a + b)
    base = (
        math.pi
        * hbar
        * b
        * abs_power(spec.params.d_alpha, 1.0 / a)
        * abs_power(spec.pot.strength, 1.0 / b)
        / (2.0 * beta_fn(1.0 / b, 1.0 / a + 1.0))
    )
    return abs_power(base, exponent) * abs_power(n + 0.5, exponent)


def classical_limit_solution(
    energy: float, mass: float, g: float, delta: float, t: float
) -> float:
    """Harmonic-limit trajectory q(t) = sqrt(2E/(m w^2)) sin(w (t + delta)).

    The frequency is w = sqrt(2/m) g, matching the alpha = beta = 2
    oscillator with strength g^2; the amplitude equals the turning point.
    """
    require_finite(energy=energy, mass=mass, g=g, delta=delta, t=t)
    if not (energy > 0.0 and mass > 0.0 and g > 0.0):
        raise DomainError("classical limit needs positive energy, mass and g")
    omega = math.sqrt(2.0 / mass) * g
    amplitude = math.sqrt(2.0 * energy / mass) / omega
    return amplitude * math.sin(omega * (t + delta))
