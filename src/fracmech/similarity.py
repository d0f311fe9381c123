"""Mechanical-similarity scaling laws and their empirical verification.

For a homogeneous potential V(rho q) = rho^beta V(q) the canonical
equations map trajectories to trajectories under q -> rho q,
t -> rho^(1 - beta + beta/alpha) t.  This module computes the exponents,
applies the map to integrated trajectories, measures landmark-to-landmark
times to confirm the time exponent, and runs the orbital special case
beta = -1 whose time exponent 2 - 1/alpha generalizes Kepler's third law
(T^alpha proportional to l^(2 alpha - 1)).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, UnsuitablePhysicsError
from .integrate import IntegratorConfig, first_event_times
from .model import (
    FractionalParams,
    InitialConditions,
    PhaseState,
    PowerLawPotential,
    abs_power,
    hamiltonian,
    velocity_from_momentum,
)
from .trajectory import Trajectory

__all__ = [
    "SimilarityExponents",
    "ScalingRow",
    "KeplerReport",
    "exponents",
    "scale_trajectory",
    "verify_scaling",
    "fractional_kepler_check",
    "kepler_gamma",
    "fit_time_exponent",
]


@dataclass(frozen=True)
class SimilarityExponents:
    """Scaling exponents relating trajectory families of one system.

    With lengths scaled by rho: times scale by rho^time_vs_length,
    velocities by rho^velocity_vs_length, energies by rho^energy_vs_length;
    time_vs_energy restates the time exponent per unit of energy ratio.
    """

    time_vs_length: float
    velocity_vs_length: float
    energy_vs_length: float
    time_vs_energy: float


def exponents(alpha: float, beta_degree: float) -> SimilarityExponents:
    """The four similarity exponents for kinetic exponent alpha and
    potential degree beta_degree."""
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (1, 2], got {alpha}")
    if beta_degree == 0.0:
        raise DomainError("potential degree must be nonzero")
    b = beta_degree
    return SimilarityExponents(
        time_vs_length=1.0 - b + b / alpha,
        velocity_vs_length=b - b / alpha,
        energy_vs_length=b,
        time_vs_energy=1.0 / alpha + 1.0 / b - 1.0,
    )


def _momentum_factor(rho: float, alpha: float, beta_degree: float) -> float:
    # velocities scale by rho^(beta - beta/alpha); through the momentum map
    # |p| ~ |qdot|^(1/(alpha-1)) this is exactly rho^(beta/alpha)
    return abs_power(rho, beta_degree / alpha)


def scale_trajectory(
    traj: Trajectory, rho: float, alpha: float, beta_degree: float
) -> Trajectory:
    """Map an integrated trajectory through the similarity transformation.

    q -> rho q, t -> rho^(1-beta+beta/alpha) t, p -> rho^(beta/alpha) p
    (equivalently: the momentum of the scaled velocity), energies scaled
    by rho^beta.  The dense output is remapped too, so the result
    interpolates exactly like a directly integrated trajectory.
    """
    if not rho > 0.0:
        raise DomainError(f"length factor must be positive, got {rho}")
    exps = exponents(alpha, beta_degree)
    lam_t = abs_power(rho, exps.time_vs_length)
    lam_p = _momentum_factor(rho, alpha, beta_degree)
    lam_e = abs_power(rho, exps.energy_vs_length)
    d = traj.dimension
    stretch = np.concatenate([np.full(d, rho), np.full(d, lam_p)])
    dense = traj.coefs is not None
    return dataclasses.replace(
        traj,
        times=traj.times * lam_t,
        positions=traj.positions * rho,
        momenta=traj.momenta * lam_p,
        energies=traj.energies * lam_e,
        coefs=traj.coefs * stretch[:, None] / lam_t if dense else None,
        widths=traj.widths * lam_t if dense else None,
    )


@dataclass(frozen=True)
class ScalingRow:
    """One scale factor's outcome: predicted vs measured landmark-time ratio."""

    rho: float
    predicted_ratio: float
    measured_ratio: float
    rel_err: float

    @classmethod
    def of(cls, rho: float, predicted: float, measured: float) -> "ScalingRow":
        return cls(rho, predicted, measured, abs(measured - predicted) / predicted)


def _scaled_ics(
    q0: np.ndarray, p0: np.ndarray, rho: float, alpha: float, beta_degree: float
) -> InitialConditions:
    return InitialConditions(
        q0=q0 * rho, p0=p0 * _momentum_factor(rho, alpha, beta_degree)
    )


def _initial_energy(
    params: FractionalParams, pot: PowerLawPotential, q0: np.ndarray, p0: np.ndarray
) -> float:
    """H(q0, p0), computed under np.errstate as ``integrate`` does, so an
    overflow is a DomainError instead of a numpy warning."""
    with np.errstate(all="ignore"):
        e0 = hamiltonian(params, pot, PhaseState(0.0, q0, p0))
    if not np.isfinite(e0):
        raise DomainError(f"non-finite initial energy {e0} at q0 = {q0}, p0 = {p0}")
    return e0


def _base_horizon(
    params: FractionalParams, pot: PowerLawPotential, q0: np.ndarray, p0: np.ndarray
) -> float:
    e0 = _initial_energy(params, pot, q0, p0)
    try:
        pot.require_oscillator()
        if e0 > 0.0:
            from .oscillator import OscillatorSpec, period

            return 1.5 * period(OscillatorSpec(params, pot, e0))
    except DomainError:
        pass
    v0 = float(np.linalg.norm(velocity_from_momentum(params, p0)))
    r0 = float(np.linalg.norm(q0))
    if v0 > 0.0 and r0 > 0.0:
        return 10.0 * r0 / v0
    return 1.0


def verify_scaling(
    params: FractionalParams,
    pot: PowerLawPotential,
    ic: InitialConditions,
    rho_list: Sequence[float],
    cfg: IntegratorConfig | None = None,
) -> list[ScalingRow]:
    """Measure landmark times across similarity-scaled copies of one motion.

    The landmark is the first turning point for confining potentials with
    degree > 1, the first origin crossing for confining degree <= 1
    (straight fall to the minimum), and the crossing of half the initial
    position for attractive potentials (plunge toward the singular
    origin, which must not be reached).  Each scaled system launches from
    rho q0 with momentum rho^(beta/alpha) p0; the measured time ratio is
    compared to rho^(1-beta+beta/alpha).
    """
    q0, p0 = ic.resolve(params)
    beta_degree = pot.degree
    t_exp = exponents(params.alpha, beta_degree).time_vs_length
    if pot.strength > 0.0 and pot.degree > 1.0:
        kind, levels = "turning_point", []
    elif pot.strength > 0.0:
        kind, levels = "origin_crossing", []
    else:
        if float(np.linalg.norm(q0)) == 0.0:
            raise DomainError("attractive-potential landmark needs q0 != 0")
        kind, levels = "custom", [(0, 0.5 * float(q0[0]))]

    def landmark_time(ic: InitialConditions, rho: float, horizon: float) -> float:
        scaled = [(c, level * rho) for c, level in levels]
        return first_event_times(
            params, pot, ic, kind, 1, horizon, cfg, runs=40, q_levels=scaled
        )[0]

    guess = _base_horizon(params, pot, q0, p0)
    base_time = landmark_time(InitialConditions(q0=q0, p0=p0), 1.0, guess)
    rows = []
    for rho in rho_list:
        if not rho > 0.0:
            raise DomainError(f"scale factors must be positive, got {rho}")
        predicted = abs_power(rho, t_exp)
        t_rho = landmark_time(
            _scaled_ics(q0, p0, rho, params.alpha, beta_degree), rho, guess * predicted * 1.5
        )
        rows.append(ScalingRow.of(rho, predicted, t_rho / base_time))
    return rows


def fit_time_exponent(rows: Sequence[ScalingRow]) -> tuple[float, float] | None:
    """Log-log fit of measured ratios vs rho: (slope, max abs residual).

    Needs at least two distinct scale factors; returns None otherwise.
    """
    rhos = [r.rho for r in rows]
    if len(set(rhos)) < 2:
        return None
    x = np.log([r.rho for r in rows])
    y = np.log([r.measured_ratio for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(slope * x + intercept - y)))
    return float(slope), resid


@dataclass(frozen=True)
class KeplerReport:
    """Radial-period scaling of similarity-mapped orbits in the plane."""

    rows: tuple[ScalingRow, ...]
    base_radial_period: float
    predicted_slope: float
    fitted_slope: float | None
    fit_residual: float | None


def fractional_kepler_check(
    alpha: float,
    ic: InitialConditions,
    rho_list: Sequence[float],
    cfg: IntegratorConfig | None = None,
    *,
    d_alpha: float = 1.0,
    strength: float = -1.0,
) -> KeplerReport:
    """Verify T^alpha ~ l^(2 alpha - 1) on similarity-scaled planar orbits.

    The potential is the attractive inverse distance (degree -1); the
    orbit scale l is the perihelion distance, which maps exactly to
    rho l under the similarity transformation, so the radial-period
    ratio must follow rho^(2 - 1/alpha).  The fitted log-log slope of
    the measured ratios is reported beside that prediction.
    """
    params = FractionalParams(alpha, d_alpha)
    if not strength < 0.0:
        raise UnsuitablePhysicsError(
            f"orbital check needs an attractive potential, got strength {strength}"
        )
    pot = PowerLawPotential(strength, -1.0)
    q0, p0 = ic.resolve(params)
    if q0.size != 2:
        raise DomainError(f"orbital check runs in the plane, got dimension {q0.size}")
    e0 = _initial_energy(params, pot, q0, p0)
    if e0 >= 0.0:
        raise UnsuitablePhysicsError(
            f"orbit is unbounded (energy {e0} >= 0); choose slower initial conditions"
        )
    angular = float(q0[0] * p0[1] - q0[1] * p0[0])
    if angular == 0.0:
        raise UnsuitablePhysicsError(
            "zero angular momentum puts the orbit on a collision course"
        )
    t_exp = 2.0 - 1.0 / alpha
    v0 = float(np.linalg.norm(velocity_from_momentum(params, p0)))
    r0 = float(np.linalg.norm(q0))

    def radial_period(ic: InitialConditions, horizon: float) -> float:
        """Time between two successive closest approaches (rising q.p zeros)."""
        peri = first_event_times(
            params, pot, ic, "custom", 2, horizon, cfg, runs=20, radial_direction=+1
        )
        return peri[1] - peri[0]

    base_T = radial_period(InitialConditions(q0=q0, p0=p0), 40.0 * r0 / v0)
    rows = []
    for rho in rho_list:
        if not rho > 0.0:
            raise DomainError(f"scale factors must be positive, got {rho}")
        predicted = abs_power(rho, t_exp)
        T_rho = radial_period(_scaled_ics(q0, p0, rho, alpha, -1.0), 3.0 * base_T * predicted)
        rows.append(ScalingRow.of(rho, predicted, T_rho / base_T))
    fit = fit_time_exponent(rows)
    slope, resid = fit if fit is not None else (None, None)
    return KeplerReport(
        rows=tuple(rows),
        base_radial_period=base_T,
        predicted_slope=t_exp,
        fitted_slope=slope,
        fit_residual=resid,
    )


def kepler_gamma(alpha: float) -> float:
    """Potential decay rate gamma for which the classical third law survives.

    For V ~ -1/|q|^gamma under kinetic exponent alpha, the time exponent
    1 + gamma - gamma/alpha equals 3/2 exactly when
    gamma = alpha / (2 (alpha - 1)); at alpha = 2 this is Newtonian
    gravity, gamma = 1.
    """
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (1, 2], got {alpha}")
    return alpha / (2.0 * (alpha - 1.0))
