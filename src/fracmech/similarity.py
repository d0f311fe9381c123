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
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, UnsuitablePhysicsError
from .integrate import IntegratorConfig, first_event_times
from .model import (
    FractionalParams,
    InitialConditions,
    PowerLawPotential,
    _dot,
    _energy,
    abs_power,
    require_finite,
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
    require_finite(beta_degree=beta_degree)
    if beta_degree == 0.0:
        raise DomainError("potential degree must be nonzero")
    b = beta_degree
    return SimilarityExponents(
        time_vs_length=1.0 - b + b / alpha,
        velocity_vs_length=b - b / alpha,
        energy_vs_length=b,
        time_vs_energy=1.0 / alpha + 1.0 / b - 1.0,
    )


def _require_scale_factors(rho_list: Sequence[float]) -> None:
    """Raise DomainError on the first scale factor that is not finite and positive."""
    for rho in rho_list:
        if not 0.0 < rho < math.inf:
            raise DomainError(f"scale factors must be finite and positive, got {rho}")


def scale_trajectory(
    traj: Trajectory, rho: float, alpha: float, beta_degree: float
) -> Trajectory:
    """Map an integrated trajectory through the similarity transformation.

    q -> rho q, t -> rho^(1-beta+beta/alpha) t, p -> rho^(beta/alpha) p
    (equivalently: the momentum of the scaled velocity), energies scaled
    by rho^beta.  The dense output is remapped too, so the result
    interpolates exactly like a directly integrated trajectory.
    """
    _require_scale_factors([rho])
    exps = exponents(alpha, beta_degree)
    lam_t = abs_power(rho, exps.time_vs_length)
    lam_p = abs_power(rho, beta_degree / alpha)  # momentum of the velocity times rho^(beta - beta/alpha)
    lam_e = abs_power(rho, exps.energy_vs_length)
    d = traj.dimension
    stretch = np.concatenate([np.full(d, rho), np.full(d, lam_p)])
    with np.errstate(all="ignore"):  # the constructor refuses what overflows
        return dataclasses.replace(
            traj,
            times=traj.times * lam_t,
            positions=traj.positions * rho,
            momenta=traj.momenta * lam_p,
            energies=traj.energies * lam_e,
            coefs=traj.coefs * stretch[:, None] / lam_t,
            widths=traj.widths * lam_t,
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


def _scaling_rows(
    measure: Callable[[InitialConditions, float], float], q0: np.ndarray, p0: np.ndarray,
    rho_list: Sequence[float], alpha: float, beta_degree: float,
) -> tuple[float, list[ScalingRow]]:
    """measure(ic, rho) of the motion from (q0, p0) and of its copy scaled by each
    rho, launched from rho q0 with momentum rho^(beta/alpha) p0: the base time,
    and one row per rho against the predicted ratio rho^time_vs_length.  At
    rho = 1 the copy is the base motion itself, so its row reuses the base."""
    t_exp = exponents(alpha, beta_degree).time_vs_length
    base = measure(InitialConditions(q0=q0, p0=p0), 1.0)
    rows = []
    for rho in rho_list:
        predicted = abs_power(rho, t_exp)
        if rho == 1.0:
            rows.append(ScalingRow.of(rho, predicted, 1.0))
            continue
        with np.errstate(all="ignore"):
            q, p = q0 * rho, p0 * abs_power(rho, beta_degree / alpha)
        require_finite(scaled_q0=q, scaled_p0=p)
        rows.append(ScalingRow.of(rho, predicted, measure(InitialConditions(q0=q, p0=p), rho) / base))
    return base, rows


def _initial_energy(
    params: FractionalParams, pot: PowerLawPotential, q0: np.ndarray, p0: np.ndarray
) -> float:
    """H(q0, p0), where a non-finite energy is a DomainError."""
    e0 = float(_energy(params, pot, q0, p0))
    if not np.isfinite(e0):
        raise DomainError(f"non-finite initial energy {e0} at q0 = {q0}, p0 = {p0}")
    return e0


def verify_scaling(
    params: FractionalParams,
    pot: PowerLawPotential,
    ic: InitialConditions,
    rho_list: Sequence[float],
    cfg: IntegratorConfig | None = None,
) -> list[ScalingRow]:
    """Measure landmark times across similarity-scaled copies of one motion.

    The landmark is the first turning point for confining potentials with
    degree > 1, and otherwise the crossing of half the initial position
    q0[0] (a fall toward the minimum or a plunge toward the singular
    origin, neither of which must reach the origin, where the force of
    degree < 1 is singular).  Each scaled system launches from rho q0 with
    momentum rho^(beta/alpha) p0 and runs until its landmark; the measured
    time ratio is compared to rho^(1-beta+beta/alpha).
    """
    q0, p0 = ic.resolve(params)
    if pot.strength > 0.0 and pot.degree > 1.0:
        kind, levels = "turning_point", []
    elif q0[0] == 0.0:
        raise DomainError("the half-position landmark needs q0[0] != 0")
    else:
        kind, levels = "custom", [(0, 0.5 * float(q0[0]))]

    def landmark_time(ic: InitialConditions, rho: float) -> float:
        scaled = [(c, level * rho) for c, level in levels]
        return first_event_times(params, pot, ic, kind, 1, cfg, q_levels=scaled)[0]

    _require_scale_factors(rho_list)
    _initial_energy(params, pot, q0, p0)  # a non-finite energy is a DomainError
    return _scaling_rows(landmark_time, q0, p0, rho_list, params.alpha, pot.degree)[1]


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
    _require_scale_factors(rho_list)
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
    # The circle of angular momentum L has radius r_g, k r_g^(alpha-1) = alpha D |L|^alpha, and the
    # least energy at this L, E_c = D (|L|/r_g)^alpha - k/r_g = -(1 - 1/alpha) k/r_g.  Near it q.p is
    # noise: the slope error grew as ~1e-11/sqrt(gap) at alpha 1.3-2 (6.1e-2 at gap 0): 1e-5 at the bound.
    k = -strength
    r_g = abs_power(alpha * d_alpha * abs_power(angular, alpha) / k, 1.0 / (alpha - 1.0))
    gap = 1.0 + e0 * r_g / ((1.0 - 1.0 / alpha) * k)  # (E - E_c)/|E_c|, 1 where r_g underflows
    if gap < 1e-12:
        raise UnsuitablePhysicsError(
            f"orbit is circular: its energy lies {gap:.2e} (relative) above the circular minimum for its "
            "angular momentum, under the bound 1e-12, so q.p is rounding noise with no radial period to time"
        )

    def radial_period(ic: InitialConditions, rho: float) -> float:
        """One radial period, timed over zeros of q.p of either direction: from an
        apsis (q.p = 0, a zero the run does not count) to its 2nd zero, the first
        return to that apsis; otherwise from its 1st zero to its 3rd."""
        q, p = ic.resolve(params)
        at_apsis = _dot(q.tolist(), p.tolist()) == 0.0  # the run's own q.p at t = 0
        zeros = first_event_times(params, pot, ic, "custom", 3 - at_apsis, cfg, radial_direction=0)
        return zeros[-1] - (0.0 if at_apsis else zeros[0])

    base_T, rows = _scaling_rows(radial_period, q0, p0, rho_list, alpha, -1.0)
    fit = fit_time_exponent(rows)
    slope, resid = fit if fit is not None else (None, None)
    return KeplerReport(
        rows=tuple(rows),
        base_radial_period=base_T,
        predicted_slope=exponents(alpha, -1.0).time_vs_length,
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
