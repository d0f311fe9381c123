"""Trajectory containers with dense output, and the action functional.

A Trajectory is the ordered record an integration run produces: phase-space
samples with per-sample energy, plus the quartic interpolant of every
accepted step, held as arrays, so states can be evaluated anywhere inside
the span.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceWarning
from .model import (
    FractionalParams,
    PhaseState,
    PowerLawPotential,
    lagrangian,
    velocity_from_momentum,
)

__all__ = ["DenseSegment", "Trajectory", "action"]

_DEGREES = np.arange(1.0, 5.0)


def _quartic(coef: np.ndarray, theta, derivative: bool = False) -> np.ndarray:
    """coef @ [theta, theta^2, theta^3, theta^4], or with ``derivative`` its
    theta-derivative coef @ [1, 2 theta, 3 theta^2, 4 theta^3]; the leading
    axes of coef, shape (..., 2d, 4), broadcast against those of theta."""
    th = np.asarray(theta)[..., None]
    basis = _DEGREES * th ** (_DEGREES - 1.0) if derivative else th**_DEGREES
    return (coef @ basis[..., None])[..., 0]


def _theta(t: float, t_start: float, width: float) -> float:
    """Fraction of the step [t_start, t_start + width] elapsed at time t."""
    theta = (t - t_start) / width
    if not -1e-9 <= theta <= 1.0 + 1e-9:
        raise DomainError(f"time {t} outside segment [{t_start}, {t_start + width}]")
    return min(max(theta, 0.0), 1.0)


@dataclass(frozen=True)
class DenseSegment:
    """Quartic dense-output polynomial for one accepted step.

    Over t in [t_start, t_start + width] the stacked state vector is
    y(theta) = y_start + width * coef @ [theta, theta^2, theta^3, theta^4]
    with theta = (t - t_start) / width.
    """

    t_start: float
    width: float
    y_start: np.ndarray
    coef: np.ndarray  # shape (len(y_start), 4)

    @property
    def t_end(self) -> float:
        return self.t_start + self.width

    def at(self, theta: float) -> np.ndarray:
        """State at the fraction theta in [0, 1] of the step."""
        return self.y_start + self.width * _quartic(self.coef, theta)

    def eval(self, t: float) -> np.ndarray:
        return self.at(_theta(t, self.t_start, self.width))

    def eval_derivative(self, t: float) -> np.ndarray:
        return _quartic(self.coef, _theta(t, self.t_start, self.width), derivative=True)


@dataclass(frozen=True)
class Trajectory:
    """Ordered phase-space samples plus interpolation and step accounting.

    times: shape (n,), strictly increasing
    positions, momenta: shape (n, d)
    energies: shape (n,), the Hamiltonian at each sample
    coefs: shape (n - 1, 2d, 4), the dense-output quartic of each step
    widths: shape (n - 1,), each step's length; step i starts at sample i
        and covers [times[i], times[i] + widths[i]], which for the last
        step of a run stopped at an event reaches past times[-1]
    coefs and widths are None for a trajectory without dense output.
    """

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    energies: np.ndarray
    coefs: np.ndarray | None = None
    widths: np.ndarray | None = None
    accepted_steps: int = 0
    rejected_steps: int = 0

    def __post_init__(self) -> None:
        n = len(self.times)
        if n == 0:
            raise DomainError("trajectory needs at least one sample")
        if self.positions.shape != self.momenta.shape or self.positions.shape[0] != n:
            raise DomainError("trajectory arrays have inconsistent shapes")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise DomainError("trajectory times must be strictly increasing")
        if (self.coefs is None) != (self.widths is None) or (
            self.coefs is not None and (len(self.coefs), len(self.widths)) != (n - 1, n - 1)
        ):
            raise DomainError("dense output needs one quartic and one width per step")

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def samples(self) -> list[tuple[PhaseState, float]]:
        return [(self.state(i), float(self.energies[i])) for i in range(len(self.times))]

    def state(self, i: int) -> PhaseState:
        return PhaseState(float(self.times[i]), self.positions[i], self.momenta[i])

    def segment(self, i: int) -> DenseSegment:
        """The dense-output interpolant of step i."""
        y_start = np.concatenate([self.positions[i], self.momenta[i]])
        return DenseSegment(float(self.times[i]), float(self.widths[i]), y_start, self.coefs[i])

    def _segment_at(self, t: float) -> DenseSegment:
        if self.coefs is None or len(self.coefs) == 0:
            raise DomainError("trajectory has no dense segments to interpolate")
        lo, hi = self.t0, self.t_end
        slop = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not lo - slop <= t <= hi + slop:
            raise DomainError(f"time {t} outside trajectory span [{lo}, {hi}]")
        i = int(self.times.searchsorted(t, side="right")) - 1
        return self.segment(min(max(i, 0), len(self.coefs) - 1))

    def eval(self, t: float) -> PhaseState:
        y = self._segment_at(t).eval(t)
        d = self.dimension
        return PhaseState(float(t), y[:d], y[d:])

    def derivative(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        dy = self._segment_at(t).eval_derivative(t)
        d = self.dimension
        return dy[:d].copy(), dy[d:].copy()

    def energy_drift(self) -> float:
        """Largest relative deviation of sampled energy from the initial energy."""
        e0 = float(self.energies[0])
        scale = max(abs(e0), 1e-300)
        return float(np.max(np.abs(self.energies - e0)) / scale)


# 8-point Gauss-Legendre on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W
# the rule on a whole step, then on its first and its second half
_NODES = np.concatenate([_GL_X, 0.5 * _GL_X, 0.5 + 0.5 * _GL_X])


def action(
    params: FractionalParams,
    pot: PowerLawPotential,
    traj: Trajectory,
    quad_tol: float = 1e-9,
) -> float:
    """Integral of the Lagrangian along the trajectory's dense output.

    Each dense segment is integrated by 8-point Gauss-Legendre; the
    estimate is refined by halving and the difference reported as the
    quadrature error.  Warns when that error exceeds quad_tol, which means
    the stored step data is too coarse for the requested accuracy.
    """
    if traj.coefs is None or len(traj.coefs) == 0:
        return 0.0
    d = traj.dimension
    y_start = np.hstack([traj.positions[:-1], traj.momenta[:-1]])
    widths = traj.widths
    # states at every node of every step: shape (steps, nodes, 2d)
    ys = y_start[:, None] + widths[:, None, None] * _quartic(traj.coefs[:, None], _NODES)
    lag = [lagrangian(params, pot, y[:d], velocity_from_momentum(params, y[d:]))
           for y in ys.reshape(-1, 2 * d)]
    lag = np.reshape(lag, (len(widths), 3, len(_GL_W))) @ _GL_W
    coarse = widths * lag[:, 0]
    fine = 0.5 * widths * (lag[:, 1] + lag[:, 2])
    total = float(np.sum(fine))
    err = float(np.sum(np.abs(fine - coarse)))
    if err > quad_tol * max(1.0, abs(total)):
        warnings.warn(
            f"action quadrature error estimate {err:.3e} exceeds tolerance {quad_tol:.3e}",
            ToleranceWarning,
            stacklevel=2,
        )
    return total
