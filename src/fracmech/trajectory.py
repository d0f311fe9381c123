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
from .model import FractionalParams, PhaseState, PowerLawPotential, _power_law, require_finite

__all__ = ["DenseSegment", "Trajectory", "action"]

_DEGREES = np.arange(1.0, 5.0)


def _quartic(coef: np.ndarray, theta, derivative: bool = False) -> np.ndarray:
    """coef @ [theta, theta^2, theta^3, theta^4], or with ``derivative`` its
    theta-derivative coef @ [1, 2 theta, 3 theta^2, 4 theta^3]; the leading
    axes of coef, shape (..., 2d, 4), broadcast against those of theta; a
    float theta takes the matrix-vector product (the same bits, less overhead)."""
    th = theta if isinstance(theta, float) else np.asarray(theta)[..., None]
    basis = _DEGREES * th ** (_DEGREES - 1.0) if derivative else th**_DEGREES
    return coef.dot(basis) if basis.ndim == 1 else (coef @ basis[..., None])[..., 0]


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


@dataclass(frozen=True)
class Trajectory:
    """Ordered phase-space samples plus interpolation and step accounting.

    times: shape (n,), strictly increasing
    positions, momenta: shape (n, d)
    energies: shape (n,), the Hamiltonian at each sample
    coefs: shape (n - 1, 2d, 4), the dense-output quartic of each step
    widths: shape (n - 1,), each step's length; step i covers
        [times[i], times[i] + widths[i]] and ends at sample i + 1, also
        on a run stopped at an event, which cuts its last step there
    A single sample spans no step and passes them empty.  Every array is finite.
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
        require_finite(**vars(self))  # the arrays in field order, before times are differenced
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise DomainError("trajectory times must be strictly increasing")
        if np.shape(self.coefs) != (n - 1, 2 * self.dimension, 4) or np.shape(self.widths) != (n - 1,):
            raise DomainError("dense output needs one quartic and one width per step")
        # the samples as stacked (q, p) rows, the layout of a step's quartic
        object.__setattr__(self, "_rows", np.hstack([self.positions, self.momenta]))

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
        return DenseSegment(float(self.times[i]), float(self.widths[i]), self._rows[i].copy(), self.coefs[i])

    def _step_at(self, t: float) -> tuple[int, float, float]:
        """The step holding time t, its width and the fraction theta of it
        elapsed.  t may stray from its step by 1e-9 of its width; the step ends
        at times[i + 1], which rescaling may round off times[i] + widths[i]."""
        times = self.times
        if len(times) == 1 and t == times[0]:
            raise DomainError(f"a lone sample holds no step, not even at its own time {t}")
        i = min(max(int(times.searchsorted(t, "right")) - 1, 0), len(times) - 2)
        w = float(self.widths[i]) if i >= 0 else np.nan  # a lone sample's span is its time alone
        theta, theta_end = (t - float(times[i])) / w, (float(times[i + 1]) - float(times[i])) / w
        if not -1e-9 <= theta <= theta_end + 1e-9:
            raise DomainError(f"time {t} outside trajectory span [{self.t0}, {self.t_end}]")
        return i, w, min(max(theta, 0.0), 1.0)

    def eval(self, t: float) -> PhaseState:
        """The state at time t, in DenseSegment.at's arithmetic on the step holding t;
        a lone sample, at its own time, is its own state."""
        if len(self.times) == 1 and t == self.t0:
            return self.state(0)
        i, w, theta = self._step_at(t)
        return PhaseState._of_row(float(t), self._rows[i] + w * _quartic(self.coefs[i], theta))

    def derivative(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        i, _, theta = self._step_at(t)
        dy, d = _quartic(self.coefs[i], theta, derivative=True), self.dimension
        return dy[:d], dy[d:]

    def _drifts(self) -> np.ndarray:
        """Relative deviation of each sample's energy from the initial energy."""
        e0 = float(self.energies[0])
        return np.abs(self.energies - e0) / max(abs(e0), 1e-300)

    def energy_drift(self) -> float:
        """Largest relative deviation of sampled energy from the initial energy."""
        return float(np.max(self._drifts()))


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

    Along the solution qdot = dH/dp, so the Legendre identity
    L = p.qdot - H, with H = T + V and p.qdot = alpha T for
    T = d_alpha |p|^alpha, gives the on-shell Lagrangian
    L = (alpha - 1) T(p) - V(q), evaluated at every node in one pass.

    Each dense segment is integrated by 8-point Gauss-Legendre; the
    estimate is refined by halving and the difference reported as the
    quadrature error.  Warns when that error exceeds quad_tol, which means
    the stored step data is too coarse for the requested accuracy.
    """
    d = traj.dimension
    y_start = traj._rows[:-1]
    widths = traj.widths
    # states at every node of every step: shape (steps, nodes, 2d)
    ys = y_start[:, None] + widths[:, None, None] * _quartic(traj.coefs[:, None], _NODES)
    lag = (params.alpha - 1.0) * _power_law(params.d_alpha, params.alpha, ys[..., d:])
    lag = lag - _power_law(pot.strength, pot.degree, ys[..., :d])
    lag = lag.reshape(len(widths), 3, len(_GL_W)) @ _GL_W
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
