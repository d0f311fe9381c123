"""Domain types and pointwise evaluators for power-law Hamiltonian mechanics.

The mechanical model is H = d_alpha * |p|^alpha + V(q) with a fractional
kinetic exponent 1 < alpha <= 2 and a power-law potential
V(q) = strength * |q|^degree.  At alpha = 2 and d_alpha = 1/(2m) everything
reduces to Newtonian mechanics for a particle of mass m.

All quantities are plain floats in a consistent unit system chosen by the
caller (the natural choice is CGS, where d_alpha carries units
erg^(1-alpha) cm^alpha s^(-alpha)); nothing tracks units at runtime.
Vectors with one to three components are supported; the kinetic term is
isotropic, so vector forms use unit vectors q/|q| and p/|p| where the 1D
equations use the sign function, with sgn(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "FractionalParams",
    "PowerLawPotential",
    "PhaseState",
    "InitialConditions",
    "abs_power",
    "hamiltonian",
    "lagrangian",
    "momentum_from_velocity",
    "velocity_from_momentum",
    "hamilton_rhs",
    "euler_lagrange_residual",
    "turning_point",
    "free_particle_trajectory",
    "poisson_bracket",
    "total_time_derivative",
]

PhaseField = Callable[["PhaseState"], float]


def abs_power(x: float, k: float) -> float:
    """|x|**k with an explicit guard at x = 0.

    Fractional exponents of signed quantities appear throughout the model;
    raising a negative float to a non-integer power is a domain error in
    ``math.pow``, so every power in this package goes through the absolute
    value.  At x = 0 the result is 0 for k > 0 and 1 for k = 0; k < 0 is a
    genuine singularity and raises, as does a result beyond the float range.
    """
    m = abs(x)
    if m == 0.0:
        if k > 0.0:
            return 0.0
        if k == 0.0:
            return 1.0
        raise DomainError(f"0 raised to negative power {k}")
    try:
        return m ** k
    except OverflowError:
        raise DomainError(f"|{x}| ** {k} overflows the float range") from None


def _vec(x, name: str = "vector") -> np.ndarray:
    """Coerce scalars / sequences to a 1..3 component float vector."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or not 1 <= v.size <= 3:
        raise DomainError(f"{name} must have 1 to 3 components, got shape {v.shape}")
    return v


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(np.dot(v, v)))


def require_finite(**values) -> None:
    """Raise DomainError naming the first keyword value with an inf or NaN."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise DomainError(f"{name} must be finite, got {value}")


def _kinetic(alpha: float, d_alpha: float, p: np.ndarray) -> np.ndarray:
    """T = d_alpha |p|^alpha over the last axis of p; its gradient is _velocity."""
    return d_alpha * np.sqrt(np.sum(p * p, axis=-1)) ** alpha


def _potential(strength: float, degree: float, q: np.ndarray) -> np.ndarray:
    """V = strength |q|^degree over the last axis of q; its negated gradient
    is _force.  Singular at q = 0 for degree < 0, which raises."""
    n = np.sqrt(np.sum(q * q, axis=-1))
    if degree < 0.0 and np.any(n == 0.0):
        raise DomainError("potential is singular at q = 0 for negative degree")
    return strength * n**degree


def _velocity(alpha: float, d_alpha: float, p: np.ndarray) -> np.ndarray:
    """qdot = alpha d_alpha |p|^(alpha-1) p/|p|, continuously extended to 0
    at p = 0 (valid because alpha > 1)."""
    n = _norm(p)
    if n == 0.0:
        return np.zeros_like(p)
    return alpha * d_alpha * abs_power(n, alpha - 2.0) * p


def _force(strength: float, degree: float, q: np.ndarray) -> np.ndarray:
    """pdot = -dV/dq = -strength degree |q|^(degree-1) q/|q|; 0 at q = 0
    for degree > 1, where degree <= 1 has no continuous force and raises."""
    n = _norm(q)
    if n == 0.0:
        if degree > 1.0:
            return np.zeros_like(q)
        raise DomainError(f"force is undefined at q = 0 for degree {degree} <= 1")
    return -strength * degree * abs_power(n, degree - 2.0) * q


@dataclass(frozen=True)
class FractionalParams:
    """Kinetic-term parameters: exponent ``alpha`` in (1, 2] and scale
    ``d_alpha`` > 0 of the kinetic energy d_alpha * |p|^alpha."""

    alpha: float
    d_alpha: float

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if not (1.0 < self.alpha <= 2.0):
            raise DomainError(f"alpha must be in (1, 2], got {self.alpha}")
        if not self.d_alpha > 0.0:
            raise DomainError(f"d_alpha must be positive, got {self.d_alpha}")

    @classmethod
    def from_mass(cls, mass: float) -> "FractionalParams":
        """Classical limit alpha = 2 with d_alpha = 1/(2 mass)."""
        if not mass > 0.0:
            raise DomainError(f"mass must be positive, got {mass}")
        return cls(alpha=2.0, d_alpha=1.0 / (2.0 * mass))


@dataclass(frozen=True)
class PowerLawPotential:
    """Homogeneous potential V(q) = strength * |q|^degree.

    ``strength`` is signed: positive for confining wells, negative for
    attractive potentials such as the inverse-distance strength = -k,
    degree = -1.  Oscillator use sites additionally require strength > 0
    and 1 < degree <= 2; see :meth:`require_oscillator`.
    """

    strength: float
    degree: float

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if self.degree == 0.0:
            raise DomainError("potential degree must be nonzero")

    def energy(self, q) -> float:
        """V(q) = strength * |q|^degree; singular at the origin for degree < 0."""
        return float(_potential(self.strength, self.degree, _vec(q, "q")))

    def gradient(self, q) -> np.ndarray:
        """dV/dq = strength * degree * |q|^(degree-1) * q/|q|, the negated
        force; degree <= 1 has no continuous gradient at q = 0 and raises."""
        return -_force(self.strength, self.degree, _vec(q, "q"))

    def require_oscillator(self) -> None:
        """Check the bounded-oscillator constraints strength > 0, 1 < degree <= 2."""
        if not self.strength > 0.0:
            raise DomainError(
                f"oscillator potential needs strength > 0, got {self.strength}"
            )
        if not (1.0 < self.degree <= 2.0):
            raise DomainError(
                f"oscillator potential needs degree in (1, 2], got {self.degree}"
            )


@dataclass(frozen=True)
class PhaseState:
    """A point (t, q, p) in extended phase space; q and p share one
    dimension d in {1, 2, 3}."""

    t: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        q = _vec(self.q, "q")
        p = _vec(self.p, "p")
        if q.shape != p.shape:
            raise DomainError(f"q and p dimensions differ: {q.shape} vs {p.shape}")
        q.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dimension(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class InitialConditions:
    """Initial position plus exactly one of momentum or velocity.

    A velocity is converted to the conjugate momentum through the
    momentum-velocity relation, so either parametrization launches the
    same trajectory.
    """

    q0: np.ndarray
    p0: np.ndarray | None = None
    qdot0: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "q0", _vec(self.q0, "q0"))
        if (self.p0 is None) == (self.qdot0 is None):
            raise DomainError("supply exactly one of p0 and qdot0")
        if self.p0 is not None:
            object.__setattr__(self, "p0", _vec(self.p0, "p0"))
        if self.qdot0 is not None:
            object.__setattr__(self, "qdot0", _vec(self.qdot0, "qdot0"))
        require_finite(q0=self.q0, p0=self.p0, qdot0=self.qdot0)

    def resolve(self, params: FractionalParams) -> tuple[np.ndarray, np.ndarray]:
        """Return (q0, p0), converting a supplied velocity if needed."""
        if self.p0 is not None:
            p0 = self.p0
        else:
            p0 = momentum_from_velocity(params, self.qdot0)
        if p0.shape != self.q0.shape:
            raise DomainError("initial momentum/velocity dimension must match q0")
        return self.q0.copy(), np.asarray(p0, dtype=float)


def hamiltonian(params: FractionalParams, pot: PowerLawPotential, state: PhaseState) -> float:
    """Total energy d_alpha * |p|^alpha + V(q); conserved along trajectories."""
    return float(_kinetic(params.alpha, params.d_alpha, _vec(state.p, "p"))) + pot.energy(state.q)


def lagrangian(params: FractionalParams, pot: PowerLawPotential, q, qdot) -> float:
    """Lagrangian L(qdot, q) conjugate to the fractional Hamiltonian.

    L = (1/(alpha d_alpha))^(1/(alpha-1)) * (alpha-1)/alpha
        * |qdot|^(alpha/(alpha-1)) - V(q).
    """
    a, d = params.alpha, params.d_alpha
    n = _norm(_vec(qdot, "qdot"))
    coeff = abs_power(1.0 / (a * d), 1.0 / (a - 1.0)) * (a - 1.0) / a
    return coeff * abs_power(n, a / (a - 1.0)) - pot.energy(q)


def momentum_from_velocity(params: FractionalParams, qdot) -> np.ndarray:
    """Invert the velocity relation: |p| = (1/(alpha d_alpha))^(1/(alpha-1))
    * |qdot|^(1/(alpha-1)), direction preserved; p = 0 at qdot = 0."""
    a, d = params.alpha, params.d_alpha
    v = _vec(qdot, "qdot")
    n = _norm(v)
    if n == 0.0:
        return np.zeros_like(v)
    coeff = abs_power(1.0 / (a * d), 1.0 / (a - 1.0))
    return coeff * abs_power(n, 1.0 / (a - 1.0) - 1.0) * v


def velocity_from_momentum(params: FractionalParams, p) -> np.ndarray:
    """qdot = alpha d_alpha |p|^(alpha-1) p/|p|, continuously extended to 0
    at p = 0 (valid because alpha > 1)."""
    return _velocity(params.alpha, params.d_alpha, _vec(p, "p"))


def phase_field(params: FractionalParams, pot: PowerLawPotential, y: np.ndarray) -> np.ndarray:
    """(qdot, pdot) at the stacked state y = (q, p), stacked the same way:
    the canonical equations as the integrator steps them."""
    d = y.size // 2
    return np.concatenate(
        [_velocity(params.alpha, params.d_alpha, y[d:]), _force(pot.strength, pot.degree, y[:d])]
    )


def hamilton_rhs(
    params: FractionalParams, pot: PowerLawPotential, state: PhaseState
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (qdot, pdot) of the canonical equations of motion.

    qdot = alpha d_alpha |p|^(alpha-1) p/|p|;
    pdot = -strength * degree * |q|^(degree-1) q/|q|  (-dV/dq),
    with both unit-vector factors replaced by 0 at the origin of their
    argument.  The force is singular or discontinuous at q = 0 when
    degree <= 1, which is a domain error there.
    """
    return velocity_from_momentum(params, state.p), _force(pot.strength, pot.degree, state.q)


def euler_lagrange_residual(
    params: FractionalParams, pot: PowerLawPotential, q: float, qdot: float, qddot: float
) -> float:
    """Left-hand side of the second-order (Lagrangian-form) motion equation, 1D.

    residual = (1/(alpha d_alpha))^(1/(alpha-1)) / (alpha-1)
               * qddot * |qdot|^((2-alpha)/(alpha-1)) + dV/dq,
    which vanishes along true trajectories.  The kinematic factor is
    singular at qdot = 0 for alpha < 2 (turning points), so that point is
    rejected; at alpha = 2 the factor is 1 and the residual reduces to
    m qddot + dV/dq.
    """
    a, d = params.alpha, params.d_alpha
    if qdot == 0.0 and a < 2.0:
        raise DomainError("kinematic factor singular at qdot = 0 for alpha < 2")
    coeff = abs_power(1.0 / (a * d), 1.0 / (a - 1.0)) / (a - 1.0)
    kinematic = coeff * qddot * abs_power(qdot, (2.0 - a) / (a - 1.0))
    grad = float(pot.gradient(np.array([q]))[0])
    return kinematic + grad


def turning_point(pot: PowerLawPotential, energy: float) -> float:
    """Distance |q| where V(q) = E for a confining power law: (E/strength)^(1/degree)."""
    if not (energy > 0.0 and pot.strength > 0.0 and pot.degree > 0.0):
        raise DomainError(
            "turning point needs energy > 0, strength > 0 and degree > 0"
        )
    return abs_power(energy / pot.strength, 1.0 / pot.degree)


def free_particle_trajectory(
    params: FractionalParams, energy: float, delta: float, t: float
) -> tuple[float, float]:
    """Analytic free-particle motion at energy E > 0 (1D, moving right).

    q(t) = alpha d_alpha (E/d_alpha)^(1-1/alpha) (t + delta),
    p    = (E/d_alpha)^(1/alpha), constant.
    """
    if not energy > 0.0:
        raise DomainError(f"free-particle trajectory needs energy > 0, got {energy}")
    a, d = params.alpha, params.d_alpha
    p = abs_power(energy / d, 1.0 / a)
    q = a * d * abs_power(energy / d, 1.0 - 1.0 / a) * (t + delta)
    return q, p


def _with_component(state: PhaseState, which: str, i: int, value: float) -> PhaseState:
    q, p, t = state.q.copy(), state.p.copy(), state.t
    if which == "t":
        t = value
    else:
        (q if which == "q" else p)[i] = value
    return PhaseState(t=t, q=q, p=p)


def _partial(f: PhaseField, state: PhaseState, which: str, i: int, step: float) -> float:
    """Central-difference partial derivative of a phase-space field."""
    x = state.t if which == "t" else float(getattr(state, which)[i])
    h = step * max(1.0, abs(x))
    hi = f(_with_component(state, which, i, x + h))
    lo = f(_with_component(state, which, i, x - h))
    return (hi - lo) / (2.0 * h)


def poisson_bracket(
    u: PhaseField, v: PhaseField, state: PhaseState, step: float = 1e-6
) -> float:
    """{u, v} = sum_i (du/dp_i)(dv/dq_i) - (du/dq_i)(dv/dp_i).

    Note the ordering: with this sign convention {H, q} = dH/dp = qdot and
    {H, p} = -dH/dq = pdot.  Derivatives are central differences with step
    h = step * max(1, |x|) per component.
    """
    total = 0.0
    for i in range(state.dimension):
        du_dp = _partial(u, state, "p", i, step)
        dv_dq = _partial(v, state, "q", i, step)
        du_dq = _partial(u, state, "q", i, step)
        dv_dp = _partial(v, state, "p", i, step)
        total += du_dp * dv_dq - du_dq * dv_dp
    return total


def total_time_derivative(
    f: PhaseField,
    params: FractionalParams,
    pot: PowerLawPotential,
    state: PhaseState,
    step: float = 1e-6,
) -> float:
    """df/dt along the flow: df/dt = df/dt|_explicit + {H, f}."""

    def h_field(s: PhaseState) -> float:
        return hamiltonian(params, pot, s)

    df_dt = _partial(f, state, "t", 0, step)
    return df_dt + poisson_bracket(h_field, f, state, step)
