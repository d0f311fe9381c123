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
from typing import Callable, Sequence

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
    try:
        m = abs(x)
        if m == 0.0:
            if k > 0.0:
                return 0.0
            if k == 0.0:
                return 1.0
            raise DomainError(f"0 raised to negative power {k}")
        return m ** k
    except OverflowError:
        raise DomainError(f"|{x}| ** {k} overflows the float range") from None
    except TypeError:  # not a number: the rule names which argument, off the hot path
        require_finite(x=x, k=k)
        raise


def _vec(x, name: str = "vector") -> np.ndarray:
    """A finite real scalar / sequence (require_finite's rule) as a 1..3 component float vector."""
    v = np.atleast_1d(x)
    require_finite(**{name: v})
    if v.ndim != 1 or not 1 <= v.size <= 3:
        raise DomainError(f"{name} must have 1 to 3 components, got shape {v.shape}")
    return v.astype(float, copy=False)


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """Sum of products over plain floats, added in component order."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def require_finite(**values) -> None:
    """The one type rule at the input edge: raise DomainError naming the first keyword value that is
    not a finite real number or an array of them.  Python and numpy ints and floats and int or float
    arrays pass; bool, None, str and bytes (numeric strings are not converted), complex and object
    arrays are not numbers; inf, NaN and an int beyond the float range are not finite.  The specfun
    kernels alone convert with float() instead."""
    for name, value in values.items():
        if type(value) is float or type(value) is int:  # plain (not np.float64 or bool): no numpy round trip
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                raise DomainError(f"{name} must be finite, got an int of {value.bit_length()} bits") from None
        elif np.asarray(value).dtype.kind in "iuf":
            finite = np.all(np.isfinite(value))
        else:
            raise DomainError(f"{name} must be a finite number, got {value!r}")
        if not finite:
            raise DomainError(f"{name} must be finite, got {value}")


@np.errstate(all="ignore")
def _power_law(scale: float, k: float, x: np.ndarray) -> np.ndarray:
    """scale |x|^k over the last axis of x: the kinetic energy d_alpha |p|^alpha
    and the potential strength |q|^degree, whose gradients _field writes.  |x|
    folds hypot over the components and never squares out of the float range; a
    value beyond it is inf or nan, without a numpy warning.  k < 0 raises at x = 0."""
    n = np.abs(x[..., 0])  # abs, then hypot per further component: a hypot pass costs 7x abs
    for c in range(1, x.shape[-1]):
        n = np.hypot(n, x[..., c])
    if k < 0.0 and np.any(n == 0.0):
        raise DomainError("potential is singular at q = 0 for negative degree")
    return scale * n**k


def _norm_rates(params: FractionalParams, pot: PowerLawPotential) -> Callable[[float, float], tuple[float, float]]:
    """(|p|, |q|) -> (v, f) with qdot = v p, pdot = f q: v = alpha d_alpha |p|^(alpha-2), 0 at p = 0,
    f = -strength degree |q|^(degree-2), 0 at q = 0 for degree > 1 and raising for degree <= 1."""
    cv, ev = params.alpha * params.d_alpha, params.alpha - 2.0
    cf, ef, degree = -pot.strength * pot.degree, pot.degree - 2.0, pot.degree

    def rates(m: float, n: float) -> tuple[float, float]:
        try:
            v = cv * m**ev if m else 0.0
            f = cf * n**ef if n else 0.0
        except OverflowError:  # abs_power repeats the power that overflowed and names it
            if m:
                abs_power(m, ev)
            abs_power(n, ef)
        if not n and degree <= 1.0:
            raise DomainError(f"force is undefined at q = 0 for degree {degree} <= 1")
        return v, f

    return rates


def _scalar_field(params: FractionalParams, pot: PowerLawPotential) -> Callable[[float, float], tuple[float, float]]:
    """The canonical equations at d = 1, bound once: (q, p) -> (qdot, pdot), a zero rate +0.0.
    Norms are abs of the floats, equal to sqrt(x * x) wherever x * x is a normal float."""
    rates, fabs = _norm_rates(params, pot), math.fabs

    def field(q: float, p: float) -> tuple[float, float]:
        v, f = rates(fabs(p), fabs(q))
        return v * p if p else 0.0, f * q if q else 0.0

    return field


def _planar_field(params: FractionalParams, pot: PowerLawPotential) -> Callable[..., tuple[float, ...]]:
    """_field(params, pot, 2) on four floats, bitwise: (qx, qy, px, py) -> rates, (0.0, 0.0) for a zero norm."""
    rates, hypot = _norm_rates(params, pot), math.hypot

    def field(qx: float, qy: float, px: float, py: float) -> tuple[float, float, float, float]:
        m, n = hypot(px, py), hypot(qx, qy)
        v, f = rates(m, n)
        vx, vy = (v * px, v * py) if m else (0.0, 0.0)
        return (vx, vy, f * qx, f * qy) if n else (vx, vy, 0.0, 0.0)

    return field


def _field(params: FractionalParams, pot: PowerLawPotential, d: int) -> Callable[[list[float]], list[float]]:
    """The canonical equations in dimension d, bound once: y = (q, p) -> (qdot, pdot), one list;
    norms from math.hypot, which at d = 1 is fabs as in _scalar_field, finite wherever the norm is."""
    rates, hypot, zero = _norm_rates(params, pot), math.hypot, [0.0] * d

    def field(y: list[float]) -> list[float]:
        q, p = y[:d], y[d:]
        m, n = hypot(*p), hypot(*q)
        v, f = rates(m, n)
        return ([v * x for x in p] if m else zero) + ([f * x for x in q] if n else zero)

    return field


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
        require_finite(mass=mass)
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
        """V(q) = strength * |q|^degree; a DomainError where singular or beyond the float range."""
        v = float(_power_law(self.strength, self.degree, _vec(q, "q")))
        if not math.isfinite(v):
            raise DomainError(f"potential must be finite, got {v}")
        return v

    def gradient(self, q) -> np.ndarray:
        """dV/dq = strength * degree * |q|^(degree-1) * q/|q|, the negated
        force; degree <= 1 has no continuous gradient at q = 0 and raises."""
        q = _vec(q, "q").tolist()
        return -_rates(_AT_REST, self, q + [0.0] * len(q))[1]

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


# at rest or force-free, the field at p = 0 or q = 0 is the force or the velocity alone
_AT_REST, _FREE = FractionalParams(2.0, 1.0), PowerLawPotential(0.0, 2.0)


@dataclass(frozen=True)
class PhaseState:
    """A point (t, q, p) in extended phase space; q and p are finite and share
    one dimension d in {1, 2, 3}."""

    t: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        require_finite(t=self.t)
        q = _vec(self.q, "q")
        p = _vec(self.p, "p")
        if q.shape != p.shape:
            raise DomainError(f"q and p dimensions differ: {q.shape} vs {p.shape}")
        q.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @classmethod
    def _of_row(cls, t: float, y: np.ndarray) -> "PhaseState":
        """The state of a stacked (q, p) float row handed over: frozen, not revalidated."""
        y.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(t=t, q=y[: len(y) // 2], p=y[len(y) // 2 :])
        return state

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
        if (self.p0 is None) == (self.qdot0 is None):
            raise DomainError("supply exactly one of p0 and qdot0")
        given = "p0" if self.qdot0 is None else "qdot0"
        for name in ("q0", given):
            object.__setattr__(self, name, _vec(getattr(self, name), name))
        if getattr(self, given).shape != self.q0.shape:
            raise DomainError("initial momentum/velocity dimension must match q0")

    def resolve(self, params: FractionalParams) -> tuple[np.ndarray, np.ndarray]:
        """Return (q0, p0), converting a supplied velocity if needed."""
        if self.p0 is not None:
            p0 = self.p0
        else:
            p0 = momentum_from_velocity(params, self.qdot0)
        return self.q0.copy(), np.asarray(p0, dtype=float)


def _energy(params: FractionalParams, pot: PowerLawPotential, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d_alpha * |p|^alpha + V(q) over the last axis of q and p, inf or nan beyond the float range."""
    return _power_law(params.d_alpha, params.alpha, p) + _power_law(pot.strength, pot.degree, q)


def hamiltonian(params: FractionalParams, pot: PowerLawPotential, state: PhaseState) -> float:
    """Total energy d_alpha * |p|^alpha + V(q), conserved along trajectories; finite or a DomainError."""
    e = float(_energy(params, pot, state.q, state.p))
    if not math.isfinite(e):
        raise DomainError(f"energy must be finite, got {e}")
    return e


def lagrangian(params: FractionalParams, pot: PowerLawPotential, q, qdot) -> float:
    """Lagrangian L(qdot, q) conjugate to the fractional Hamiltonian.

    L = (1/(alpha d_alpha))^(1/(alpha-1)) * (alpha-1)/alpha
        * |qdot|^(alpha/(alpha-1)) - V(q).
    """
    a, d = params.alpha, params.d_alpha
    n = math.hypot(*_vec(qdot, "qdot").tolist())
    coeff = abs_power(1.0 / (a * d), 1.0 / (a - 1.0)) * (a - 1.0) / a
    kinetic = coeff * abs_power(n, a / (a - 1.0))
    require_finite(kinetic=kinetic)
    return kinetic - pot.energy(q)


def momentum_from_velocity(params: FractionalParams, qdot) -> np.ndarray:
    """Invert the velocity relation: |p| = (1/(alpha d_alpha))^(1/(alpha-1))
    * |qdot|^(1/(alpha-1)), direction preserved; p = 0 at qdot = 0."""
    a, d = params.alpha, params.d_alpha
    v = _vec(qdot, "qdot")
    n = math.hypot(*v.tolist())
    if n == 0.0:
        return np.zeros_like(v)
    m = abs_power(1.0 / (a * d), 1.0 / (a - 1.0)) * abs_power(n, 1.0 / (a - 1.0))
    require_finite(momentum=m)
    return m * (v / n)


def _rates(params: FractionalParams, pot: PowerLawPotential, y: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(qdot, pdot) at the stacked float state y = (q, p), as arrays: _field's lists."""
    d = len(y) // 2
    rates = _field(params, pot, d)(y)
    return np.array(rates[:d]), np.array(rates[d:])


def velocity_from_momentum(params: FractionalParams, p) -> np.ndarray:
    """qdot = alpha d_alpha |p|^(alpha-1) p/|p|, extended to 0 at p = 0 (alpha > 1)."""
    p = _vec(p, "p").tolist()
    return _rates(params, _FREE, [0.0] * len(p) + p)[0]


def hamilton_rhs(
    params: FractionalParams, pot: PowerLawPotential, state: PhaseState
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (qdot, pdot) of the canonical equations of motion:
    qdot = alpha d_alpha |p|^(alpha-1) p/|p| and pdot = -dV/dq, each 0 at the
    origin of its argument; q = 0 is a domain error for degree <= 1."""
    return _rates(params, pot, state.q.tolist() + state.p.tolist())


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
    require_finite(q=q, qdot=qdot, qddot=qddot)
    if qdot == 0.0 and a < 2.0:
        raise DomainError("kinematic factor singular at qdot = 0 for alpha < 2")
    coeff = abs_power(1.0 / (a * d), 1.0 / (a - 1.0)) / (a - 1.0)
    kinematic = coeff * qddot * abs_power(qdot, (2.0 - a) / (a - 1.0))
    residual = kinematic + float(pot.gradient(np.array([q]))[0])
    require_finite(residual=residual)
    return residual


def turning_point(pot: PowerLawPotential, energy: float) -> float:
    """Distance |q| where V(q) = E for a confining power law: (E/strength)^(1/degree)."""
    require_finite(energy=energy)
    if not (energy > 0.0 and pot.strength > 0.0 and pot.degree > 0.0):
        raise DomainError(
            "turning point needs energy > 0, strength > 0 and degree > 0"
        )
    q_turn = abs_power(energy / pot.strength, 1.0 / pot.degree)
    require_finite(turning_point=q_turn)
    return q_turn


def free_particle_trajectory(
    params: FractionalParams, energy: float, delta: float, t: float
) -> tuple[float, float]:
    """Analytic free-particle motion at energy E > 0 (1D, moving right).

    q(t) = alpha d_alpha (E/d_alpha)^(1-1/alpha) (t + delta),
    p    = (E/d_alpha)^(1/alpha), constant.
    """
    require_finite(energy=energy, delta=delta, t=t)
    if not energy > 0.0:
        raise DomainError(f"free-particle trajectory needs energy > 0, got {energy}")
    a, d = params.alpha, params.d_alpha
    p = abs_power(energy / d, 1.0 / a)
    q = a * d * abs_power(energy / d, 1.0 - 1.0 / a) * (t + delta)
    require_finite(q=q, p=p)
    return q, p


def _partial(f: PhaseField, state: PhaseState, k: int, step: float) -> float:
    """Central-difference partial derivative of a phase-space field in
    coordinate k of the stacked (t, q, p), with step h = step * max(1, |x|)."""
    require_finite(step=step)
    if not step > 0.0:
        raise DomainError(f"finite-difference step must be positive, got {step}")
    y, d = [state.t, *state.q.tolist(), *state.p.tolist()], state.dimension
    h = step * max(1.0, abs(y[k]))

    def f_at(x: float) -> float:
        z = y[:k] + [x] + y[k + 1 :]
        return f(PhaseState(z[0], z[1 : d + 1], z[d + 1 :]))

    return (f_at(y[k] + h) - f_at(y[k] - h)) / (2.0 * h)


def poisson_bracket(
    u: PhaseField, v: PhaseField, state: PhaseState, step: float = 1e-6
) -> float:
    """{u, v} = sum_i (du/dp_i)(dv/dq_i) - (du/dq_i)(dv/dp_i).

    Note the ordering: with this sign convention {H, q} = dH/dp = qdot and
    {H, p} = -dH/dq = pdot.  Derivatives are central differences with step
    h = step * max(1, |x|) per component.
    """
    d, total = state.dimension, 0.0
    for i in range(1, d + 1):  # q_i is coordinate i of the stacked (t, q, p), p_i is i + d
        du_dq, du_dp, dv_dq, dv_dp = (_partial(g, state, k, step) for g in (u, v) for k in (i, i + d))
        total += du_dp * dv_dq - du_dq * dv_dp
    return total


def total_time_derivative(
    f: PhaseField,
    params: FractionalParams,
    pot: PowerLawPotential,
    state: PhaseState,
    step: float = 1e-6,
) -> float:
    """df/dt along the flow: df/dt|_explicit + {H, f}, with (qdot, pdot) in
    {H, f} = sum_i qdot_i df/dq_i + pdot_i df/dp_i exact from the canonical equations."""
    rates = _field(params, pot, state.dimension)(state.q.tolist() + state.p.tolist())
    return _partial(f, state, 0, step) + sum(r * _partial(f, state, k, step) for k, r in enumerate(rates, 1))
