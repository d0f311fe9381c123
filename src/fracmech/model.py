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

The input rule lives here too.  ``guard_layer`` puts one boundary rule on every
public entry point of this module and of trajectory, specfun, integrate,
oscillator and similarity: the functions, the dataclass records and the
records' public methods.  Each argument or field is checked by its annotation
(a number, a Vector, an array or an object of a type) in a guard compiled once
per signature, so a malformed one is a DomainError naming it, and the function
or a record's __post_init__ checks its domain alone.
"""

from __future__ import annotations

import functools
import inspect
import math
import types
import typing
from collections.abc import Callable, Sequence
from dataclasses import dataclass, is_dataclass

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
Vector = Sequence[float] | np.ndarray  # 1 to 3 finite components; the boundary passes on a float array


def abs_power(x: float, k: float) -> float:
    """|x|**k with an explicit guard at x = 0.

    Fractional exponents of signed quantities appear throughout the model;
    raising a negative float to a non-integer power is a domain error in
    ``math.pow``, so every power in this package goes through the absolute
    value.  At x = 0 the result is 0 for k > 0 and 1 for k = 0; k < 0 is a
    genuine singularity and raises, as does a result beyond the float range.
    An x or k that is not one finite number is the boundary rule's to refuse,
    so a finite x and k give a finite power or one of these errors.
    """
    try:
        return math.pow(math.fabs(x), k)
    except OverflowError:
        raise DomainError(f"|{x}| ** {k} overflows the float range") from None
    except ValueError:  # math.pow's 0 ** k for k < 0
        raise DomainError(f"0 raised to negative power {k}") from None


def _vec(x, name: str) -> np.ndarray:
    """A finite real scalar / sequence (_require_finite_arrays' rule) as a 1..3 component float vector of its
    own: a caller's array is copied, so a record that freezes or keeps the vector leaves the caller's alone."""
    _require_finite_arrays(**{name: x})
    v = np.array(x, dtype=float, ndmin=1)
    if v.ndim != 1 or not 1 <= v.size <= 3:
        raise DomainError(f"{name} must have 1 to 3 components, got shape {v.shape}")
    return v


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """Sum of products over plain floats, added in component order."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def _numeric(value) -> bool:
    """Whether value, as an array, has int or float dtype; a ragged sequence, which numpy refuses, has not."""
    try:
        return np.asarray(value).dtype.kind in "iuf"
    except ValueError:
        return False


def _number(value, name: str):
    """The one number rule at the input edge, on one value passed on as given: raise DomainError naming it
    unless it is one finite real number.  Python and numpy ints and floats and 0-d int or float arrays pass; an
    array or sequence (ndim >= 1, even of one element, or ragged), bool, None, str and bytes (numeric strings
    are not converted), complex and object values are not a finite number; inf, NaN and an int beyond the
    float range are not finite."""
    if type(value) is float or type(value) is int:  # plain (not np.float64 or bool): no numpy round trip
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            raise DomainError(f"{name} must be finite, got an int of {value.bit_length()} bits") from None
    elif _numeric(value) and np.ndim(value) == 0:
        finite = np.isfinite(value)
    else:
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    if not finite:
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _integer(value, name: str):
    """_number's rule for an int annotation, and no fraction: 2.0 and np.int64(2) pass as given, 1.5 does not."""
    if _number(value, name) % 1:
        raise DomainError(f"{name} must be an integer, got {value}")
    return value


def require_finite(**values) -> None:
    """_number's rule on each keyword value in turn: the DomainError names the first that is not one finite
    real number."""
    for name, value in values.items():
        _number(value, name)


def _require_finite_arrays(**arrays) -> None:
    """require_finite's rule for arrays of any shape (vectors, a trajectory's samples): int or float, all finite."""
    for name, value in arrays.items():
        if not _numeric(value):
            raise DomainError(f"{name} must be a finite number, got {value!r}")
        if not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite, got {value}")


def require_types(**values) -> None:
    """The object rule at the input edge: raise DomainError naming the first keyword whose (value, kind)
    pair holds a value that is not an instance of kind, a type or a tuple of types."""
    for name, (value, kind) in values.items():
        if not isinstance(value, kind):
            kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
            raise DomainError(f"{name} must be of type {kinds}, got {value!r}")


def _rule(hint) -> Callable | None:
    """The boundary's check(value, name) of an argument or record field annotated hint, which returns the value
    to pass on: _number for float, _integer for int, _vec for Vector, require_types' isinstance for str, a class of
    this package or a PhaseField, the same and then the array rule for np.ndarray or X's check on each entry, named
    name[i], for a variadic tuple[X, ...], and X's check or None for X | None or Optional[X] (Python 3.10's
    get_type_hints makes a None default the latter), where X may be a union itself; None for any other annotation."""
    if hint is float or hint is int:
        return _number if hint is float else _integer
    if hint == Vector:
        return _vec
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType) and type(None) in args:
        check = _rule(typing.Union[tuple(k for k in args if k is not type(None))])
        return check and (lambda value, name: value if value is None else check(value, name))
    kind = typing.get_origin(hint) or hint
    if hint is np.ndarray:
        return lambda value, name: (_require_finite_arrays(**{name: value}) or value) if isinstance(value, kind) \
            else require_types(**{name: (value, kind)})
    if kind is tuple and args[-1:] == (...,):
        entry = _rule(args[0]) or (lambda value, name: value)
        return lambda value, name: tuple(entry(v, f"{name}[{i}]") for i, v in enumerate(value)) \
            if isinstance(value, tuple) else require_types(**{name: (value, tuple)})
    if hint is str or kind is Callable or getattr(kind, "__module__", "").startswith(f"{__package__}."):
        return lambda value, name: value if isinstance(value, kind) else require_types(**{name: (value, kind)})
    return None


def _guarded(fn: Callable) -> Callable:
    """fn behind the boundary rule, as a guard compiled once: a def with fn's own parameters and defaults
    (positional-or-keyword and keyword-only, the only kinds the entry points take) that passes each argument
    through its annotation's _rule, read here, and calls fn with what the rules return.  A float argument lets
    a finite plain float through on two inline tests, with no call; anything else takes _number's rule."""
    hints, scope, head, body, call = typing.get_type_hints(fn), {"_fn": fn}, [], [], []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in head:
            head.append("*")
        if p.default is not p.empty:
            scope[f"_default_{p.name}"] = p.default
        head.append(p.name if p.default is p.empty else f"{p.name}=_default_{p.name}")
        call.append(f"{p.name}={p.name}" if p.kind is p.KEYWORD_ONLY else p.name)
        if check := _rule(hints.get(p.name)):
            scope[f"_check_{p.name}"] = check
            fast = f"if not (type({p.name}) is float and {p.name} - {p.name} == 0.0): " * (hints[p.name] is float)
            body.append(f"    {fast}{p.name} = _check_{p.name}({p.name}, {p.name!r})")
    source = "\n".join([f"def guard({', '.join(head)}):", *body, f"    return _fn({', '.join(call)})"])
    exec(compile(source, f"<guard of {fn.__qualname__}>", "exec"), scope)
    return functools.update_wrapper(scope["guard"], fn)


def guard_layer(namespace: dict) -> None:
    """Put the boundary rule on each entry point of a layer's __all__: a function's binding in namespace, the
    one that internal calls and other layers' imports go through, becomes _guarded's guard; so does a dataclass
    record's __init__, which dataclasses.replace calls too, so that each field meets its annotation's rule before
    __post_init__ runs, and each public method or classmethod of the record that has an annotated argument."""
    for name in namespace["__all__"]:
        if inspect.isfunction(obj := namespace[name]):
            namespace[name] = _guarded(obj)
        elif is_dataclass(obj):
            obj.__init__ = _guarded(obj.__init__)
            for attr, member in list(vars(obj).items()):
                fn = getattr(member, "__func__", member)  # a classmethod's function
                if attr[0] != "_" and inspect.isfunction(fn) and typing.get_type_hints(fn).keys() - {"return"}:
                    setattr(obj, attr, _guarded(fn) if fn is member else type(member)(_guarded(fn)))


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


def _rate_constants(params: FractionalParams, pot: PowerLawPotential) -> tuple[float, float, float, float]:
    """(cv, ev, cf, ef) of _field: v = cv |p|^ev and f = cf |q|^ef."""
    return params.alpha * params.d_alpha, params.alpha - 2.0, -pot.strength * pot.degree, pot.degree - 2.0


def _field(params: FractionalParams, pot: PowerLawPotential, y: list[float]) -> list[float]:
    """The canonical equations at the stacked float state y = (q, p): (qdot, pdot) as one list, qdot = v p
    and pdot = f q with v = alpha d_alpha |p|^(alpha-2), 0 at p = 0, and f = -strength degree |q|^(degree-2),
    0 at q = 0 for degree > 1 and raising for degree <= 1.  Norms come from math.hypot, which at d = 1 is
    fabs, finite wherever the norm is.  A zero norm's rates are +0.0, where 0.0 * -0.0 would be -0.0."""
    (cv, ev, cf, ef), d = _rate_constants(params, pot), len(y) // 2
    q, p = y[:d], y[d:]
    m, n = math.hypot(*p), math.hypot(*q)
    try:
        v = cv * m**ev if m else 0.0
        f = cf * n**ef if n else 0.0
    except OverflowError:  # abs_power repeats the power that overflowed and names it
        if m:
            abs_power(m, ev)
        abs_power(n, ef)
    if not n and pot.degree <= 1.0:
        raise DomainError(f"force is undefined at q = 0 for degree {pot.degree} <= 1")
    return ([v * x for x in p] if m else [0.0] * d) + ([f * x for x in q] if n else [0.0] * d)


@dataclass(frozen=True)
class FractionalParams:
    """Kinetic-term parameters: exponent ``alpha`` in (1, 2] and scale
    ``d_alpha`` > 0 of the kinetic energy d_alpha * |p|^alpha."""

    alpha: float
    d_alpha: float

    def __post_init__(self) -> None:
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
        if self.degree == 0.0:
            raise DomainError("potential degree must be nonzero")

    def energy(self, q: Vector) -> float:
        """V(q) = strength * |q|^degree; a DomainError where singular or beyond the float range."""
        v = float(_power_law(self.strength, self.degree, q))
        if not math.isfinite(v):
            raise DomainError(f"potential must be finite, got {v}")
        return v

    def gradient(self, q: Vector) -> np.ndarray:
        """dV/dq = strength * degree * |q|^(degree-1) * q/|q|, the negated
        force; degree <= 1 has no continuous gradient at q = 0 and raises."""
        q = q.tolist()
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
    one dimension d in {1, 2, 3}, held as read-only float arrays of their own."""

    t: float
    q: Vector
    p: Vector

    def __post_init__(self) -> None:
        if self.q.shape != self.p.shape:
            raise DomainError(f"q and p dimensions differ: {self.q.shape} vs {self.p.shape}")
        self.q.flags.writeable = False
        self.p.flags.writeable = False
        object.__setattr__(self, "t", float(self.t))

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

    q0: Vector
    p0: Vector | None = None
    qdot0: Vector | None = None

    def __post_init__(self) -> None:
        if (self.p0 is None) == (self.qdot0 is None):
            raise DomainError("supply exactly one of p0 and qdot0")
        if (self.qdot0 if self.p0 is None else self.p0).shape != self.q0.shape:
            raise DomainError("initial momentum/velocity dimension must match q0")

    def resolve(self, params: FractionalParams) -> tuple[np.ndarray, np.ndarray]:
        """Return (q0, p0), converting a supplied velocity if needed."""
        if self.p0 is not None:
            p0 = self.p0
        else:
            p0 = momentum_from_velocity(params, self.qdot0)
        return self.q0.copy(), np.array(p0, dtype=float)


@np.errstate(all="ignore")
def _energy(params: FractionalParams, pot: PowerLawPotential, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d_alpha * |p|^alpha + V(q) over the last axis of q and p, inf or nan beyond the float range."""
    return _power_law(params.d_alpha, params.alpha, p) + _power_law(pot.strength, pot.degree, q)


def hamiltonian(params: FractionalParams, pot: PowerLawPotential, state: PhaseState) -> float:
    """Total energy d_alpha * |p|^alpha + V(q), conserved along trajectories; finite or a DomainError."""
    e = float(_energy(params, pot, state.q, state.p))
    if not math.isfinite(e):
        raise DomainError(f"energy must be finite, got {e}")
    return e


def lagrangian(params: FractionalParams, pot: PowerLawPotential, q: Vector, qdot: Vector) -> float:
    """Lagrangian L(qdot, q) conjugate to the fractional Hamiltonian.

    L = (1/(alpha d_alpha))^(1/(alpha-1)) * (alpha-1)/alpha
        * |qdot|^(alpha/(alpha-1)) - V(q).
    """
    a, d = params.alpha, params.d_alpha
    n = math.hypot(*qdot.tolist())
    coeff = abs_power(1.0 / (a * d), 1.0 / (a - 1.0)) * (a - 1.0) / a
    kinetic = coeff * abs_power(n, a / (a - 1.0))
    require_finite(kinetic=kinetic)
    return kinetic - pot.energy(q)


def momentum_from_velocity(params: FractionalParams, qdot: Vector) -> np.ndarray:
    """Invert the velocity relation: |p| = (1/(alpha d_alpha))^(1/(alpha-1))
    * |qdot|^(1/(alpha-1)), direction preserved; p = 0 at qdot = 0."""
    a, d = params.alpha, params.d_alpha
    n = math.hypot(*qdot.tolist())
    if n == 0.0:
        return np.zeros_like(qdot)
    m = abs_power(1.0 / (a * d), 1.0 / (a - 1.0)) * abs_power(n, 1.0 / (a - 1.0))
    require_finite(momentum=m)
    return m * (qdot / n)


def _rates(params: FractionalParams, pot: PowerLawPotential, y: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(qdot, pdot) at the stacked float state y = (q, p), as arrays: _field's lists."""
    d, rates = len(y) // 2, _field(params, pot, y)
    return np.array(rates[:d]), np.array(rates[d:])


def velocity_from_momentum(params: FractionalParams, p: Vector) -> np.ndarray:
    """qdot = alpha d_alpha |p|^(alpha-1) p/|p|, extended to 0 at p = 0 (alpha > 1)."""
    return _rates(params, _FREE, [0.0] * len(p) + p.tolist())[0]


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
    if qdot == 0.0 and a < 2.0:
        raise DomainError("kinematic factor singular at qdot = 0 for alpha < 2")
    coeff = abs_power(1.0 / (a * d), 1.0 / (a - 1.0)) / (a - 1.0)
    kinematic = coeff * qddot * abs_power(qdot, (2.0 - a) / (a - 1.0))
    residual = kinematic + float(pot.gradient(np.array([q]))[0])
    require_finite(residual=residual)
    return residual


def turning_point(pot: PowerLawPotential, energy: float) -> float:
    """Distance |q| where V(q) = E for a confining power law: (E/strength)^(1/degree)."""
    if not (energy > 0.0 and pot.strength > 0.0 and pot.degree > 0.0):
        raise DomainError(
            "turning point needs energy > 0, strength > 0 and degree > 0"
        )
    ratio = energy / pot.strength
    require_finite(turning_point=ratio)  # an E/strength beyond the float range puts the turning point there
    return abs_power(ratio, 1.0 / pot.degree)


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
    require_finite(q=q, p=p)
    return q, p


def _partial(f: PhaseField, state: PhaseState, k: int, step: float) -> float:
    """Central-difference partial derivative of a phase-space field in
    coordinate k of the stacked (t, q, p), with step h = step * max(1, |x|)."""
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
    rates = _field(params, pot, state.q.tolist() + state.p.tolist())
    return _partial(f, state, 0, step) + sum(r * _partial(f, state, k, step) for k, r in enumerate(rates, 1))


guard_layer(globals())
