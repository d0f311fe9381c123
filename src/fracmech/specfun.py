"""Self-contained special-function kernel.

Log-gamma, the complete and incomplete Beta functions, the inverse of the
incomplete Beta in its x argument, and the one Gauss hypergeometric family
F(mu, 1-nu; mu+1; x) that the oscillator solution needs.  Everything is
scalar, pure and reentrant.

Accuracy targets: ln_gamma better than 1e-14 relative, inc_beta better
than 1e-12 relative on a, b in (0, 1] and the full x range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "BetaArgs",
    "ln_gamma",
    "beta",
    "inc_beta",
    "inv_inc_beta",
    "hyp2f1",
]

_LN_SQRT_2PI = 0.9189385332046727  # ln(sqrt(2*pi))
_EULER_GAMMA = 0.5772156649015329

# Lanczos approximation, g = 7, 9 coefficients: ~1e-15 relative on x > 0.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class BetaArgs:
    """Arguments of the incomplete Beta function: a > 0, b > 0, x in [0, 1]."""

    a: float
    b: float
    x: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"Beta parameters must be positive, got a={self.a}, b={self.b}")
        if not 0.0 <= self.x <= 1.0:
            raise DomainError(f"incomplete Beta argument x must be in [0, 1], got {self.x}")


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 via the Lanczos approximation."""
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    if x < 1e-8:
        # lnGamma(x) = -log x - gamma x + O(x^2); the reflection below
        # overflows pi / sin(pi x) as x reaches the subnormals
        return -math.log(x) - _EULER_GAMMA * x
    if x < 0.5:
        # reflection keeps full accuracy for small arguments
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    y = x - 1.0
    acc = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (y + k)
    t = y + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (y + 0.5) * math.log(t) - t + math.log(acc)


def beta(a: float, b: float) -> float:
    """Complete Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta requires positive arguments, got a={a}, b={b}")
    try:
        return math.exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))
    except OverflowError:
        raise DomainError(f"beta({a}, {b}) overflows the float range") from None


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete Beta, by the modified Lentz method.

    Converges rapidly for x < (a+1)/(a+b+2); the caller applies the
    symmetry switch outside that range.
    """
    tiny = 1e-300
    eps = 1e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise DomainError(
        f"incomplete Beta continued fraction failed to converge for a={a}, b={b}, x={x}"
    )


def _inc_beta_series(a: float, b: float, x: float) -> float:
    """Power series B_x(a,b) = x^a sum_n (1-b)_n x^n / (n! (a+n)); tiny-x path."""
    term = 1.0
    total = 1.0 / a
    for n in range(1, 200):
        term *= (n - b) * x / n
        contrib = term / (a + n)
        total += contrib
        if abs(contrib) < 1e-17 * abs(total):
            break
    return math.exp(a * math.log(x)) * total


def inc_beta(args: BetaArgs | float, b: float | None = None, x: float | None = None) -> float:
    """Incomplete Beta function B_x(a, b) = integral_0^x y^(a-1) (1-y)^(b-1) dy.

    Accepts either a :class:`BetaArgs` or the three scalars (a, b, x).
    Monotone nondecreasing in x, with B_0 = 0 and B_1 = beta(a, b).
    """
    if isinstance(args, BetaArgs):
        a, b, x = args.a, args.b, args.x
    else:
        a = args
        args = BetaArgs(float(a), float(b), float(x))
        a, b, x = args.a, args.b, args.x
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return beta(a, b)
    if x < 1e-4:
        return _inc_beta_series(a, b, x)
    front = math.exp(a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return beta(a, b) - front * _beta_cont_frac(b, a, 1.0 - x) / b


def inv_inc_beta(a: float, b: float, target: float) -> float:
    """Solve B_x(a, b) = target for x in [0, 1].

    Bracketed bisection refined by safeguarded Newton steps with
    derivative x^(a-1) (1-x)^(b-1); bisection guarantees convergence even
    though the derivative is unbounded at the endpoints when a < 1 or
    b < 1.  The result satisfies |B_x - target| < 1e-12 * B(a, b); when
    200 iterations do not get there, DomainError names the residual.
    """
    total = beta(a, b)
    if not 0.0 <= target <= total * (1.0 + 1e-12):
        raise DomainError(
            f"inverse incomplete Beta target {target} outside [0, B(a,b)={total}]"
        )
    if target == 0.0:
        return 0.0
    if target >= total:
        return 1.0

    lo, hi = 0.0, 1.0
    x = min(max(target / total, 1e-12), 1.0 - 1e-12)
    tol = 1e-13 * total
    for _ in range(200):
        res = inc_beta(a, b, x) - target
        if abs(res) <= tol:
            return x
        if res > 0.0:
            hi = x
        else:
            lo = x
        # Newton step, clipped back into the bracket when it escapes
        deriv = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
        step = res / deriv if deriv > 0.0 and math.isfinite(deriv) else 0.0
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        # relative collapse test: roots can sit arbitrarily close to 0
        if hi - lo <= 1e-16 * hi:
            return x_new
        x = x_new
    raise DomainError(
        f"inverse incomplete Beta failed to converge for a={a}, b={b}, "
        f"target={target}: residual {res:.3e} after 200 iterations"
    )


def hyp2f1(mu: float, one_minus_nu: float, mu_plus_one: float, x: float) -> float:
    """Gauss hypergeometric F(mu, 1-nu; mu+1; x) on the family this package uses.

    Evaluated through the incomplete Beta identity
    F(mu, 1-nu; mu+1; x) = mu * B_x(mu, nu) / x^mu for x > 0, and 1 at
    x = 0.  Only this contiguous family is supported: the second parameter
    must be 1 - nu with nu > 0 and the third must equal mu + 1.
    """
    if not mu > 0.0:
        raise DomainError(f"hyp2f1 family requires mu > 0, got {mu}")
    nu = 1.0 - one_minus_nu
    if not nu > 0.0:
        raise DomainError(
            f"hyp2f1 family requires second parameter 1 - nu with nu > 0, got {one_minus_nu}"
        )
    if abs(mu_plus_one - (mu + 1.0)) > 1e-12 * (1.0 + abs(mu)):
        raise DomainError(
            f"hyp2f1 family requires third parameter mu + 1, got {mu_plus_one} for mu={mu}"
        )
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"hyp2f1 argument must be in [0, 1], got {x}")
    if x == 0.0:
        return 1.0
    return mu * inc_beta(mu, nu, x) / math.exp(mu * math.log(x))
