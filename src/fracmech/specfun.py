"""Self-contained special-function kernel.

Log-gamma, the complete and incomplete Beta functions, the inverse of the
incomplete Beta in its x argument, and the one Gauss hypergeometric family
F(mu, 1-nu; mu+1; x) = mu B_x(mu, nu) / x^mu in which the oscillator's time of
flight is written (the oscillator itself calls inc_beta).  Everything is
scalar, pure and reentrant, and computes with the standard library alone.
Each public function takes the boundary rule of model.guard_layer, as every
public entry point does: an argument that is not one finite number (an array,
a bool or a numeric string is not) is a DomainError that names it before the
function runs.  The functions convert what passes with float(), since numpy
scalars and 0-d arrays pass as given and the Beta cache keys on floats.

Log-gamma is ``math.lgamma``.  The incomplete Beta is the continued
fraction of DLMF 8.17.22 (modified Lentz), switched by the symmetry
B_x(a, b) = B(a, b) - B_(1-x)(b, a) to keep x in its fast range; it is
good to 1e-12 relative on a, b in (0, 1] and the whole of x in [0, 1].
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError
from .model import guard_layer

__all__ = [
    "ln_gamma",
    "beta",
    "inc_beta",
    "inv_inc_beta",
    "hyp2f1",
]


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for finite x > 0, from ``math.lgamma``."""
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"ln_gamma({x}) overflows the float range") from None


def beta(a: float, b: float) -> float:
    """Complete Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta requires positive arguments, got a={a}, b={b}")
    a, b = float(a), float(b)
    try:
        return _beta(a, b)
    except OverflowError:
        raise DomainError(f"beta({a}, {b}) overflows the float range") from None


@functools.lru_cache(maxsize=64)
def _beta(a: float, b: float) -> float:
    """beta's float core, kept per (a, b): an inversion and the mirrored branch of inc_beta ask again."""
    return math.exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction (DLMF 8.17.22) for the incomplete Beta, by modified Lentz
    (Thompson & Barnett, J. Comput. Phys. 64 (1986) 490), with the floor 1e-300.

    Converges rapidly for x < (a+1)/(a+b+2); the caller applies the
    symmetry switch outside that range.  Each iteration is straight-line float
    code, the even half-step d_2m and then the odd one d_2m+1 written out, since
    a per-iteration tuple, an inner loop and abs() calls cost more than the
    arithmetic.  The float counter m is exact and each test `-t < v < t` has the
    truth value of `abs(v) < t` for every float, so every bit is the textbook
    loop's; tests/test_specfun.py keeps that loop as the reference.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -1e-300 < d < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    m = 0.0
    while m < 399.0:
        m += 1.0
        m2 = m + m
        # the even coefficient d_2m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -1e-300 < d < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        # the odd coefficient d_2m+1
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -1e-300 < d < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -1e-16 < delta - 1.0 < 1e-16:
            return h
    raise DomainError(
        f"incomplete Beta continued fraction failed to converge for a={a}, b={b}, x={x}"
    )


def inc_beta(a: float, b: float, x: float) -> float:
    """Incomplete Beta function B_x(a, b) = integral_0^x y^(a-1) (1-y)^(b-1) dy,
    for finite a > 0 and b > 0 and x in [0, 1].

    Monotone nondecreasing in x, with B_0 = 0 and B_1 = beta(a, b).
    """
    a, b, x = float(a), float(b), float(x)
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"Beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"incomplete Beta argument x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return beta(a, b)
    front = math.exp(a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_cont_frac(a, b, x) / a
        if value == math.inf:  # B_x ~ x^a / a beyond the floats as a -> 0
            raise DomainError(f"inc_beta({a}, {b}, {x}) overflows the float range")
        return value
    return beta(a, b) - front * _beta_cont_frac(b, a, 1.0 - x) / b


def inv_inc_beta(a: float, b: float, target: float) -> float:
    """Solve B_x(a, b) = target for x in [0, 1].

    Starts from the first four terms of the series B_x(a, b) = x^a (1/a + (1-b) x/(a+1) + ...) (DLMF
    8.17(ii)), solved for x by two fixed-point passes from x0 = (a * target)^(1/a), and refines it by
    Halley steps (Press et al., Numerical Recipes 3rd ed. 6.4) with derivative x^(a-1) (1-x)^(b-1) inside
    a bracket; a step that leaves the bracket is replaced by its midpoint, which guarantees convergence
    even though the derivative is unbounded at the endpoints when a < 1 or b < 1.  A target above B/2
    is solved as B_(1-x)(b, a) = B - target, where doubles resolve the root.  The result has
    |residual| <= 1e-13 * B on the side solved, or the root lies between it and an adjacent double, or
    after 200 iterations DomainError names the residual.  On a = 1/beta, b = 1/alpha it takes 1.89 inc_beta
    evaluations on average and 4 at most over the test grid, and at most 3 within a few ulps of 0 or B.
    """
    total, a, b, target = beta(a, b), float(a), float(b), float(target)
    if not 0.0 <= target <= total * (1.0 + 1e-12):
        raise DomainError(f"inverse incomplete Beta target {target} outside [0, B(a,b)={total}]")
    if target == 0.0:
        return 0.0
    if target >= total:
        return 1.0
    if target > 0.5 * total:
        return 1.0 - _inv_inc_beta_below_half(b, a, total - target, total)
    return _inv_inc_beta_below_half(a, b, target, total)


def _inv_inc_beta_below_half(a: float, b: float, target: float, total: float) -> float:
    """inv_inc_beta's solve of B_x(a, b) = target for a checked target in (0, total/2], total = B(a, b)."""
    x = min(a * target, 1.0) ** (1.0 / a)
    c1 = (1.0 - b) / (a + 1.0)  # the coefficients (1-b)_n / (n! (a+n)) of x^n in the series, n = 1, 2, 3
    c2, c3 = c1 * (2.0 - b) * (a + 1.0) / (2.0 * a + 4.0), c1 * (2.0 - b) * (3.0 - b) * (a + 1.0) / (6.0 * a + 18.0)
    for _ in range(2):
        if (series := 1.0 / a + x * (c1 + x * (c2 + x * c3))) > 0.0:
            x = min(target / series, 1.0) ** (1.0 / a)
    x = min(max(x, 2.0**-1022), 1.0 - 1e-12)  # the least normal double: x^(a-1) <= 1/x, the derivative finite
    lo, hi, tol = 0.0, 1.0, 1e-13 * total
    for _ in range(200):
        res = inc_beta(a, b, x) - target
        if abs(res) <= tol:
            return x
        if res > 0.0:
            hi = x
        else:
            lo = x
        # Halley step, its denominator kept >= 1/2; bisect when it escapes; exp held finite below the floor
        deriv = math.exp(min((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x), 709.0))
        step = res / deriv if deriv > 0.0 else 0.0
        step /= 1.0 - 0.5 * min(1.0, step * ((a - 1.0) / x - (b - 1.0) / (1.0 - x)))
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
            # no double lies between the ends, so x is one of the two nearest the root
            if x_new in (lo, hi):
                return x
        x = x_new
    raise DomainError(
        f"inverse incomplete Beta failed to converge for a={a}, b={b}, "
        f"target={target}: residual {res:.3e} after 200 iterations"
    )


def hyp2f1(mu: float, one_minus_nu: float, mu_plus_one: float, x: float) -> float:
    """Gauss hypergeometric F(mu, 1-nu; mu+1; x) on the family this package uses.

    Evaluated through the incomplete Beta identity F(mu, 1-nu; mu+1; x) = mu * B_x(mu, nu) / x^mu with
    x^mu / mu cancelled, and 1 at x = 0.  Below x = (mu+1)/(mu+nu+2) it is (1-x)^nu times inc_beta's
    continued fraction CF(mu, nu, x); above it the complement B_x(mu, nu) = B(mu, nu) - B_(1-x)(nu, mu)
    gives F = (mu B - (mu/nu) x^mu (1-x)^nu CF(nu, mu, 1-x)) / x^mu, with mu B = Gamma(mu+1) Gamma(nu) /
    Gamma(mu+nu) carried whole, since B(mu, nu) ~ 1/mu leaves the float range as mu -> 0 though F does
    not.  Only this contiguous family is supported: the second parameter must be 1 - nu with nu > 0
    and the third must equal mu + 1.
    """
    if not mu > 0.0:
        raise DomainError(f"hyp2f1 family requires finite mu > 0, got {mu}")
    nu = 1.0 - one_minus_nu
    if not nu > 0.0:
        raise DomainError(f"hyp2f1 family requires second parameter 1 - nu with nu > 0, got {one_minus_nu}")
    if not abs(mu_plus_one - (mu + 1.0)) <= 1e-12 * (1.0 + abs(mu)):
        raise DomainError(f"hyp2f1 family requires third parameter mu + 1, got {mu_plus_one} for mu={mu}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"hyp2f1 argument must be in [0, 1], got {x}")
    mu, nu, x = float(mu), float(nu), float(x)
    if x == 0.0:
        return 1.0
    if x < (mu + 1.0) / (mu + nu + 2.0):
        return math.exp(nu * math.log1p(-x)) * _beta_cont_frac(mu, nu, x)
    power = math.exp(mu * math.log(x))
    if not power:
        raise DomainError(f"hyp2f1({mu}, {one_minus_nu}, {mu_plus_one}, {x}): x^mu underflows to 0")
    try:
        mu_beta = math.exp(ln_gamma(mu + 1.0) + ln_gamma(nu) - ln_gamma(mu + nu))
    except OverflowError:  # where ln_gamma cancels at huge mu and nu
        raise DomainError(f"hyp2f1({mu}, {one_minus_nu}, {mu_plus_one}, {x}): mu B(mu, nu) overflows") from None
    return (mu_beta - mu * power * (1.0 - x)**nu * _beta_cont_frac(nu, mu, 1.0 - x) / nu) / power


guard_layer(globals())
