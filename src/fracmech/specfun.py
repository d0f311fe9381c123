"""Self-contained special-function kernel.

Log-gamma, the complete and incomplete Beta functions, the inverse of the
incomplete Beta in its x argument, and the one Gauss hypergeometric family
F(mu, 1-nu; mu+1; x) that the oscillator solution needs.  Everything is
scalar, pure and reentrant, and computes with the standard library alone.
An argument that is not a number is a DomainError that names it, from
model.require_finite, called only once a comparison or float() has refused it.

Log-gamma is ``math.lgamma``.  The incomplete Beta is the continued
fraction of DLMF 8.17.22 (modified Lentz), switched by the symmetry
B_x(a, b) = B(a, b) - B_(1-x)(b, a) to keep x in its fast range; it is
good to 1e-12 relative on a, b in (0, 1] and the whole of x in [0, 1].
"""

from __future__ import annotations

import math

from .errors import DomainError
from .model import require_finite

__all__ = [
    "ln_gamma",
    "beta",
    "inc_beta",
    "inv_inc_beta",
    "hyp2f1",
]


def _refused(exc: Exception, **args) -> Exception:
    """require_finite's DomainError for the first argument that is not a number, else
    exc, the TypeError or ValueError that an entry point caught from its arguments."""
    try:
        require_finite(**args)
    except DomainError as err:
        return err
    return exc


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for finite x > 0, from ``math.lgamma``."""
    try:
        if not 0.0 < x < math.inf:
            raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"ln_gamma({x}) overflows the float range") from None
    except TypeError as exc:
        raise _refused(exc, x=x) from None


def beta(a: float, b: float) -> float:
    """Complete Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    try:
        if not (a > 0.0 and b > 0.0):
            raise DomainError(f"beta requires positive arguments, got a={a}, b={b}")
        return math.exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))
    except OverflowError:
        raise DomainError(f"beta({a}, {b}) overflows the float range") from None
    except TypeError as exc:
        raise _refused(exc, a=a, b=b) from None


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
    try:
        a, b, x = float(a), float(b), float(x)
    except (TypeError, ValueError) as exc:
        raise _refused(exc, a=a, b=b, x=x) from None
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"Beta parameters must be positive and finite, got a={a}, b={b}")
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

    Starts from the leading term of the small-x series, B_x(a, b) ~ x^a / a,
    so x0 = (a * target)^(1/a), and refines it by Halley steps (Press et
    al., Numerical Recipes 3rd ed. 6.4) with derivative x^(a-1) (1-x)^(b-1)
    inside a bracket; a step that leaves the bracket is replaced by its
    midpoint, which guarantees convergence even though the derivative is
    unbounded at the endpoints when a < 1 or b < 1.  A target above B/2 is
    solved as B_(1-x)(b, a) = B - target, where doubles resolve the root.
    The result has |residual| <= 1e-13 * B on the side solved, or the root
    lies between it and an adjacent double, or after 200 iterations
    DomainError names the residual.
    """
    total = beta(a, b)  # its errors name a and b
    try:
        if not 0.0 <= target <= total * (1.0 + 1e-12):
            raise DomainError(
                f"inverse incomplete Beta target {target} outside [0, B(a,b)={total}]"
            )
    except TypeError as exc:
        raise _refused(exc, target=target) from None
    if target == 0.0:
        return 0.0
    if target >= total:
        return 1.0
    if target > 0.5 * total:
        return 1.0 - inv_inc_beta(b, a, total - target)

    lo, hi = 0.0, 1.0
    # the power of a value in [0, 1] neither overflows nor takes log(0)
    x = min(max(min(a * target, 1.0) ** (1.0 / a), 1e-12), 1.0 - 1e-12)
    tol = 1e-13 * total
    for _ in range(200):
        res = inc_beta(a, b, x) - target
        if abs(res) <= tol:
            return x
        if res > 0.0:
            hi = x
        else:
            lo = x
        # Halley step, its denominator kept >= 1/2; bisect when it escapes
        deriv = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
        step = res / deriv if deriv > 0.0 and math.isfinite(deriv) else 0.0
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

    Evaluated through the incomplete Beta identity
    F(mu, 1-nu; mu+1; x) = mu * B_x(mu, nu) / x^mu for x > 0, and 1 at
    x = 0.  Only this contiguous family is supported: the second parameter
    must be 1 - nu with nu > 0 and the third must equal mu + 1.
    """
    try:
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
        power = math.exp(mu * math.log(x))
        if power == 0.0:
            raise DomainError(f"hyp2f1({mu}, {one_minus_nu}, {mu_plus_one}, {x}): x^mu underflows to 0")
        return mu * inc_beta(mu, nu, x) / power
    except TypeError as exc:
        raise _refused(exc, mu=mu, one_minus_nu=one_minus_nu, mu_plus_one=mu_plus_one, x=x) from None
