"""Special-function kernel versus an independent quadrature oracle.

Every nontrivial value here is checked against adaptive quadrature of
the defining integral.  The endpoint singularity of the incomplete Beta
integrand (exponents a, b in [0.5, 1) make both endpoints blow up) is
removed with the substitution y = u^(1/a), which turns y^(a-1) dy into
du/a; the upper endpoint is handled through the complement.  Frozen
reference constants were produced with 40-digit arithmetic offline.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from fracmech import DomainError, beta, hyp2f1, inc_beta, inv_inc_beta, ln_gamma
from fracmech.specfun import _beta_cont_frac

GRID = (1.1, 1.25, 1.5, 1.75, 2.0)


def oracle_beta(a: float, b: float) -> float:
    with warnings.catch_warnings():
        # the u -> 1 algebraic singularity makes QAGS report slow
        # convergence; the extrapolated value is still good to ~1e-13
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda u: (1.0 - u ** (1.0 / a)) ** (b - 1.0),
            0.0,
            1.0,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=400,
            points=[1.0],
        )
    return val / a


def oracle_inc_beta(a: float, b: float, x: float) -> float:
    if x > 0.6:
        return oracle_beta(a, b) - oracle_inc_beta(b, a, 1.0 - x)
    val, _ = quad(
        lambda u: (1.0 - u ** (1.0 / a)) ** (b - 1.0),
        0.0,
        x**a,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=400,
    )
    return val / a


# ---------------------------------------------------------------- ln_gamma


def test_ln_gamma_at_integers():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_ln_gamma_half():
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)


def test_ln_gamma_frozen():
    # 40-digit reference: lgamma(3.75) = 1.4868155785934170555...
    assert ln_gamma(3.75) == pytest.approx(1.4868155785934171, rel=1e-14)


@given(st.floats(min_value=0.05, max_value=50.0))
def test_ln_gamma_matches_stdlib(x):
    assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-1.5)


# -------------------------------------------------------------------- beta


def test_beta_trivial():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_beta_half_half_is_pi():
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)


def test_beta_frozen_two_thirds():
    # 40-digit reference: B(2/3, 2/3) = 2.053390217939177181...
    assert beta(2.0 / 3.0, 2.0 / 3.0) == pytest.approx(2.053390217939177, rel=1e-13)


@pytest.mark.parametrize("a", [0.5, 2.0 / 3.0, 0.8, 1.0])
@pytest.mark.parametrize("b", [0.5, 2.0 / 3.0, 0.8, 1.0])
def test_beta_matches_quadrature(a, b):
    assert beta(a, b) == pytest.approx(oracle_beta(a, b), rel=1e-10)


def test_beta_rejects_nonpositive():
    with pytest.raises(DomainError):
        beta(0.0, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, -0.5)


# ---------------------------------------------------------------- inc_beta


def test_inc_beta_endpoints():
    assert inc_beta(0.7, 0.9, 0.0) == 0.0
    assert inc_beta(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert inc_beta(0.6, 0.8, 1.0) == pytest.approx(beta(0.6, 0.8), rel=1e-13)


def test_inc_beta_symmetric_midpoint():
    # equal exponents split the full integral evenly at x = 1/2
    assert inc_beta(0.5, 0.5, 0.5) == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_inc_beta_takes_three_scalars():
    # (a, b, x) is the one input format; a bad one is named in the message
    import inspect

    import fracmech

    assert list(inspect.signature(inc_beta).parameters) == ["a", "b", "x"]
    assert "BetaArgs" not in fracmech.__all__ and not hasattr(fracmech.specfun, "BetaArgs")
    with pytest.raises(DomainError, match=r"^Beta parameters must be positive and finite, got a=0.5, b=inf$"):
        inc_beta(0.5, math.inf, 0.5)
    with pytest.raises(DomainError, match=r"^incomplete Beta argument x must be in \[0, 1\], got nan$"):
        inc_beta(0.5, 0.5, math.nan)


def test_inc_beta_rejects_bad_args():
    with pytest.raises(DomainError):
        inc_beta(-0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        inc_beta(0.5, 0.5, 1.5)
    with pytest.raises(DomainError):
        inc_beta(0.5, 0.5, -0.1)


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta_exp", GRID)
def test_inc_beta_matches_quadrature(alpha, beta_exp):
    a, b = 1.0 / beta_exp, 1.0 / alpha
    for x in (0.05, 0.2, 0.5, 0.8, 0.95):
        assert inc_beta(a, b, x) == pytest.approx(oracle_inc_beta(a, b, x), rel=1e-10)


@given(
    st.floats(min_value=0.5, max_value=1.0),
    st.floats(min_value=0.5, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_inc_beta_symmetry(a, b, x):
    total = inc_beta(a, b, x) + inc_beta(b, a, 1.0 - x)
    assert total == pytest.approx(beta(a, b), rel=1e-12)


@given(
    st.floats(min_value=0.5, max_value=1.0),
    st.floats(min_value=0.5, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_inc_beta_monotone_in_x(a, b, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert inc_beta(a, b, lo) <= inc_beta(a, b, hi)


def _loop_cont_frac(a: float, b: float, x: float) -> float:
    """The textbook modified-Lentz loop for DLMF 8.17.22, the reference for
    _beta_cont_frac's written-out half-steps: one pass per coefficient pair,
    an inner loop over (even, odd), abs() tests and an integer counter."""
    tiny = 1e-300
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
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise DomainError(
        f"incomplete Beta continued fraction failed to converge for a={a}, b={b}, x={x}"
    )


def _bits(f, *args) -> str:
    """f(*args) as float.hex, or the message of the DomainError it raises."""
    try:
        return f(*args).hex()
    except DomainError as err:
        return f"DomainError: {err}"


KERNEL_PARAMS = (1e-3, 0.01, 0.05, 0.3, 0.5, 1.0, 2.0, 5.0, 30.0)
SWITCH_FRACTIONS = (0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0)


@pytest.mark.parametrize("a", KERNEL_PARAMS)
def test_cont_frac_is_the_textbook_loop_bitwise(a):
    # x runs over fractions of the switch point (a+1)/(a+b+2), the kernel's range
    for b in KERNEL_PARAMS:
        switch = (a + 1.0) / (a + b + 2.0)
        for frac in SWITCH_FRACTIONS:
            x = frac * switch
            assert _bits(_beta_cont_frac, a, b, x) == _bits(_loop_cont_frac, a, b, x), (a, b, x)


def test_cont_frac_failure_is_the_textbook_loops():
    # near the switch point at a = b = 1e6 the fraction needs more than 399 pairs
    message = _bits(_loop_cont_frac, 1e6, 1e6, 0.4999995)
    assert message.startswith("DomainError: incomplete Beta continued fraction failed to converge")
    assert _bits(_beta_cont_frac, 1e6, 1e6, 0.4999995) == message


@given(
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_cont_frac_is_the_textbook_loop_bitwise_on_draws(a, b, frac):
    x = frac * (a + 1.0) / (a + b + 2.0)
    assert _bits(_beta_cont_frac, a, b, x) == _bits(_loop_cont_frac, a, b, x)


# ------------------------------------------------------------ inv_inc_beta


def test_inv_inc_beta_endpoints():
    assert inv_inc_beta(0.7, 0.6, 0.0) == 0.0
    assert inv_inc_beta(0.7, 0.6, beta(0.7, 0.6)) == 1.0


def test_inv_inc_beta_symmetric_midpoint():
    assert inv_inc_beta(0.5, 0.5, math.pi / 2.0) == pytest.approx(0.5, abs=1e-12)


def test_inv_inc_beta_residual_bound():
    for a, b in [(0.5, 0.5), (0.55, 0.91), (2.0 / 3.0, 0.8), (1.0, 0.5)]:
        total = beta(a, b)
        for frac in (1e-6, 0.01, 0.3, 0.5, 0.9, 0.999):
            target = frac * total
            x = inv_inc_beta(a, b, target)
            assert abs(inc_beta(a, b, x) - target) < 1e-12 * total


def test_inv_inc_beta_solves_targets_near_the_total_on_the_other_side():
    # with b < 1 the root of a target near B(a, b) sits where doubles near
    # x = 1 are too sparse to meet the residual bound, and a midpoint that
    # rounded to 1 raised a raw ValueError from log1p(-x); such a target is
    # solved as B_(1-x)(b, a) = B(a, b) - target, with the bound on that side
    a, b = 0.5, 0.6
    total = beta(a, b)
    xs = []
    for k in range(1, 320):
        target = total * (1.0 - 2.0 ** (-k / 6.0))
        x = inv_inc_beta(a, b, target)
        if target > 0.5 * total:
            low = inv_inc_beta(b, a, total - target)
            assert x == 1.0 - low
            assert abs(inc_beta(b, a, low) - (total - target)) <= 1e-13 * total
        xs.append(x)
    assert xs == sorted(xs) and 0.0 < xs[0] and xs[-1] <= 1.0


def test_inv_inc_beta_non_convergence_raises(monkeypatch):
    # a forward function that never meets the target must not be answered
    # with the last iterate (it used to return 2.3e-61 here)
    import fracmech.specfun as specfun

    true_inc_beta = specfun.inc_beta
    monkeypatch.setattr(specfun, "inc_beta", lambda a, b, x: true_inc_beta(a, b, x) + 1.0)
    with pytest.raises(DomainError, match=r"a=0\.5, b=0\.7, target=0\.3: residual"):
        inv_inc_beta(0.5, 0.7, 0.3)


def _counting_inc_beta(monkeypatch):
    """Wrap specfun.inc_beta; returns the list of x it was evaluated at."""
    import fracmech.specfun as specfun

    true_inc_beta = specfun.inc_beta
    xs = []

    def counting(a, b, x):
        xs.append(x)
        return true_inc_beta(a, b, x)

    monkeypatch.setattr(specfun, "inc_beta", counting)
    return xs


def test_inv_inc_beta_takes_few_evaluations_on_the_oscillator_domain(monkeypatch):
    # the series start and Halley steps; the linear start and Newton steps
    # took 7.19 evaluations on average and 24 at worst on this grid
    xs = _counting_inc_beta(monkeypatch)
    counts = []
    for beta_exp in GRID:
        for alpha in GRID:
            a, b = 1.0 / beta_exp, 1.0 / alpha
            total = beta(a, b)
            for frac in (1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6):
                target = frac * total
                xs.clear()
                x = inv_inc_beta(a, b, target)
                counts.append(len(xs))
                # the residual on the side solved, as inv_inc_beta solves it
                if target > 0.5 * total:
                    a_s, b_s, target_s = b, a, total - target
                    x_s = inv_inc_beta(b, a, target_s)
                    assert x == 1.0 - x_s
                else:
                    a_s, b_s, target_s, x_s = a, b, target, x
                assert abs(inc_beta(a_s, b_s, x_s) - target_s) <= 1e-13 * total
    assert sum(counts) / len(counts) <= 3.5 and max(counts) <= 6


def test_inv_inc_beta_stops_when_the_bracket_holds_no_double():
    # the root of B_y(0.05, 0.001) = 0.3 B lies within 1e-146 of y = 1; the
    # bisection midpoint of (1 - 2^-53, 1) rounds to 1, and the next
    # derivative raised a raw ValueError from log1p(-1)
    a, b = 0.001, 0.05
    total = beta(a, b)
    target = 0.7 * total
    x = inv_inc_beta(a, b, target)
    assert 1.0 - x == math.nextafter(1.0, 0.0)
    assert inc_beta(b, a, 1.0 - x) < total - target


def test_inv_inc_beta_answers_or_refuses_on_a_wide_grid(monkeypatch):
    # far outside the oscillator domain: an x in [0, 1] or a DomainError,
    # and never a forward evaluation at an end of the bracket
    xs = _counting_inc_beta(monkeypatch)
    fracs = (1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0 - 1e-6)
    for a in (0.05, 0.3, 0.5, 0.7, 1.0, 2.0, 5.0, 30.0):
        for b in (0.05, 0.3, 0.5, 0.7, 1.0, 2.0, 5.0, 30.0):
            total = beta(a, b)
            for frac in fracs:
                try:
                    x = inv_inc_beta(a, b, frac * total)
                except DomainError:
                    continue
                assert 0.0 <= x <= 1.0
    assert xs and all(0.0 < x < 1.0 for x in xs)


def test_inv_inc_beta_rejects_out_of_range():
    with pytest.raises(DomainError):
        inv_inc_beta(0.5, 0.5, -1e-9)
    with pytest.raises(DomainError):
        inv_inc_beta(0.5, 0.5, beta(0.5, 0.5) * (1.0 + 1e-9))


@given(
    st.floats(min_value=0.5, max_value=1.0),
    st.floats(min_value=0.5, max_value=1.0),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_inv_inc_beta_roundtrip(a, b, x):
    assert inv_inc_beta(a, b, inc_beta(a, b, x)) == pytest.approx(x, abs=1e-10)


# ------------------------------------------------------------------ hyp2f1


def test_hyp2f1_at_zero():
    assert hyp2f1(0.5, 0.5, 1.5, 0.0) == 1.0


def test_hyp2f1_arcsin_identity():
    # x * F(1/2, 1/2; 3/2; x^2) = arcsin(x), sampled well inside (0, 1)
    for i in range(1, 21):
        x = 0.99 * i / 20.0
        lhs = x * hyp2f1(0.5, 0.5, 1.5, x * x)
        assert lhs == pytest.approx(math.asin(x), rel=1e-12)


def test_hyp2f1_frozen_values():
    # 40-digit references for the restricted signature F(mu, 1-nu; mu+1; x)
    assert hyp2f1(0.5, 0.5, 1.5, 0.09) == pytest.approx(1.015642180051325, rel=1e-13)
    assert hyp2f1(2.0 / 3.0, 1.0 - 1.0 / 1.75, 5.0 / 3.0, 0.7) == pytest.approx(
        1.1886945500836915, rel=1e-13
    )
    assert hyp2f1(1.0 / 1.1, 0.5, 1.0 / 1.1 + 1.0, 0.25) == pytest.approx(
        1.0682274432476518, rel=1e-13
    )


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta_exp", GRID)
def test_hyp2f1_integral_identity_on_grid(alpha, beta_exp):
    # mu * B_x(mu, nu) / x^mu rearranges the hypergeometric form; checking
    # against the quadrature oracle keeps this independent of inc_beta
    mu, nu = 1.0 / beta_exp, 1.0 / alpha
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        expected = mu * oracle_inc_beta(mu, nu, x) / x**mu
        assert hyp2f1(mu, 1.0 - nu, mu + 1.0, x) == pytest.approx(expected, rel=1e-10)


def test_hyp2f1_rejects_malformed_signature():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 2.0, 0.1)  # third argument must be mu + 1
    with pytest.raises(DomainError):
        hyp2f1(-0.5, 0.5, 0.5, 0.1)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 1.5, 1.5, 0.1)  # implies nu < 0
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.5, 1.5)


@pytest.mark.parametrize("x", [1e-320, 1e-310, 1e-9])
def test_ln_gamma_near_zero_matches_lgamma(x):
    # the reflection formula overflows pi / sin(pi x) at subnormal x
    assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-14)


def test_beta_beyond_the_float_range_is_domain_error():
    # B(1e-320, 1) = 1e320
    with pytest.raises(DomainError, match=r"beta\(1e-320, 1.0\)"):
        beta(1e-320, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ln_gamma(math.inf),
        lambda: ln_gamma(1e308),
        lambda: beta(math.inf, 1.0),
        lambda: beta(1e308, 1.0),
    ],
    ids=["ln_gamma_inf", "ln_gamma_overflow", "beta_inf", "beta_overflow"],
)
def test_gamma_beyond_the_float_range_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: inc_beta(1e-310, 0.5, 0.1), r"inc_beta\(1e-310, 0\.5, 0\.1\) overflows the float range"),
        (lambda: inc_beta(5e-324, 1.0, 0.2), r"inc_beta\(5e-324, 1\.0, 0\.2\) overflows the float range"),
        (lambda: hyp2f1(1e-310, 0.5, 1.0, 0.3), r"inc_beta\(1e-310, 0\.5, 0\.3\) overflows the float range"),
        (lambda: hyp2f1(2.0, 0.5, 3.0, 1e-200), r"hyp2f1\(2\.0, 0\.5, 3\.0, 1e-200\): x\^mu underflows to 0"),
        (lambda: hyp2f1(1000.0, 0.5, 1001.0, 1e-300), r"x\^mu underflows to 0"),
    ],
    ids=["inc_beta_tiny_a", "inc_beta_least_a", "hyp2f1_tiny_mu", "hyp2f1_power_2", "hyp2f1_power_1000"],
)
def test_specfun_beyond_the_float_range_is_domain_error(call, message):
    # B_x ~ x^a / a overflows as a -> 0, and x^mu underflows to 0 at small x
    with pytest.raises(DomainError, match=message):
        call()


def test_inc_beta_names_the_non_finite_parameter():
    with pytest.raises(DomainError, match=r"a=inf, b=1\.0"):
        inc_beta(math.inf, 1.0, 0.5)


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta_exp", GRID)
def test_inc_beta_matches_scipy_at_small_x(alpha, beta_exp):
    # the continued fraction alone must hold accuracy down to the subnormals
    from scipy.special import beta as sp_beta
    from scipy.special import betainc

    a, b = 1.0 / beta_exp, 1.0 / alpha
    for x in (1e-300, 1e-100, 1e-12, 1e-6, 9.9e-5):
        expected = float(betainc(a, b, x) * sp_beta(a, b))
        assert inc_beta(a, b, x) == pytest.approx(expected, rel=1e-12, abs=0.0)
