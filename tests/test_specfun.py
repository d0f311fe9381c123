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

from fracmech import BetaArgs, DomainError, beta, hyp2f1, inc_beta, inv_inc_beta, ln_gamma

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


def test_inc_beta_accepts_args_struct():
    args = BetaArgs(a=0.5, b=0.5, x=0.5)
    assert inc_beta(args) == inc_beta(0.5, 0.5, 0.5)


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


def test_inv_inc_beta_non_convergence_raises(monkeypatch):
    # a forward function that never meets the target must not be answered
    # with the last iterate (it used to return 2.3e-61 here)
    import fracmech.specfun as specfun

    true_inc_beta = specfun.inc_beta
    monkeypatch.setattr(specfun, "inc_beta", lambda a, b, x: true_inc_beta(a, b, x) + 1.0)
    with pytest.raises(DomainError, match=r"a=0\.5, b=0\.7, target=0\.3: residual"):
        inv_inc_beta(0.5, 0.7, 0.3)


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
