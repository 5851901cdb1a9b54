"""Special-function kernels against scipy oracles."""

import math

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st
from hypothesis import given, strategies as hs

from countpred import NonConvergenceError, special
from countpred.special import (
    chisq_sf,
    lgamma,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    poisson_cdf,
    poisson_log_pmf,
    poisson_pmf,
    reg_upper_gamma,
)

LAMBDAS = (0.1, 0.5, 1.0, 2.5, 5.0, 17.0, 100.0, 1234.5)


def test_lgamma_matches_scipy():
    xs = np.concatenate([np.linspace(0.05, 20, 81), [50.0, 171.5, 1000.0]])
    for x in xs:
        assert lgamma(float(x)) == pytest.approx(float(sp.gammaln(x)), rel=1e-12, abs=1e-12)


def test_lgamma_factorials():
    assert lgamma(1.0) == 0.0
    assert lgamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)


@given(hs.floats(min_value=0.1, max_value=300.0))
def test_lgamma_recurrence(x):
    assert lgamma(x + 1.0) - lgamma(x) == pytest.approx(math.log(x), rel=1e-10, abs=1e-10)


def test_poisson_pmf_values():
    assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert poisson_pmf(5, 5.0) == pytest.approx(math.exp(-5.0) * 5**5 / 120.0, rel=1e-13)
    for lam in LAMBDAS:
        ks = np.arange(0, int(lam + 8 * math.sqrt(lam) + 10))
        want = st.poisson(lam).logpmf(ks)
        got = [poisson_log_pmf(int(k), lam) for k in ks]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_poisson_pmf_normalization():
    total = sum(poisson_pmf(k, 30.0) for k in range(201))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_poisson_cdf_against_scipy():
    assert poisson_cdf(-1.0, 5.0) == 0.0
    assert poisson_cdf(1.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    assert poisson_cdf(1e6, 5.0) == pytest.approx(1.0, abs=1e-12)
    for lam in LAMBDAS:
        for w in (0.0, 1.0, lam / 2, lam, lam + 3 * math.sqrt(lam), 2 * lam + 9):
            assert poisson_cdf(w, lam) == pytest.approx(
                float(st.poisson(lam).cdf(math.floor(w))), rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("lam", [3e4, 1e5, 1e6])
def test_poisson_cdf_converges_at_large_rates(lam):
    # near m = lam both incomplete-gamma branches need about 8 sqrt(lam) terms
    for z in range(-3, 4):
        m = math.floor(lam + z * math.sqrt(lam))
        assert poisson_cdf(m, lam) == pytest.approx(float(st.poisson.cdf(m, lam)), abs=1e-9)


@pytest.mark.parametrize("x", [90.0, 110.0], ids=["series", "continued_fraction"])
def test_incomplete_gamma_raises_when_its_term_budget_runs_out(monkeypatch, x):
    monkeypatch.setattr(special, "_gamma_terms", lambda a: 20)
    with pytest.raises(NonConvergenceError):
        reg_upper_gamma(100.0, x)


@given(hs.floats(min_value=0.05, max_value=500.0),
       hs.floats(min_value=-2.0, max_value=600.0),
       hs.floats(min_value=0.5, max_value=30.0))
def test_poisson_cdf_monotone(lam, w, dw):
    a, b = poisson_cdf(w, lam), poisson_cdf(w + dw, lam)
    assert 0.0 <= a <= b <= 1.0


def test_normal_cdf_pdf_match_scipy():
    xs = np.linspace(-8, 8, 161)
    np.testing.assert_allclose([normal_cdf(float(x)) for x in xs],
                               st.norm.cdf(xs), rtol=0, atol=1e-14)
    np.testing.assert_allclose([normal_pdf(float(x)) for x in xs],
                               st.norm.pdf(xs), rtol=1e-12, atol=0)


def test_normal_quantile_values():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    ps = np.linspace(1e-6, 1 - 1e-6, 97)
    np.testing.assert_allclose([normal_quantile(float(p)) for p in ps],
                               st.norm.ppf(ps), rtol=1e-10, atol=1e-11)
    # deep tail: the erf-based refinement holds absolute, not relative, accuracy
    for p in (1e-10, 1e-8, 1 - 1e-8, 1 - 1e-10):
        assert normal_quantile(p) == pytest.approx(float(st.norm.ppf(p)), abs=1e-8)


@given(hs.floats(min_value=1e-8, max_value=0.5))
def test_normal_quantile_antisymmetry(p):
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=2e-9)


@given(hs.floats(min_value=-6.0, max_value=6.0))
def test_normal_quantile_inverts_cdf(x):
    assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)


def test_reg_upper_gamma_matches_scipy():
    for a in (0.5, 1.0, 2.5, 10.0, 100.0, 500.0):
        for x in (a / 4, a / 2, a, 1.5 * a, 3 * a + 5):
            assert reg_upper_gamma(a, x) == pytest.approx(
                float(sp.gammaincc(a, x)), rel=1e-11, abs=1e-14)


def test_chisq_sf_values():
    assert chisq_sf(0.0, 5) == 1.0
    assert chisq_sf(4.4685, 5) == pytest.approx(0.4841, abs=5e-4)
    for df in (1, 2, 5, 10, 40):
        for x in (0.3, 1.0, df / 2, float(df), 2.5 * df):
            assert chisq_sf(x, df) == pytest.approx(
                float(st.chi2.sf(x, df)), rel=1e-10, abs=1e-14)


@given(hs.floats(min_value=0.0, max_value=60.0), hs.floats(min_value=0.1, max_value=30.0))
def test_chisq_sf_decreasing(x, dx):
    assert chisq_sf(x + dx, 5) <= chisq_sf(x, 5) + 1e-15
