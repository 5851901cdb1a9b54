"""Frailty dispersion estimation and the sandwich covariance."""

import math

import numpy as np
import pytest

from countpred import (
    DesignError,
    DivergenceError,
    DomainError,
    OverdispersedFit,
    estimate_xi,
    expected_info,
    fit,
    fit_overdispersed,
    gen_frailty_counts,
    overdispersed_moments,
    rate_and_variance,
    region_overdispersed,
    region_regression,
    sandwich_covariance,
)

rng = np.random.default_rng(4816)


def overdispersed_case(n=300, xi=4.0, seed=7):
    r = np.random.default_rng(seed)
    w = np.linspace(0.0, 2.0, n)
    X = np.column_stack([np.ones(n), w])
    rates = np.exp(1.2 + 0.6 * w)
    y = gen_frailty_counts(rates, xi, r)
    y = np.maximum(y, 0)
    return fit(X, y)


def test_moments():
    assert overdispersed_moments(5.0, math.inf) == (5.0, 5.0)
    assert overdispersed_moments(5.0, 1.0) == (5.0, 35.0)
    var = [overdispersed_moments(5.0, xi)[1] for xi in (0.5, 1.0, 2.0, 8.0, 1e6)]
    assert all(a > b for a, b in zip(var, var[1:]))
    with pytest.raises(DomainError):
        overdispersed_moments(0.0, 1.0)
    with pytest.raises(DomainError):
        overdispersed_moments(5.0, 0.0)


def test_estimate_xi_closed_form():
    base = overdispersed_case()
    rates = base.fitted_rates
    y = base.y.astype(float)
    want = np.sum(rates * (1 + rates)) / np.sum((y - rates) ** 2 - rates)
    assert estimate_xi(base) == pytest.approx(want, rel=1e-12)


def test_estimate_xi_underdispersed_sentinel():
    base = fit(np.ones((4, 1)), [5, 5, 5, 5])    # residuals identically zero
    assert estimate_xi(base) == math.inf
    od = fit_overdispersed(base)
    assert od.xi == math.inf and od.sandwich is None


def test_sandwich_structure():
    base = overdispersed_case()
    od = fit_overdispersed(base)
    k = base.theta.size
    n = base.X.shape[0]
    # theta-block of Omega is the negative mean information
    np.testing.assert_allclose(od.omega_hat[:k, :k],
                               -expected_info(base.theta, base.X) / n,
                               rtol=1e-12)
    # theta rows carry no xi derivative
    np.testing.assert_array_equal(od.omega_hat[:k, k], 0.0)
    np.testing.assert_allclose(od.sandwich, od.sandwich.T, atol=1e-8)
    assert np.all(np.diag(od.sandwich) > 0)


def test_sandwich_sigma_is_score_outer_product():
    base = overdispersed_case(n=40)
    od = fit_overdispersed(base)
    k = base.theta.size
    rates = base.fitted_rates
    y = base.y.astype(float)
    disp = 1.0 + (1.0 + rates) / od.xi
    sigma = np.zeros((k + 1, k + 1))
    for i in range(40):
        u = np.concatenate([base.X[i] * (y[i] - rates[i]),
                            [(y[i] - rates[i]) ** 2 - rates[i] * disp[i]]])
        sigma += np.outer(u, u)
    np.testing.assert_allclose(od.sigma_hat, sigma / 40, rtol=1e-10)
    np.testing.assert_allclose(
        od.sandwich,
        sandwich_covariance(base, od.xi), rtol=1e-12)


def test_prediction_row_of_wrong_length_is_a_design_error():
    base = overdispersed_case(n=40)
    od = fit_overdispersed(base)
    assert math.isfinite(od.xi)
    for x0 in ([1.0], [1.0, 0.5, 0.25], [[1.0, 0.5]]):
        with pytest.raises(DesignError):
            rate_and_variance(base, x0)
        with pytest.raises(DesignError):
            region_regression(base, x0, 0.05, "sqrt")
        with pytest.raises(DesignError):
            region_overdispersed(od, x0, 0.05)


def test_region_nonfinite_or_negative_variance_diverges():
    base = fit(np.ones((10, 1)), [5] * 10)
    negative = OverdispersedFit(theta=base.theta, xi=1.0,
                                sandwich=np.array([[-100.0, 0.0], [0.0, 1.0]]),
                                sigma_hat=None, omega_hat=None, base_fit=base)
    with pytest.raises(DivergenceError):
        region_overdispersed(negative, [1.0], 0.05)
    for eta in (400.0, 800.0):     # variance overflows; rate overflows
        huge = OverdispersedFit(theta=np.array([eta]), xi=1.0,
                                sandwich=np.array([[0.8, 0.0], [0.0, 1.0]]),
                                sigma_hat=None, omega_hat=None, base_fit=base)
        with pytest.raises(DivergenceError):
            region_overdispersed(huge, [1.0], 0.05)


def test_region_matches_variance_formula():
    base = fit(np.ones((10, 1)), [5] * 10)
    od = OverdispersedFit(theta=base.theta, xi=1.0,
                          sandwich=np.array([[0.8, 0.0], [0.0, 1.0]]),
                          sigma_hat=None, omega_hat=None, base_fit=base)
    region = region_overdispersed(od, [1.0], 0.05)
    var = 5.0 * 6.0 / 1.0 + 5.0 + 25.0 * 0.8 / 10.0
    z = 1.959963984540054
    assert region.realized_lo == math.ceil(max(0.0, 5.0 - z * math.sqrt(var)))
    assert region.realized_hi == math.floor(5.0 + z * math.sqrt(var))
    with pytest.raises(DomainError):
        region_overdispersed(od, [1.0], 0.0)


def test_region_reduces_to_normal_for_large_xi():
    r = np.random.default_rng(11)
    X = np.column_stack([np.ones(400), np.linspace(0, 1, 400)])
    y = r.poisson(np.exp(2.0 + 0.5 * X[:, 1]))
    base = fit(X, y)
    od = OverdispersedFit(theta=base.theta, xi=1e12,
                          sandwich=sandwich_covariance(base, 1e12),
                          sigma_hat=None, omega_hat=None, base_fit=base)
    for w0 in (0.2, 0.5, 0.9):
        x0 = np.array([1.0, w0])
        wide = region_overdispersed(od, x0, 0.05)
        plain = region_regression(base, x0, 0.05, "normal")
        assert (wide.realized_lo, wide.realized_hi) == \
            (plain.realized_lo, plain.realized_hi)


def test_region_sentinel_delegates_exactly():
    base = fit(np.ones((6, 1)), [4, 4, 4, 4, 4, 4])
    od = fit_overdispersed(base)
    assert od.xi == math.inf
    a = region_overdispersed(od, [1.0], 0.05)
    b = region_regression(base, [1.0], 0.05, "normal")
    assert (a.realized_lo, a.realized_hi) == (b.realized_lo, b.realized_hi)
    assert a.length == b.length


def test_gen_frailty_counts():
    r1 = np.random.default_rng(99)
    r2 = np.random.default_rng(99)
    a = gen_frailty_counts(np.full(50, 7.0), 4.0, r1)
    b = gen_frailty_counts(np.full(50, 7.0), 4.0, r2)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.int64 and np.all(a >= 0)
    big = gen_frailty_counts(np.full(20000, 7.0), 4.0, np.random.default_rng(5))
    assert 6.0 <= big.mean() <= 7.1
    assert 18.5 <= big.var(ddof=1) <= 23.5     # lam (1 + (1+lam)/xi) = 21
    with pytest.raises(DomainError):
        gen_frailty_counts([0.0, 1.0], 4.0, rng)
    with pytest.raises(DomainError):
        gen_frailty_counts([1.0], 0.0, rng)
