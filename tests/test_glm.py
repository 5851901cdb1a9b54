"""Poisson regression: finite-difference oracles and closed forms."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st

from countpred import glm
from countpred import (
    DesignError,
    DesignSpec,
    DiagnosticsError,
    DivergenceError,
    DomainError,
    GlmFit,
    NonConvergenceError,
    SingularityError,
    build_design,
    design_row,
    expected_info,
    fit,
    loglik,
    observed_info,
    parse_ecdc_csv,
    pmf_poisson,
    rate_and_variance,
    region_regression,
    region_smallest,
    residual_diagnostics,
    sandwich_covariance,
    score,
    weekday_of_daynum,
)
from countpred.forecast import _fit_for_cutoff
from countpred.simulate import REGRESSION_CASES, _draw_regression_instance

FIXTURE = (Path(__file__).resolve().parents[1] / "src" / "countpred" / "fixtures"
           / "us_covid_deaths_ecdc.csv")

rng = np.random.default_rng(61)


def make_case(n=40, order=2, days=True):
    w = np.linspace(0.0, 3.0, n)
    labels = [d % 7 for d in range(n)] if days else None
    X, spec = build_design(
        w, labels, DesignSpec(poly_order=order, include_day_factor=days,
                              standardize=True))
    theta_true = rng.normal(0.0, 0.3, X.shape[1])
    theta_true[0] = 1.5
    y = rng.poisson(np.exp(X @ theta_true))
    return X, y, spec


def test_score_matches_finite_differences():
    X, y, _ = make_case()
    theta = rng.normal(0.0, 0.2, X.shape[1])
    g = score(theta, X, y)
    h = 1e-6
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd = (loglik(theta + e, X, y) - loglik(theta - e, X, y)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-4)


def test_info_matches_finite_differences_of_score():
    X, y, _ = make_case(n=25, order=1)
    theta = rng.normal(0.0, 0.2, X.shape[1])
    info = observed_info(theta, X, y)
    h = 1e-6
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd = -(score(theta + e, X, y) - score(theta - e, X, y)) / (2 * h)
        np.testing.assert_allclose(info[:, j], fd, rtol=1e-5, atol=1e-3)
    np.testing.assert_allclose(info, expected_info(theta, X), rtol=0, atol=0)
    np.testing.assert_allclose(info, info.T, atol=1e-9)


def test_score_zero_at_intercept_mle():
    y = np.array([3, 0, 7, 2, 5])
    X = np.ones((5, 1))
    g = score([math.log(y.mean())], X, y)
    assert abs(g[0]) <= 1e-10
    # score vanishes identically when y equals the fitted rates
    Xc, _, _ = make_case(n=12, order=1, days=False)
    theta = np.array([0.3, -0.2])
    y_exact = np.exp(Xc @ theta)
    np.testing.assert_allclose(score(theta, Xc, y_exact), 0.0, atol=1e-10)


def test_intercept_info_closed_form():
    X = np.ones((9, 1))
    theta = [1.1]
    assert observed_info(theta, X)[0, 0] == pytest.approx(9 * math.exp(1.1), rel=1e-12)


def test_intercept_fit_closed_form():
    X = np.ones((3, 1))
    y = [2, 4, 6]
    res = fit(X, y)
    assert res.theta[0] == pytest.approx(math.log(4.0), abs=1e-10)
    assert res.converged
    want_ll = sum(yi * math.log(4.0) - 4.0 - math.lgamma(yi + 1) for yi in y)
    assert res.loglik == pytest.approx(want_ll, abs=1e-10)
    assert res.aic == pytest.approx(-2.0 * want_ll + 2.0, abs=1e-9)
    np.testing.assert_allclose(res.fitted_rates, 4.0, atol=1e-9)


def test_saturated_fit_reproduces_data():
    X = np.array([[1.0, 0.0], [1.0, 1.0]])
    res = fit(X, [3, 7])
    np.testing.assert_allclose(res.fitted_rates, [3.0, 7.0], atol=1e-8)


def test_fitted_total_matches_observed_total():
    X, y, _ = make_case(n=60, order=3)
    res = fit(X, y)
    assert res.fitted_rates.sum() == pytest.approx(float(y.sum()), abs=1e-6)


def test_loglik_and_fit_keep_the_per_call_factorial_term(monkeypatch):
    X, y, spec = make_case(n=60, order=3)
    y_f = y.astype(np.float64)
    theta = np.linalg.lstsq(X, np.log(y_f + 0.5), rcond=None)[0]
    eta = X @ theta
    direct = float(np.sum(y_f * eta - np.exp(eta)
                          - np.array([math.lgamma(v + 1.0) for v in y_f])))
    assert loglik(theta, X, y) == direct
    hoisted = fit(X, y, design=spec)
    # Reference: every line-search step recomputes ln y! from y.
    hoisted_loglik = glm._loglik
    monkeypatch.setattr(glm, "_loglik", lambda theta, X, y, lfact: hoisted_loglik(
        theta, X, y, np.array([math.lgamma(v + 1.0) for v in y])))
    reference = fit(X, y, design=spec)
    assert np.array_equal(hoisted.theta, reference.theta)
    assert hoisted.loglik == reference.loglik
    assert hoisted.iterations == reference.iterations


def test_fit_invariant_to_standardization():
    n = 50
    w = np.linspace(0.0, 4.0, n)
    labels = [d % 7 for d in range(n)]
    y = rng.poisson(np.exp(1.0 + 0.4 * w))
    lam = {}
    for standardize in (False, True):
        spec0 = DesignSpec(poly_order=2, include_day_factor=True,
                           standardize=standardize)
        X, spec = build_design(w, labels, spec0)
        res = fit(X, y, design=spec)
        x0 = design_row(2.0, "Friday", spec)
        lam[standardize] = rate_and_variance(res, x0)
    assert lam[True][0] == pytest.approx(lam[False][0], rel=1e-8)
    assert lam[True][1] == pytest.approx(lam[False][1], rel=1e-8)


def numpy_rep_rng(seed, rep):
    """numpy's own generator for replication rep of a run seeded seed."""
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def test_fit_invariant_to_column_order():
    # Reversing the columns changes only the rounding order; theta must
    # not move by more than a vanishing fraction of its standard error.
    for case, n in ((1, 200), (4, 30), (3, 30)):
        p, theta, w_dist = REGRESSION_CASES[case]
        worst = 0.0
        for rep in range(1000):
            powers, y, _, _ = _draw_regression_instance(p, theta, w_dist, n,
                                                        numpy_rep_rng(20200315, rep))
            X, _ = build_design(powers[:n, 1], None,
                                DesignSpec(poly_order=p, standardize=True))
            forward = fit(X, y)
            reverse = fit(X[:, ::-1], y)
            se = np.sqrt(np.diag(np.linalg.inv(forward.info_observed)))
            worst = max(worst, float(np.max(
                np.abs(forward.theta - reverse.theta[::-1]) / se)))
        assert worst <= 1e-9, (case, worst)


def fixture_fit(cutoff, standardize):
    series = parse_ecdc_csv(FIXTURE, country="US")
    design = DesignSpec(poly_order=5, include_day_factor=True, standardize=standardize)
    return _fit_for_cutoff(series, design, cutoff, False)[1]


def test_fixture_fit_independent_of_basis():
    for cutoff in (120, 137, 145, 153, 185):
        std, raw = fixture_fit(cutoff, True), fixture_fit(cutoff, False)
        np.testing.assert_allclose(std.fitted_rates, raw.fitted_rates, rtol=1e-10, atol=0)
    std = fixture_fit(137, True)
    assert np.max(np.abs(score(std.theta, std.X, std.y))) < 1e-6


def test_fixture_variance_independent_of_basis():
    # The parameter-uncertainty term rate * x0' I^-1 x0 of the variance
    # factor, the day after the cutoff and at days 154 and 199.  The two
    # fits' rates agree to about 1e-10; where the rate underflows the
    # term is 0 in both.
    for cutoff in (120, 137, 145, 153, 185):
        std, raw = fixture_fit(cutoff, True), fixture_fit(cutoff, False)
        for day in (cutoff + 1, 154, 199):
            term = []
            for res in (std, raw):
                x0 = design_row(float(day), weekday_of_daynum(day), res.design)
                term.append(rate_and_variance(res, x0)[1] - 1.0)
            assert term[0] == pytest.approx(term[1], rel=1e-9), (cutoff, day)


def test_fixture_fit_matches_high_precision_newton():
    mp = pytest.importorskip("mpmath")
    res = fixture_fit(137, True)
    with mp.workdps(60):
        # float64 -> mpf is exact, so this is Newton on the same data.
        X = mp.matrix(res.X.tolist())
        y = mp.matrix([int(v) for v in res.y])
        theta = mp.matrix(res.theta.tolist())
        for _ in range(20):
            rates = (X * theta).apply(mp.exp)
            g = X.T * (y - rates)
            if max(abs(v) for v in g) < mp.mpf("1e-40"):
                break
            weighted = mp.matrix([[X[i, j] * rates[i] for j in range(X.cols)]
                                  for i in range(X.rows)])
            theta += mp.lu_solve(X.T * weighted, g)
        else:
            pytest.fail("60-digit Newton did not reach a score below 1e-40")
        want = np.array([float(v) for v in (X * theta).apply(mp.exp)])
    np.testing.assert_allclose(res.fitted_rates, want, rtol=1e-10, atol=0)


def test_build_design_layout():
    X, spec = build_design([1.0, 2.0, 3.0], None,
                           DesignSpec(poly_order=1, standardize=True))
    np.testing.assert_allclose(X, [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])
    assert spec.column_means == (0.0, 2.0)
    assert spec.column_sds == (1.0, 1.0)
    np.testing.assert_allclose(design_row(2.0, None, spec), [1.0, 0.0])
    np.testing.assert_allclose(design_row(3.0, None, spec), X[2])


def test_build_design_day_factor():
    labels = ["Monday", "Tuesday", "Sunday"]
    X, spec = build_design([0.0, 1.0, 2.0], labels,
                           DesignSpec(poly_order=0, include_day_factor=True))
    assert X.shape == (3, 7)
    np.testing.assert_allclose(X[0], [1, 0, 0, 0, 0, 0, 0])   # Monday baseline
    np.testing.assert_allclose(X[1], [1, 1, 0, 0, 0, 0, 0])   # Tuesday dummy
    np.testing.assert_allclose(X[2], [1, 0, 0, 0, 0, 0, 1])   # Sunday dummy
    np.testing.assert_allclose(design_row(5.0, 6, spec), X[2])
    with pytest.raises(DesignError):
        build_design([0.0, 1.0], ["Monday", "Noday"],
                     DesignSpec(poly_order=0, include_day_factor=True))
    with pytest.raises(DesignError):
        build_design([2.0, 2.0, 2.0], None, DesignSpec(poly_order=1, standardize=True))
    with pytest.raises(DesignError):
        build_design([1.0, 2.0], None, DesignSpec(poly_order=-1))


def per_column_design(w, labels, order, days):
    """Standardized design, one column at a time."""
    cols = [np.ones(len(w))] + [np.asarray(w, dtype=np.float64) ** j
                                for j in range(1, order + 1)]
    if days:
        idx = np.array(labels)
        cols += [(idx == d).astype(np.float64) for d in range(1, 7)]
    X = np.column_stack(cols)
    means, sds = np.zeros(X.shape[1]), np.ones(X.shape[1])
    for j in range(1, X.shape[1]):
        sd = float(X[:, j].std(ddof=1))
        if sd == 0.0:
            continue
        means[j] = float(X[:, j].mean())
        sds[j] = sd
        X[:, j] = (X[:, j] - means[j]) / sds[j]
    return X, tuple(means), tuple(sds)


@pytest.mark.parametrize("order, days", [(0, True), (1, False), (3, False),
                                         (5, False), (5, True)])
def test_build_design_matches_per_column_standardization(order, days):
    r = np.random.default_rng(order)
    for w in (r.random(30), 2.0 + 2.0 * r.standard_normal(200), np.arange(50.0) + 60.0,
              r.random(7)):
        # Never a Sunday: the Sunday dummy is a constant column.
        labels = [int(d) % 6 for d in r.integers(0, 6, w.size)]
        X, spec = build_design(w, labels if days else None,
                               DesignSpec(poly_order=order, include_day_factor=days,
                                          standardize=True))
        want, means, sds = per_column_design(w, labels, order, days)
        assert np.array_equal(X, want)
        assert X.flags.c_contiguous
        assert spec.column_means == means and spec.column_sds == sds
        assert (spec.column_sds[-1] == 1.0) == days


def test_build_design_zero_variance_error_names_the_column():
    spec = DesignSpec(poly_order=3, standardize=True)
    with pytest.raises(DesignError, match=r"w\^1 "):
        build_design([2.0, 2.0, 2.0], None, spec)
    with pytest.raises(DesignError, match=r"w\^2 "):
        build_design([-1.0, 1.0, -1.0, 1.0], None, spec)


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("standardize", [False, True])
def test_design_row_is_its_row_of_the_design(order, standardize):
    r = np.random.default_rng(order)
    for _ in range(20):
        w = 3.0 * r.standard_normal(30)
        X, spec = build_design(w, None, DesignSpec(poly_order=order,
                                                   standardize=standardize))
        for i, w0 in enumerate(w):
            assert np.array_equal(design_row(w0, None, spec), X[i])


def test_count_log_factorials_equal_lgamma():
    cap = glm._LOG_FACTORIAL_CAP
    for y in ([0, 1, 2, 7, cap - 1], [0, 3, cap - 1, cap, cap + 1, 10**6], [10**7], []):
        y = np.asarray(y, dtype=np.float64)
        assert np.array_equal(glm._count_log_factorials(y),
                              np.array([math.lgamma(v + 1.0) for v in y]))


def test_weekday_labels_by_index_and_by_name_in_any_case():
    spec = DesignSpec(poly_order=0, include_day_factor=True)
    w = np.zeros(7)
    by_index, _ = build_design(w, list(range(7)), spec)
    by_index_np, _ = build_design(w, list(np.arange(7)), spec)
    names = [" monday", "TUESDAY ", "Wednesday", "thursday", "\tFriDay\n",
             "saturday", "Sunday"]
    by_name, _ = build_design(w, names, spec)
    assert np.array_equal(by_index, by_name) and np.array_equal(by_index, by_index_np)
    assert np.array_equal(by_index[:, 1:], np.eye(7)[:, 1:])
    with pytest.raises(DesignError, match=r"^weekday index out of range 0\.\.6: 7$"):
        build_design(w, [0, 1, 2, 3, 4, 5, 7], spec)
    with pytest.raises(DesignError, match=r"^weekday index out of range 0\.\.6: -1$"):
        build_design(w, [-1, 1, 2, 3, 4, 5, 6], spec)
    with pytest.raises(DesignError, match=r"^invalid weekday label: 'Mon'$"):
        build_design(w, ["Mon"] + names[1:], spec)
    with pytest.raises(DesignError, match=r"^invalid weekday label: 1\.0$"):
        build_design(w, [1.0] + names[1:], spec)


def test_intercept_variance_factor():
    n = 10
    res = fit(np.ones((n, 1)), [5] * n)
    lam0, vhat = rate_and_variance(res, [1.0])
    assert lam0 == pytest.approx(5.0, rel=1e-10)
    assert vhat == pytest.approx(1.0 + 1.0 / n, rel=1e-12)


def test_region_regression_variants():
    res = fit(np.ones((10, 1)), [5] * 10)      # rate 5, factor 1.1
    normal = region_regression(res, [1.0], 0.05, "normal")
    assert (normal.realized_lo, normal.realized_hi) == (1, 9)
    sqrt_r = region_regression(res, [1.0], 0.05, "sqrt")
    assert (sqrt_r.realized_lo, sqrt_r.realized_hi) == (2, 10)
    plug = region_regression(res, [1.0], 0.05, "smallest-plugin", u=0.0)
    direct = region_smallest(pmf_poisson(5.0), 0.05, u=0.0)
    assert (plug.realized_lo, plug.realized_hi) == (direct.realized_lo, direct.realized_hi)
    with pytest.raises(DomainError):
        region_regression(res, [1.0], 0.05, "widest")
    with pytest.raises(DomainError):
        region_regression(res, [1.0], 1.0, "normal")


def test_region_regression_rejects_u_outside_the_unit_interval():
    small = fit(np.ones((10, 1)), [5] * 10)
    large = fit(np.ones((10, 1)), [3_000_000] * 10)     # above the enumeration limit
    assert rate_and_variance(large, [1.0])[0] > glm._ENUM_LIMIT
    for res in (small, large):
        for variant in ("normal", "sqrt", "smallest-plugin"):
            for u in (-0.1, 1.5):
                with pytest.raises(DomainError):
                    region_regression(res, [1.0], 0.05, variant, u)
            assert region_regression(res, [1.0], 0.05, variant, 1.0) is not None


def diag_fit(residuals):
    n = len(residuals)
    return GlmFit(theta=np.zeros(1), info_observed=np.eye(1), loglik=0.0,
                  aic=0.0, fitted_rates=np.ones(n),
                  residuals=np.asarray(residuals, dtype=np.float64), design=None,
                  converged=True, iterations=1, X=np.ones((n, 1)),
                  y=np.ones(n, dtype=np.int64))


def test_a_fit_built_without_its_basis_raises_design_error():
    hand_built = diag_fit([-1.0, 1.0] * 5)
    with pytest.raises(DesignError, match="QR basis"):
        rate_and_variance(hand_built, [1.0])
    with pytest.raises(DesignError, match="QR basis"):
        sandwich_covariance(hand_built, 2.0)


def test_diagnostics_balanced_table():
    res = diag_fit([-1.0, 1.0] * 18)
    d = residual_diagnostics(res)
    np.testing.assert_array_equal(d.table, np.full((6, 2), 3))
    assert d.statistic == pytest.approx(0.0, abs=1e-12)
    assert d.p_value == pytest.approx(1.0, abs=1e-12)
    assert d.df == 5


def test_diagnostics_bin_edges():
    res = diag_fit(rng.normal(size=76))
    d = residual_diagnostics(res)
    assert d.bin_edges == (13, 26, 38, 51, 64, 76)
    assert tuple(np.diff((0,) + d.bin_edges)) == (13, 13, 12, 13, 13, 12)
    assert d.table.sum() == 76


def test_diagnostics_against_scipy():
    res = diag_fit(rng.normal(size=76))
    d = residual_diagnostics(res)
    stat, p, df, _ = st.chi2_contingency(d.table, correction=False)
    assert d.statistic == pytest.approx(stat, rel=1e-10)
    assert d.p_value == pytest.approx(p, rel=1e-8)
    assert d.df == df


def test_diagnostics_errors():
    with pytest.raises(DomainError):
        residual_diagnostics(diag_fit(rng.normal(size=20)), n_bins=1)
    with pytest.raises(DiagnosticsError):
        residual_diagnostics(diag_fit([1.0, -1.0, 1.0]), n_bins=6)
    with pytest.raises(DiagnosticsError):
        residual_diagnostics(diag_fit([1.0] * 30))    # no nonpositive column


def test_rate_and_variance_turns_a_failed_cholesky_into_singularity(monkeypatch):
    res = fit(np.ones((10, 1)), [5] * 10)

    def not_positive_definite(A):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    with pytest.raises(SingularityError):
        rate_and_variance(res, [1.0])


def test_fit_input_validation():
    with pytest.raises(DomainError):
        fit(np.ones((3, 1)), [1, -2, 3])
    with pytest.raises(DomainError):
        fit(np.ones((3, 1)), [1.5, 2.0, 3.0])
    with pytest.raises(DesignError):
        fit(np.ones(3), [1, 2, 3])
    with pytest.raises(DesignError):
        fit(np.ones((2, 3)), [1, 2])
    with pytest.raises(SingularityError):
        fit(np.column_stack([np.ones(5), np.ones(5)]), [1, 2, 3, 2, 1])
    with pytest.raises(SingularityError):
        fit(np.column_stack([np.ones(5), np.zeros(5)]), [1, 2, 3, 2, 1])
    with pytest.raises(SingularityError):
        fit(np.column_stack([np.ones(4), [0.0, 1.0, np.nan, 3.0]]), [1, 2, 3, 4])
    # No MLE exists: the rates of the zero counts vanish and the information
    # becomes singular in float64 before the stop rule fires.
    with pytest.raises(SingularityError):
        fit(np.column_stack([np.ones(3), [27.126, 143.48, 7.14]]), [0, 0, 480342])
    # All-zero counts on a design spanning the constant column: no MLE.
    with pytest.raises(NonConvergenceError):
        fit(np.ones((5, 1)), [0] * 5)
    X, _ = build_design(np.linspace(0.0, 2.0, 9), None,
                        DesignSpec(poly_order=2, standardize=True))
    with pytest.raises(NonConvergenceError):
        fit(X, [0] * 9)
    with pytest.raises(DivergenceError):
        loglik([800.0], np.ones((2, 1)), [1, 2])
