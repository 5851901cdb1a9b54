"""Special-function kernels against scipy oracles."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st
from hypothesis import given, strategies as hs

from countpred import DomainError, NonConvergenceError, alpha_star, special
from countpred.regions import (
    build_smallest,
    pmf_poisson,
    region_nonrandomized,
    region_normal_known,
    region_sqrt_known,
)
from countpred.special import (
    TAIL_MASS,
    chisq_sf,
    normal_quantile,
    poisson_cdf,
    poisson_log_pmf,
)

LAMBDAS = (0.1, 0.5, 1.0, 2.5, 5.0, 17.0, 100.0, 1234.5)


# The package takes ln Gamma from math.lgamma; these pin the accuracy it relies on.
def test_lgamma_matches_scipy():
    xs = np.concatenate([np.linspace(0.05, 20, 81), [50.0, 171.5, 1000.0]])
    for x in xs:
        assert math.lgamma(float(x)) == pytest.approx(float(sp.gammaln(x)),
                                                      rel=1e-12, abs=1e-12)


def test_lgamma_factorials():
    assert math.lgamma(1.0) == 0.0
    assert math.lgamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)


@given(hs.floats(min_value=0.1, max_value=300.0))
def test_lgamma_recurrence(x):
    assert math.lgamma(x + 1.0) - math.lgamma(x) == pytest.approx(math.log(x),
                                                                  rel=1e-10, abs=1e-10)


def poisson_pmf(k, lam):
    return math.exp(poisson_log_pmf(k, lam))


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


def test_poisson_cdf_without_a_nonnegative_bound_is_zero():
    # no element reaches the tail sum
    assert poisson_cdf([], 2.0).shape == (0,)
    assert poisson_cdf([[-1.0], [-3.5]], [2.0, 1e6]).tolist() == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("w", [9e35, 1e300])
def test_poisson_cdf_of_a_huge_bound_is_one(w):
    # a bound past 2**53 is taken as 2**53
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poisson_cdf(w, 5.0) == 1.0


def test_poisson_cdf_of_a_tiny_rate_and_a_large_bound_does_not_overflow():
    # an upper-side element divides x by a + j, never a + j by x = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poisson_cdf(1e10, 1e-300) == 1.0
        assert poisson_cdf([1e10, 3.0], [1e-300, 5.0]).tolist() == [1.0, poisson_cdf(3.0, 5.0)]


def test_poisson_cdf_of_a_bound_near_the_float_max_returns():
    # Unclipped, lgamma(m + 1) overflowed from about 1e306 on, and near 1e308
    # 1/(m + 1) is subnormal, so the sum's stop test never held.  A hang is
    # caught by the timeout of a separate process.
    script = ("import sys, warnings\n"
              "warnings.simplefilter('error')\n"
              "from countpred.special import poisson_cdf\n"
              "print([poisson_cdf(w, lam) for w in (1e306, 1e308, sys.float_info.max)\n"
              "       for lam in (5.0, 1e6)])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(special.__file__)),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr([1.0] * 6) + "\n"


@pytest.mark.parametrize("m", [109.0, 89.0], ids=["upper", "lower"])
def test_poisson_cdf_raises_when_its_term_budget_runs_out(monkeypatch, m):
    monkeypatch.setattr(special, "_gamma_terms", lambda a: np.full_like(a, 20.0))
    with pytest.raises(NonConvergenceError):
        poisson_cdf(m, 100.0)


@pytest.mark.parametrize("w, lam", [(math.inf, 1.0), (math.nan, 1.0), (3.0, math.inf),
                                    (3.0, math.nan), (3.0, 0.0), ([1.0, math.nan], 2.0),
                                    (3.0, float(np.nextafter(1e6, math.inf))),
                                    (1e12, 1e12)])
def test_poisson_cdf_refuses_what_it_cannot_evaluate(w, lam):
    with pytest.raises(DomainError):
        poisson_cdf(w, lam)


def test_poisson_cdf_names_the_element_whose_budget_runs_out(monkeypatch):
    monkeypatch.setattr(special, "_gamma_terms", lambda a: np.where(a > 50.0, 20.0, 1000.0))
    with pytest.raises(NonConvergenceError, match=r"a=m\+1=100\.0, lam=90\.0"):
        poisson_cdf([0.0, 99.0, 2.0], [1.0, 90.0, 8.0])
    with pytest.raises(NonConvergenceError, match=r"a=m\+1=100\.0, lam=110\.0"):
        poisson_cdf([0.0, 2.0, 99.0], [1.0, 8.0, 110.0])


# The tail sums as they run one element at a time: the array kernel must
# round exactly as these do.  loop_series is the incomplete-gamma series
# the cdf took before the kernel took arrays.
def loop_terms(a):
    return 1000 + int(10.0 * math.sqrt(a))


def loop_series(a, x):
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(loop_terms(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NonConvergenceError(f"series unconverged at a={a!r}, x={x!r}")


def loop_lower_sum(a, x):
    p = a
    term = 1.0 / x
    total = term
    for _ in range(loop_terms(a)):
        p -= 1.0
        term *= p / x
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NonConvergenceError(f"lower sum unconverged at a={a!r}, x={x!r}")


def loop_cdf(m, lam):
    if m < 0:
        return 0.0
    a = math.floor(m) + 1.0
    return 1.0 - loop_series(a, lam) if lam < a + 1.0 else loop_lower_sum(a, lam)


def exact_props_bounds(lams, alpha=0.05):
    """(m, lam) at both bounds (core_hi and core_lo - 1) of the core of
    each of the four exact-props regions of each rate."""
    pairs = []
    for lam in lams:
        randomized = build_smallest(pmf_poisson(lam), alpha)
        for r in (randomized, region_nonrandomized(randomized),
                  region_normal_known(lam, alpha), region_sqrt_known(lam, alpha)):
            pairs += [(r.core_hi, lam), (r.core_lo - 1, lam)]
    return pairs


def test_array_cdf_rounds_as_the_scalar_loops_on_exact_props_bounds():
    # every 23rd rate of the benchmark's grid 0.05..500, 1e5 and 1e6, and
    # a few bounds off the grid, fractional ones among them
    lams = [k * 0.05 for k in range(1, 10001, 23)] + [1e5, 1e6]
    extra = [(0.0, 1e-300), (2.5, 3.0), (9.0, 25.0), (99.0, 90.0), (99.0, 150.0),
             (1e5, 1e5), (7.9, 0.2)]
    ms, rates = map(np.array, zip(*exact_props_bounds(lams), *extra))
    a = ms + 1.0
    assert (ms < 0).any() and (rates < a + 1.0).any() and (rates >= a + 1.0).any()
    want = [loop_cdf(m, lam) for m, lam in zip(ms.tolist(), rates.tolist())]
    assert poisson_cdf(ms, rates).tolist() == want
    assert poisson_cdf(ms[:, None], rates[:, None]).ravel().tolist() == want
    # scalars, and every element alone, go through the same kernel
    assert [poisson_cdf(m, lam) for m, lam in zip(ms, rates)] == want
    assert [poisson_cdf(ms[j:j + 1], rates[j:j + 1])[0] for j in range(ms.size)] == want


@pytest.mark.parametrize("m, lam, rel", [(0, 0.05, 1e-14), (3, 2.5, 1e-13), (20, 7.0, 1e-13),
                                         (99, 100.0, 1e-12), (130, 100.0, 1e-12),
                                         (99683, 1e5, 1e-9), (100316, 1e5, 1e-9),
                                         (998999, 1e6, 5e-9), (1001000, 1e6, 5e-9)])
def test_poisson_cdf_against_mpmath(m, lam, rel):
    with mpmath.workdps(40):
        want = float(mpmath.gammainc(m + 1, lam, mpmath.inf, regularized=True))
    assert poisson_cdf(m, lam) == pytest.approx(want, rel=rel)
    assert poisson_cdf([m], [lam])[0] == poisson_cdf(m, lam)


@given(hs.floats(min_value=0.05, max_value=500.0),
       hs.floats(min_value=-2.0, max_value=600.0),
       hs.floats(min_value=0.5, max_value=30.0))
def test_poisson_cdf_monotone(lam, w, dw):
    a, b = poisson_cdf(w, lam), poisson_cdf(w + dw, lam)
    assert 0.0 <= a <= b <= 1.0


def test_normal_quantile_values():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    ps = np.linspace(1e-6, 1 - 1e-6, 97)
    np.testing.assert_allclose([normal_quantile(float(p)) for p in ps],
                               st.norm.ppf(ps), rtol=1e-10, atol=1e-11)
    # deep tail
    for p in (1e-10, 1e-8, 1 - 1e-8, 1 - 1e-10):
        assert normal_quantile(p) == pytest.approx(float(st.norm.ppf(p)), abs=1e-8)


@given(hs.floats(min_value=1e-8, max_value=0.5))
def test_normal_quantile_antisymmetry(p):
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=2e-9)


@given(hs.floats(min_value=-6.0, max_value=6.0))
def test_normal_quantile_inverts_cdf(x):
    assert normal_quantile(float(st.norm.cdf(x))) == pytest.approx(x, abs=1e-8)


def mpmath_normal_quantile(p):
    """Phi^-1(p) at 50 digits: Newton on ln Phi(z) = ln min(p, 1 - p), which
    is concave in z, from the lower tail."""
    with mpmath.workdps(50):
        q = mpmath.mpf(p)
        t = min(q, 1 - q)
        z = -mpmath.sqrt(-2 * mpmath.log(t))
        for _ in range(100):
            step = (mpmath.log(mpmath.ncdf(z)) - mpmath.log(t)) * mpmath.ncdf(z) / mpmath.npdf(z)
            z -= step
            if abs(step) < mpmath.mpf(10) ** -45:
                return z if q < 0.5 else -z
    raise AssertionError(f"the oracle did not converge at p={p!r}")


def test_normal_quantile_against_mpmath():
    # every z the package takes: the support tail, the usual 95% pair and each
    # forecast day's alpha*/2 at alpha = 0.05 for horizons 1..60
    ps = [1e-300, TAIL_MASS, 0.025, 0.975]
    for horizon in range(1, 61):
        half = alpha_star(0.05, horizon) / 2.0
        ps += [half, 1.0 - half]
    for p in ps:
        want = mpmath_normal_quantile(p)
        assert abs(float((normal_quantile(p) - want) / want)) <= 1e-15, p


def test_chisq_sf_values():
    assert chisq_sf(0.0, 5) == 1.0
    assert chisq_sf(4.4685, 5) == pytest.approx(0.4841, abs=5e-4)
    xs = np.concatenate([[1e-3, 0.3, 1.0], np.geomspace(2.0, 2000.0, 60)])
    # scipy flushes subnormal probabilities to 0
    for df in range(1, 61):
        np.testing.assert_allclose([chisq_sf(float(x), df) for x in xs], st.chi2.sf(xs, df),
                                   rtol=1e-12, atol=np.finfo(float).tiny)


@pytest.mark.parametrize("x, df", [(-1.0, 5), (math.inf, 5), (math.nan, 5),
                                   (1.0, 0), (1.0, 2.5)])
def test_chisq_sf_refuses_what_it_cannot_evaluate(x, df):
    with pytest.raises(DomainError):
        chisq_sf(x, df)


@given(hs.floats(min_value=0.0, max_value=60.0), hs.floats(min_value=0.1, max_value=30.0))
def test_chisq_sf_decreasing(x, dx):
    assert chisq_sf(x + dx, 5) <= chisq_sf(x, 5) + 1e-15
