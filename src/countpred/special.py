"""Numerically stable scalar kernels used by every other module.

Everything here works in log space until the final exponentiation, so
Poisson masses stay finite for rates up to 1e6 and counts up to 1e7.
The normal and chi-square functions are self-contained (erfc and lgamma
come from the C library via :mod:`math`; the incomplete-gamma split and
the quantile refinement are implemented here).  No pmf array is built
here: ``regions`` sums log mass ratios back from a support end that it
finds on an analytic tail bound.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonConvergenceError

__all__ = [
    "poisson_log_pmf",
    "poisson_pmf",
    "poisson_cdf",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "chisq_sf",
    "lgamma",
    "reg_upper_gamma",
]

# Tail mass a truncated pmf may drop.  1e-12 of tail mass cannot move an
# integer region endpoint at the levels used anywhere here.
TAIL_MASS = 1e-12

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def lgamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"lgamma requires x > 0, got {x}")
    return math.lgamma(x)


def poisson_log_pmf(k: int, lam: float) -> float:
    """Log of the Poisson mass at ``k`` for rate ``lam``."""
    if lam <= 0:
        raise DomainError(f"poisson_log_pmf requires lam > 0, got {lam}")
    if k < 0 or k != int(k):
        raise DomainError(f"poisson_log_pmf requires integer k >= 0, got {k}")
    k = int(k)
    return -lam + k * math.log(lam) - math.lgamma(k + 1)


def poisson_pmf(k: int, lam: float) -> float:
    """Poisson mass at ``k`` for rate ``lam``."""
    return math.exp(poisson_log_pmf(k, lam))


def poisson_cdf(w: float, lam: float) -> float:
    """P(X <= w) for X ~ Poisson(lam); 0 for w < 0.

    Computed through the regularized upper incomplete gamma identity
    P(X <= m) = Q(m + 1, lam), which is O(1) in m.
    """
    if lam <= 0:
        raise DomainError(f"poisson_cdf requires lam > 0, got {lam}")
    if w < 0:
        return 0.0
    m = math.floor(w)
    return reg_upper_gamma(m + 1.0, lam)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


# Rational initial guess for the normal quantile (relative error ~1e-9
# before refinement), then two Newton corrections against normal_cdf.
_Q_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
        1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_Q_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
        6.680131188771972e+01, -1.328068155288572e+01)
_Q_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
        -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_Q_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
        3.754408661907416e+00)
_Q_PLOW = 0.02425


def _quantile_initial(p: float) -> float:
    if p < _Q_PLOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_Q_C[0] * q + _Q_C[1]) * q + _Q_C[2]) * q + _Q_C[3]) * q
                  + _Q_C[4]) * q + _Q_C[5])
                / ((((_Q_D[0] * q + _Q_D[1]) * q + _Q_D[2]) * q + _Q_D[3]) * q + 1.0))
    if p > 1.0 - _Q_PLOW:
        return -_quantile_initial(1.0 - p)
    q = p - 0.5
    r = q * q
    return (((((_Q_A[0] * r + _Q_A[1]) * r + _Q_A[2]) * r + _Q_A[3]) * r
             + _Q_A[4]) * r + _Q_A[5]) * q / \
        (((((_Q_B[0] * r + _Q_B[1]) * r + _Q_B[2]) * r + _Q_B[3]) * r + _Q_B[4]) * r + 1.0)


def normal_quantile(p: float) -> float:
    """z with Phi(z) = p, to better than 1e-10 absolute error."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires 0 < p < 1, got {p}")
    z = _quantile_initial(p)
    for _ in range(2):
        err = normal_cdf(z) - p
        z -= err / normal_pdf(z)
    return z


def _gamma_terms(a: float) -> int:
    """Term budget of the incomplete-gamma series and continued fraction:
    near x = a they need 7.7 sqrt(a) terms at a = 1e6, 9.3 sqrt(a) at 100."""
    return 1000 + int(10.0 * math.sqrt(a))


def _reg_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a + 1)."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_gamma_terms(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NonConvergenceError(f"incomplete gamma series unconverged at a={a!r}, x={x!r}")


def _reg_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction (x >= a + 1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _gamma_terms(a)):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NonConvergenceError(f"incomplete gamma fraction unconverged at a={a!r}, x={x!r}")


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if a <= 0:
        raise DomainError(f"reg_upper_gamma requires a > 0, got {a}")
    if x < 0:
        raise DomainError(f"reg_upper_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        q = 1.0 - _reg_gamma_series(a, x)
    else:
        q = _reg_gamma_cf(a, x)
    return min(1.0, max(0.0, q))


def chisq_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with ``df`` df."""
    if x < 0:
        raise DomainError(f"chisq_sf requires x >= 0, got {x}")
    if df <= 0 or df != int(df):
        raise DomainError(f"chisq_sf requires a positive integer df, got {df}")
    return reg_upper_gamma(df / 2.0, x / 2.0)
