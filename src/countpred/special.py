"""Numerically stable kernels used by every other module.

Everything here works in log space until the final exponentiation, so
Poisson masses stay finite for rates up to 1e6 and counts up to 1e7.
The normal and chi-square functions are self-contained (erfc and lgamma
come from the C library via :mod:`math`; the incomplete-gamma split and
the quantile refinement are implemented here).  The incomplete gamma,
and the Poisson cdf through it, take numpy arrays: each element runs
the series or continued fraction to its own stop, rounding exactly as a
one-at-a-time loop does, so a batch of cdfs costs one call.  No pmf
array is built here: ``regions`` sums log mass ratios back from a
support end that it finds on an analytic tail bound.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "poisson_log_pmf",
    "poisson_cdf",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "chisq_sf",
    "reg_upper_gamma",
]

# Tail mass a truncated pmf may drop.  1e-12 of tail mass cannot move an
# integer region endpoint at the levels used anywhere here.
TAIL_MASS = 1e-12

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def poisson_log_pmf(k: int, lam: float) -> float:
    """Log of the Poisson mass at ``k`` for rate ``lam``."""
    if lam <= 0:
        raise DomainError(f"poisson_log_pmf requires lam > 0, got {lam}")
    if k < 0 or k != int(k):
        raise DomainError(f"poisson_log_pmf requires integer k >= 0, got {k}")
    k = int(k)
    return -lam + k * math.log(lam) - math.lgamma(k + 1)


def poisson_cdf(w, lam):
    """P(X <= w) for X ~ Poisson(lam); 0 for w < 0.

    Elementwise over the broadcast of ``w`` and ``lam``, a float when both
    are scalars.  Computed through the regularized upper incomplete gamma
    identity P(X <= m) = Q(m + 1, lam), which is O(1) in m.
    """
    w, lam = np.broadcast_arrays(np.asarray(w, dtype=np.float64),
                                 np.asarray(lam, dtype=np.float64))
    bad = ~((lam > 0) & (lam < np.inf)) | ~(w < np.inf)
    if bad.any():
        j = np.flatnonzero(bad)[0]
        raise DomainError("poisson_cdf requires finite lam > 0 and w < inf, got "
                          f"w={float(w.flat[j])!r}, lam={float(lam.flat[j])!r}")
    p = np.zeros(w.shape)
    inside = w >= 0
    p[inside] = reg_upper_gamma(np.floor(w[inside]) + 1.0, lam[inside])
    return float(p) if p.ndim == 0 else p


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


def _gamma_terms(a):
    """Term budget of the incomplete-gamma series and continued fraction:
    near x = a they need 7.7 sqrt(a) terms at a = 1e6, 9.3 sqrt(a) at 100."""
    return 1000 + (10.0 * np.sqrt(a)).astype(np.int64)


# Terms per block.  Every element runs its own recurrence, term by term
# in order, so a block only changes how many terms past its stop an
# element computes and then discards.  Blocks start at _BLOCK terms; a
# few elements, for which a block's fixed cost in numpy calls outweighs
# those terms, take blocks that double up to _CELLS elements by terms.
_BLOCK = 32
_CELLS = 1 << 12


def _prefactor(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(-x + a ln x - ln Gamma(a)) by libm, element by element."""
    return np.array([math.exp(-xi + ai * math.log(xi) - math.lgamma(ai))
                     for ai, xi in zip(a.tolist(), x.tolist())])


def _first_stops(hit: np.ndarray, first: int, budget: np.ndarray, what: str,
                 a: np.ndarray, x: np.ndarray):
    """Rows of the block ``hit`` (terms first, first + 1, ...) that stop
    within their budget, and the column of each stop.

    Raises NonConvergenceError for an element whose budget ends in the
    block before its stop.
    """
    col = hit.argmax(axis=1)
    done = hit.any(axis=1)
    last = first + hit.shape[1] - 1
    if last > budget.min():
        done &= first + col <= budget
        failed = ~done & (budget <= last)
        if failed.any():
            j = int(np.flatnonzero(failed)[0])
            raise NonConvergenceError(f"incomplete gamma {what} unconverged at "
                                      f"a={float(a[j])!r}, x={float(x[j])!r}")
    return done, col


def _reg_gamma_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a + 1).

    Element by element: ap += 1, term *= x/ap, total += term, until
    |term| < |total| 1e-16.  The sequential accumulates of a block of
    terms round exactly as that loop does.
    """
    out = np.empty(a.shape)
    idx = np.arange(a.size)
    budget = np.broadcast_to(_gamma_terms(a), a.shape)
    ap, term = a, 1.0 / a
    total = term
    first, size = 1, _BLOCK
    while True:
        # column 0 holds the state after term first - 1
        aps = np.ones((idx.size, size + 1))
        aps[:, 0] = ap
        np.add.accumulate(aps, axis=1, out=aps)
        terms = np.divide(x[:, None], aps)
        terms[:, 0] = term
        np.multiply.accumulate(terms, axis=1, out=terms)
        totals = terms.copy()
        totals[:, 0] = total
        np.add.accumulate(totals, axis=1, out=totals)
        hit = np.abs(terms[:, 1:]) < np.abs(totals[:, 1:]) * 1e-16
        done, col = _first_stops(hit, first, budget, "series", a, x)
        out[idx[done]] = totals[done, col[done] + 1]
        if done.all():
            return out
        keep = ~done
        idx, a, x, budget = idx[keep], a[keep], x[keep], budget[keep]
        ap, term, total = aps[keep, -1], terms[keep, -1], totals[keep, -1]
        first += size
        size = max(_BLOCK, min(2 * size, _CELLS // idx.size))


# Lentz's floor: |an d + b| and |c| below it are raised to it.
_TINY = 1e-300


def _lentz(an, bs, d, c, clamp: bool):
    """d and c of the modified Lentz method stepped through the terms of
    one block, whose a_i and b_i are the rows of ``an`` and ``bs``.

    Returns the rows delta_i = d_i c_i as a (terms, elements) array, the
    last d and c, and whether some an d + b or c fell below ``_TINY`` in
    magnitude.  Only with ``clamp`` are those raised to ``_TINY``, so a
    block where that happens is stepped again with it.  The body is plain
    arithmetic: one element steps through it as Python floats, which round
    as float64 arrays do at a fraction of the per-step cost.
    """
    deltas, seen = [], []
    for an_i, b_i in zip(an, bs):
        den = an_i * d + b_i
        c = b_i + an_i / c
        if clamp:
            den = np.where(np.abs(den) < _TINY, _TINY, den)
            c = np.where(np.abs(c) < _TINY, _TINY, c)
        seen += (den, c)
        d = 1.0 / den
        deltas.append(d * c)
    small = bool((np.abs(np.array(seen)) < _TINY).any())
    return np.array(deltas).reshape(len(deltas), -1), np.reshape(d, -1), np.reshape(c, -1), small


def _reg_gamma_cf(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction (x >= a + 1).

    Modified Lentz, element by element, with terms i = 1, 2, ... up to the
    budget less one.  The a_i and b_i of a block come from one numpy step
    each; d and c then step through the block's terms in order.
    """
    out = np.empty(a.shape)
    idx = np.arange(a.size)
    budget = np.broadcast_to(_gamma_terms(a), a.shape) - 1
    b = x + 1.0 - a
    c = np.full(a.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d
    first, size = 1, _BLOCK
    while True:
        i = np.arange(first, first + size, dtype=np.float64)[:, None]
        an = -i * (i - a)
        bs = np.full((size + 1, idx.size), 2.0)
        bs[0] = b
        np.add.accumulate(bs, axis=0, out=bs)
        steps = (an, bs[1:], d, c)
        if idx.size == 1:
            steps = (an[:, 0].tolist(), bs[1:, 0].tolist(), d.item(), c.item())
        deltas, d_end, c_end, small = _lentz(*steps, clamp=False)
        if small:
            deltas, d_end, c_end, _ = _lentz(*steps, clamp=True)
        hit = (np.abs(deltas - 1.0) < 1e-16).T
        hs = np.multiply.accumulate(np.vstack([h, deltas]), axis=0)
        done, col = _first_stops(hit, first, budget, "fraction", a, x)
        out[idx[done]] = hs[col[done] + 1, done]
        if done.all():
            return out
        keep = ~done
        idx, a, x, budget = idx[keep], a[keep], x[keep], budget[keep]
        b, c, d, h = bs[-1, keep], c_end[keep], d_end[keep], hs[-1, keep]
        first += size
        # each term costs numpy calls, unless one element steps as floats
        size = min(2 * size, _CELLS) if idx.size == 1 else _BLOCK


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) for finite a > 0, x >= 0.

    Elementwise over the broadcast of ``a`` and ``x``; a float when both
    are scalars.  The series (x < a + 1) or the continued fraction
    (x >= a + 1) runs on each element under its own term budget and stop
    rule, then takes the prefactor exp(-x + a ln x - ln Gamma(a)) from
    libm, so an element's value does not depend on the others.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=np.float64),
                               np.asarray(x, dtype=np.float64))
    # a NaN minimum fails its comparison too
    if a.size and not (a.min() > 0 and x.min() >= 0 and max(a.max(), x.max()) < np.inf):
        j = np.flatnonzero(~((a > 0) & (a < np.inf) & (x >= 0) & (x < np.inf)))[0]
        raise DomainError("reg_upper_gamma requires finite a > 0 and x >= 0, got "
                          f"a={float(a.flat[j])!r}, x={float(x.flat[j])!r}")
    q = np.ones(a.shape)
    edge = a + 1.0
    series = (x > 0.0) & (x < edge)
    if series.any():
        sa, sx = a[series], x[series]
        q[series] = 1.0 - _reg_gamma_series(sa, sx) * _prefactor(sa, sx)
    fraction = x >= edge
    if fraction.any():
        fa, fx = a[fraction], x[fraction]
        q[fraction] = _reg_gamma_cf(fa, fx) * _prefactor(fa, fx)
    # min(1, max(0, q)) as on floats: NaN and -0.0 become 0.0
    q = np.where(q > 0.0, q, 0.0)
    q = np.where(q < 1.0, q, 1.0)
    return float(q) if q.ndim == 0 else q


def chisq_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with ``df`` df."""
    if x < 0:
        raise DomainError(f"chisq_sf requires x >= 0, got {x}")
    if df <= 0 or df != int(df):
        raise DomainError(f"chisq_sf requires a positive integer df, got {df}")
    return reg_upper_gamma(df / 2.0, x / 2.0)
