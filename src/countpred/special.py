"""Numerically stable kernels used by every other module.

Everything here works in log space until the final exponentiation, so
Poisson masses stay finite for rates up to 1e6 and counts up to 1e7.
The normal quantile is the standard library's ``NormalDist.inv_cdf``;
the chi-square tail takes erfc and lgamma from the C library via
:mod:`math`.  The Poisson cdf takes numpy arrays: each element
sums its pmf away from the bound, on whichever side of the mode the
terms fall, to its own stop, rounding exactly as a one-at-a-time loop
does, so a batch of cdfs costs one call.  No pmf array is built here:
``regions`` sums log mass ratios back from a support end that it finds
on an analytic tail bound.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "poisson_log_pmf",
    "poisson_cdf",
    "normal_quantile",
    "chisq_sf",
]

# Tail mass a truncated pmf may drop.  1e-12 of tail mass cannot move an
# integer region endpoint at the levels used anywhere here.
TAIL_MASS = 1e-12

# The largest Poisson rate taken: poisson_cdf and the pmf builders in
# ``regions`` raise DomainError past it, and glm's smallest-plugin region
# is then the normal interval it is close to.  The exponent of the cdf's
# prefactor cancels to a relative error of 1.4e-9 at this rate, and
# beyond 1e12 to a wrong cdf.
_ENUM_LIMIT = 1e6

_STANDARD_NORMAL = NormalDist()


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
    are scalars, for 0 < lam <= 1e6.  With m = floor(w) the pmf is summed
    away from the bound, over k > m where lam < m + 2 and over k <= m
    otherwise, so the terms fall from the first and the cost is O(sqrt(lam))
    whatever m is.  m is clipped at 2**53, where the mass above it is 0 in
    float for every lam: near the float maximum 1/(m + 1) is subnormal,
    and the sum's stop test would never hold.
    """
    w, lam = np.broadcast_arrays(np.asarray(w, dtype=np.float64),
                                 np.asarray(lam, dtype=np.float64))
    bad = ~((lam > 0) & (lam <= _ENUM_LIMIT)) | ~(w < np.inf)
    if bad.any():
        j = np.flatnonzero(bad)[0]
        raise DomainError(f"poisson_cdf requires 0 < lam <= {_ENUM_LIMIT:g} and w < inf, got "
                          f"w={float(w.flat[j])!r}, lam={float(lam.flat[j])!r}")
    p = np.zeros(w.shape)
    inside = w >= 0
    if inside.any():
        a, x = np.minimum(np.floor(w[inside]), 2.0**53) + 1.0, lam[inside]
        lower = x >= a + 1.0
        tail = _tail_sum(a, x, lower) * _prefactor(a, x)
        p[inside] = np.where(lower, tail, 1.0 - tail)
    return float(p) if p.ndim == 0 else p


def normal_quantile(p: float) -> float:
    """z with Phi(z) = p, by the standard library's NormalDist: Wichura's
    AS241, within 1e-15 relative error of the exact quantile."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires 0 < p < 1, got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def _gamma_terms(a):
    """Term budget of the tail sum: near x = a it needs 7.7 sqrt(a) terms
    at a = 1e6, 9.3 sqrt(a) at 100.  A float, so no a overflows it."""
    return 1000.0 + np.floor(10.0 * np.sqrt(a))


# Terms per block.  Every element runs its own recurrence, term by term
# in order, so a block only changes how many terms past its stop an
# element computes and then discards.  Blocks start at _BLOCK terms; a
# few elements, for which a block's fixed cost in numpy calls outweighs
# those terms, take blocks that double up to _CELLS elements by terms.
_BLOCK = 32
_CELLS = 1 << 12


def _prefactor(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(-x + a ln x - ln Gamma(a)) by libm, element by element: with
    a = m + 1 and x = lam, lam times the Poisson mass at m."""
    return np.array([math.exp(-xi + ai * math.log(xi) - math.lgamma(ai))
                     for ai, xi in zip(a.tolist(), x.tolist())])


def _tail_sum(a: np.ndarray, x: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The Poisson tail from the bound, divided by ``_prefactor(a, x)``.

    Each element sums t_0, t_1 = t_0 r_1, ... until t_j < total 1e-16.
    Where ``lower`` is false, t_0 = 1/a and r_j = x/(a + j): the series of
    the lower incomplete gamma P(a, x), the mass above m = a - 1.  Where it
    is true, t_0 = 1/x and r_j = (a - j)/x: the mass at m, m - 1, ...,
    which ends with an exact 0 at j = a.  The sequential accumulates of a
    block of terms round exactly as that loop does.
    """
    out = np.empty(a.shape)
    idx = np.arange(a.size)
    budget = _gamma_terms(a)
    # a + j or a - j, the side of r_j that moves
    v, step = a, np.where(lower, -1.0, 1.0)
    term = 1.0 / np.where(lower, x, a)
    total = term
    first, size = 1, _BLOCK
    while True:
        # column 0 holds the state after term first - 1
        vs = np.empty((idx.size, size + 1))
        vs[:, 0] = v
        vs[:, 1:] = step[:, None]
        np.add.accumulate(vs, axis=1, out=vs)
        terms = np.empty_like(vs)
        np.divide(vs, x[:, None], out=terms, where=lower[:, None])
        np.divide(x[:, None], vs, out=terms, where=~lower[:, None])
        terms[:, 0] = term
        np.multiply.accumulate(terms, axis=1, out=terms)
        totals = terms.copy()
        totals[:, 0] = total
        np.add.accumulate(totals, axis=1, out=totals)
        # no term is negative, nor any total 0, so no abs is needed
        hit = (terms < totals * 1e-16)[:, 1:]
        col = hit.argmax(axis=1)
        done = hit.any(axis=1)
        # an element whose budget ends in this block before its stop fails
        last = first + size - 1
        if last > budget.min():
            done &= first + col <= budget
            failed = ~done & (budget <= last)
            if failed.any():
                j = int(np.flatnonzero(failed)[0])
                raise NonConvergenceError("Poisson tail sum unconverged at "
                                          f"a=m+1={float(a[j])!r}, lam={float(x[j])!r}")
        out[idx[done]] = totals[done, col[done] + 1]
        if done.all():
            return out
        keep = ~done
        idx, a, x, budget = idx[keep], a[keep], x[keep], budget[keep]
        v, step, lower = vs[keep, -1], step[keep], lower[keep]
        term, total = terms[keep, -1], totals[keep, -1]
        first += size
        size = max(_BLOCK, min(2 * size, _CELLS // idx.size))


def chisq_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with ``df`` df.

    For integer df this is the finite sum Q(df/2, y) = Q(s, y) +
    sum over a = s, s + 1, ..., df/2 - 1 of y^a e^-y / Gamma(a + 1), with
    y = x/2, from Q(1/2, y) = erfc(sqrt y) (odd df) or Q(0, y) = 0 (even).
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"chisq_sf requires finite x >= 0, got {x}")
    if df <= 0 or df != int(df):
        raise DomainError(f"chisq_sf requires a positive integer df, got {df}")
    y = x / 2.0
    if y == 0.0:
        return 1.0
    a = 0.5 * (df % 2)
    q = math.erfc(math.sqrt(y)) if a else 0.0
    while a < df / 2.0:
        q += math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        a += 1.0
    return min(q, 1.0)
