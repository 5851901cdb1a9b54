"""Prediction regions for a future Poisson count, rate known or estimated.

Two families live here.  The smallest-cardinality region orders the
support by probability mass and keeps the most likely values; exact
nominal coverage is achieved by including the tied boundary values with
a calibrated probability (an external uniform draw decides).  The
normal and square-root regions are closed-form intervals intersected
with the nonnegative integers.  Every region is an interval of counts,
and so is its core with the boundary folded in; ``build_smallest``
raises DomainError for a pmf whose most probable values are not.

Estimated-rate variants plug a pmf estimate into the same machinery:
plug-in maximum likelihood, a second-order Taylor correction, the
unbiased (binomial) estimator, and a gamma-prior predictive.  All pmfs
are represented as dense log-mass arrays over a truncated support; the
Poisson, unbiased and predictive ones sum the log ratio of neighbouring
masses back from the support end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError, MomentFailure
from .special import _ENUM_LIMIT, TAIL_MASS, normal_quantile, poisson_cdf, poisson_log_pmf

__all__ = [
    "PredictionRegion",
    "EstimatedPmf",
    "pmf_poisson",
    "pmf_plugin_ml",
    "pmf_taylor",
    "pmf_umvue",
    "pmf_gamma_predictive",
    "region_smallest",
    "build_smallest",
    "realize",
    "region_nonrandomized",
    "region_normal_known",
    "region_sqrt_known",
    "region_adjusted_normal",
    "region_adjusted_sqrt",
    "exact_region_properties",
    "exact_region_properties_batch",
    "hyper_from_mean_sd",
    "marginal_log_likelihood",
    "mom_gamma",
]

# Relative tolerance for declaring two log-masses tied.  Exact ties are
# real (integer rates give p(k-1) = p(k)) but arrive with rounding.
TIE_RTOL = 1e-12

# About TAIL_MASS lies past the Cornish-Fisher point mean + _TAIL_Z sd +
# _CF_SKEW sd skewness; Poisson and negative binomial supports end near it.
_TAIL_Z = -normal_quantile(TAIL_MASS)
_CF_SKEW = (_TAIL_Z * _TAIL_Z - 1.0) / 6.0


@dataclass(frozen=True)
class PredictionRegion:
    """Integer-support prediction region: an interval of counts.

    ``core_lo..core_hi`` is the always-included interval (``core_hi ==
    core_lo - 1`` encodes an empty core).  ``boundary`` holds the values
    included only with probability ``boundary_prob``; with the core they
    form one interval, the folded region.  ``realized_lo ..
    realized_hi`` is the interval after the randomizer has been applied,
    again with ``hi == lo - 1`` for empty.  ``length`` is the real-line
    width for interval-type regions and ``realized_hi - realized_lo``
    for enumerated ones.
    """

    core_lo: int
    core_hi: int
    boundary: tuple[int, ...]
    boundary_prob: float
    realized_lo: int
    realized_hi: int
    level: float
    length: float

    def realized_contains(self, k: int) -> bool:
        return self.realized_lo <= k <= self.realized_hi


@dataclass(frozen=True)
class EstimatedPmf:
    """Dense pmf estimate on 0..support_hi with masses stored as logs."""

    log_mass: np.ndarray
    support_hi: int

    def mass(self, k: int) -> float:
        if 0 <= k <= self.support_hi:
            return float(math.exp(self.log_mass[k]))
        return 0.0


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def _check_enumerable(size: float, what: str) -> None:
    if size > _ENUM_LIMIT:
        raise DomainError(f"{what} {size!r} exceeds {_ENUM_LIMIT:g}, the largest "
                          "scale whose support is enumerated")


def _support_end(log_mass_at, ratio_bound, start: int) -> int:
    """The first k whose tail bound m(k) q_k/(1 - q_k) is at most ``TAIL_MASS``.

    ``log_mass_at(k)`` gives ln m(k); ``ratio_bound(k)`` a q_k, nonincreasing
    in k, bounding every m(j+1)/m(j) with j >= k.  Only k with q_k < 1
    count; past the first such k the bound falls, so the walk from
    ``start`` steps down while it holds one below, then up until it holds.
    """
    def holds(k):
        q = ratio_bound(k)
        return q < 1.0 and math.exp(log_mass_at(k)) * q / (1.0 - q) <= TAIL_MASS

    k = start
    while k > 0 and holds(k - 1):
        k -= 1
    while not holds(k):
        k += 1
    return k


def _pmf_from_ratios(log_mass_at, ratio_bound, start: int, log_back_ratio) -> EstimatedPmf:
    """The pmf on 0..hi, hi the ``_support_end`` of the first three arguments,
    whose ln m(y-1)/m(y) is ``log_back_ratio(ys)`` at ys = hi..1.

    Their running sums give ln m(y)/m(hi), far inside the float range where
    mass lies, as m(hi) q/(1 - q) with q = ``ratio_bound(hi)`` just reaches
    TAIL_MASS.  The masses are scaled so that 0..hi and that geometric tail
    hold mass 1, not by ln m(hi) from lgamma, which near 1e6 is 1e-9 off.
    """
    hi = _support_end(log_mass_at, ratio_bound, start)
    q = ratio_bound(hi)
    rel = np.zeros(hi + 1)
    np.add.accumulate(log_back_ratio(np.arange(hi, 0, -1.0)), out=rel[:hi][::-1])
    rel -= math.log(np.exp(rel).sum() + q / (1.0 - q))
    return EstimatedPmf(rel, hi)


def pmf_poisson(lam: float) -> EstimatedPmf:
    """Poisson pmf at rate ``lam`` on 0..k, k the ``_support_end`` for
    q_k = lam/(k+1) = m(k+1)/m(k) walked from the Cornish-Fisher point."""
    if lam < 0:
        raise DomainError(f"pmf_poisson requires lam >= 0, got {lam}")
    _check_enumerable(lam, "pmf_poisson rate")
    if lam == 0.0:
        return EstimatedPmf(np.zeros(1), 0)
    return _pmf_from_ratios(lambda k: poisson_log_pmf(k, lam), lambda k: lam / (k + 1.0),
                            int(lam + _TAIL_Z * math.sqrt(lam) + _CF_SKEW),
                            lambda ys: np.log(ys / lam))


def pmf_plugin_ml(n: int, t: int) -> EstimatedPmf:
    """Plug-in pmf at the rate estimate t/n; t = 0 degenerates to {0}."""
    if n < 1:
        raise DomainError(f"pmf_plugin_ml requires n >= 1, got {n}")
    if t < 0:
        raise DomainError(f"pmf_plugin_ml requires t >= 0, got {t}")
    return pmf_poisson(t / n)


def pmf_taylor(n: int, t: int) -> EstimatedPmf:
    """Second-order correction of the plug-in pmf for estimation noise.

    Divides each plug-in mass by 1 + ((1 - k/r)^2 - k/r^2) r / (2n) with
    r = t/n, then renormalizes over the truncated support.  Over real k
    the bracket is least at k = r + 1/2, so the divisor is at least
    1 - 1/(2n) - 1/(8t) >= 3/8 for n, t >= 1.
    """
    if n < 1:
        raise DomainError(f"pmf_taylor requires n >= 1, got {n}")
    if t < 1:
        raise DomainError(f"pmf_taylor requires t >= 1, got {t}")
    return _taylor_from_plugin(pmf_poisson(t / n), n, t)


def _taylor_from_plugin(plugin: EstimatedPmf, n: int, t: int) -> EstimatedPmf:
    """pmf_taylor(n, t) from the already built plug-in pmf at rate t/n."""
    rate = t / n
    hi = plugin.support_hi
    base = np.exp(plugin.log_mass)
    ks = np.arange(hi + 1, dtype=np.float64)
    bracket = (1.0 - ks / rate) ** 2 - ks / rate**2
    adjusted = base / (1.0 + 0.5 * bracket * rate / n)
    adjusted /= adjusted.sum()
    with np.errstate(divide="ignore"):
        logm = np.log(adjusted)
    return EstimatedPmf(logm, hi)


def pmf_umvue(n: int, t: int) -> EstimatedPmf:
    """Unbiased pmf estimate: binomial(t, 1/n) masses, n = 1 the point mass at t.

    For n >= 2 the support is 0..k, k the ``_support_end`` for
    q_k = (t - k)/((k + 1)(n - 1)) = m(k+1)/m(k), walked from the
    Cornish-Fisher point clamped at t, where q_t = 0 ends any walk.
    """
    if n < 1:
        raise DomainError(f"pmf_umvue requires n >= 1, got {n}")
    if t < 0:
        raise DomainError(f"pmf_umvue requires t >= 0, got {t}")
    _check_enumerable(t, "pmf_umvue total")
    if n == 1:
        logm = np.full(t + 1, -np.inf)
        logm[t] = 0.0
        return EstimatedPmf(logm, t)
    log_p, log_fail = -math.log(n), math.log1p(-1.0 / n)
    sd = math.sqrt(t / n * (1.0 - 1.0 / n))
    return _pmf_from_ratios(
        lambda k: (math.lgamma(t + 1.0) - math.lgamma(k + 1.0) - math.lgamma(t - k + 1.0)
                   + k * log_p + (t - k) * log_fail),
        lambda k: (t - k) / ((k + 1.0) * (n - 1.0)),
        min(t, int(t / n + _TAIL_Z * sd + _CF_SKEW * (1.0 - 2.0 / n))),
        lambda ys: np.log(ys * (n - 1.0) / (t - ys + 1.0)))


def pmf_gamma_predictive(n: int, t: int, kappa: float, beta: float) -> EstimatedPmf:
    """Predictive pmf under a gamma(kappa, beta) prior on the rate.

    Negative binomial with r = kappa + t successes and success
    probability (beta + n)/(beta + n + 1).  Its ratio m(y+1)/m(y) =
    (r + y)/((y + 1)(beta + n + 1)) falls with y when r >= 1 and stays
    below 1/(beta + n + 1) when r < 1, so ``_support_end`` ends the
    support on q_y = max((r + y)/(y + 1), 1)/(beta + n + 1).  A subnormal
    r is refused: the mass ratios to m(0) then pass the float range.
    """
    if n < 1:
        raise DomainError(f"pmf_gamma_predictive requires n >= 1, got {n}")
    if t < 0:
        raise DomainError(f"pmf_gamma_predictive requires t >= 0, got {t}")
    if kappa <= 0 or beta <= 0:
        raise DomainError("pmf_gamma_predictive requires kappa > 0 and beta > 0")
    r = kappa + t
    if r < sys.float_info.min:
        raise DomainError(f"pmf_gamma_predictive requires kappa + t of at least the "
                          f"smallest normal float, got {r!r}")
    mean = r / (beta + n)
    _check_enumerable(mean, "pmf_gamma_predictive mean")
    log_fail = -math.log(beta + n + 1.0)          # ln 1/(beta+n+1)
    log_succ = math.log(beta + n) + log_fail      # ln (beta+n)/(beta+n+1)
    sd = math.sqrt(r * (beta + n + 1.0)) / (beta + n)

    return _pmf_from_ratios(
        lambda k: (math.lgamma(r + k) - math.lgamma(r) - math.lgamma(k + 1.0)
                   + r * log_succ + k * log_fail),
        lambda k: max((r + k) / (k + 1.0), 1.0) / (beta + n + 1.0),
        int(mean + _TAIL_Z * sd + _CF_SKEW * (1.0 + 2.0 / (beta + n))),
        lambda ys: np.log(ys / (r + (ys - 1.0))) - log_fail)


def hyper_from_mean_sd(mean: float, sd: float) -> tuple[float, float]:
    """Gamma hyper-parameters (kappa, beta) with the given mean and sd."""
    if mean <= 0 or sd <= 0:
        raise DomainError("hyper_from_mean_sd requires mean > 0 and sd > 0")
    return mean * mean / (sd * sd), mean / (sd * sd)


def marginal_log_likelihood(kappa: float, beta: float, y) -> float:
    """Log marginal likelihood of counts y under the gamma-mixed model."""
    if kappa <= 0 or beta <= 0:
        raise DomainError("marginal_log_likelihood requires kappa > 0, beta > 0")
    arr = np.asarray(y, dtype=np.int64)
    if arr.size == 0:
        raise DomainError("marginal_log_likelihood requires nonempty y")
    if (arr < 0).any():
        raise DomainError("marginal_log_likelihood requires nonnegative counts")
    n = arr.size
    total = int(arr.sum())
    lg = sum(math.lgamma(kappa + int(v)) for v in arr)
    lfact = sum(math.lgamma(int(v) + 1) for v in arr)
    return (lg - n * math.lgamma(kappa) - lfact
            + n * kappa * (math.log(beta) - math.log1p(beta))
            - total * math.log1p(beta))


def mom_gamma(y) -> tuple[float, float]:
    """Moment-match a gamma mixing distribution to counts y.

    Solves mean = kappa/beta and variance - mean = kappa/beta**2.  The
    solution only exists on the over-dispersed branch; when the sample
    variance (ddof=1) does not exceed the sample mean the model is
    unidentified from moments and a MomentFailure is raised.
    """
    arr = np.asarray(y, dtype=np.float64)
    if arr.size < 2:
        raise DomainError("mom_gamma requires at least two observations")
    if (arr < 0).any():
        raise DomainError("mom_gamma requires nonnegative counts")
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    if var <= mean:
        raise MomentFailure(
            f"sample variance {var:.6g} does not exceed sample mean {mean:.6g}; "
            "gamma moment equations have no positive solution")
    beta = mean / (var - mean)
    kappa = mean * beta
    return kappa, beta


def _group_scan(log_mass: np.ndarray, target: float):
    """Sort masses descending, group ties, and split core/boundary.

    Returns (order, core_end, boundary_end, gamma): ``order`` lists the
    values of positive mass most probable first (ties in value order),
    ``order[:core_end]`` is the core, ``order[core_end:boundary_end]``
    the boundary group and gamma its inclusion probability.
    """
    order = np.argsort(-log_mass, kind="stable")
    slog = log_mass[order]
    npos = int(np.count_nonzero(slog > -np.inf))
    if npos == 0:
        return order[:0], 0, 0, 0.0
    slog = slog[:npos]
    order = order[:npos]
    gaps = slog[:-1] - slog[1:]
    tol = TIE_RTOL * np.maximum(1.0, np.abs(slog[:-1]))
    ends = np.flatnonzero(np.append(gaps > tol, True))
    cum = np.cumsum(np.exp(slog))
    group_cum = cum[ends]
    # A group joins the core while the running total stays within the
    # target; the first group that would overshoot becomes the boundary.
    ncore = int(np.searchsorted(group_cum, target + 1e-15, side="right"))
    if ncore >= len(ends):
        return order, npos, npos, 0.0
    core_end = ends[ncore - 1] + 1 if ncore > 0 else 0
    cum_before = float(group_cum[ncore - 1]) if ncore > 0 else 0.0
    gsum = float(group_cum[ncore] - cum_before)
    gamma = (target - cum_before) / gsum if gsum > 0 else 0.0
    gamma = min(1.0, max(0.0, gamma))
    return order, int(core_end), int(ends[ncore]) + 1, gamma


def _region_row(region: PredictionRegion) -> tuple[int, int, int, int, float]:
    """(core lo, core hi, folded lo, folded hi, gamma): all a region's
    coverage and length depend on.  The folded bounds, taken with
    probability gamma, are those of core ∪ boundary: the core's without a
    boundary, the boundary's with an empty core."""
    lo, hi, b = region.core_lo, region.core_hi, region.boundary
    if not b:
        return lo, hi, lo, hi, region.boundary_prob
    if hi < lo:
        return lo, hi, b[0], b[-1], region.boundary_prob
    return lo, hi, min(lo, b[0]), max(hi, b[-1]), region.boundary_prob


def build_smallest(pmf: EstimatedPmf, alpha: float) -> PredictionRegion:
    """The smallest-cardinality region before the randomizer is applied.

    Keeps the most probable values until the next tie group would push
    the captured mass past 1 - alpha; that group becomes the boundary,
    with inclusion probability gamma chosen so randomized coverage
    under ``pmf`` is exactly 1 - alpha.  The realized bounds are those
    of the core alone; ``realize`` applies a uniform draw.  Raises
    DomainError unless the core and core ∪ boundary are both intervals,
    as they are for every unimodal pmf, each one this package builds.
    """
    _check_alpha(alpha)
    order, core_end, boundary_end, gamma = _group_scan(np.asarray(pmf.log_mass), 1.0 - alpha)
    core = order[:core_end]
    boundary = tuple(sorted(order[core_end:boundary_end].tolist()))
    core_lo, core_hi = (int(core.min()), int(core.max())) if core_end else (0, -1)
    region = PredictionRegion(
        core_lo=core_lo,
        core_hi=core_hi,
        boundary=boundary,
        boundary_prob=float(gamma),
        realized_lo=core_lo,
        realized_hi=core_hi,
        level=1.0 - alpha,
        length=float(max(0, core_hi - core_lo)),
    )
    _, _, lo, hi, _ = _region_row(region)
    # values are distinct, so a set fills its hull when the counts match
    if core_end != core_hi - core_lo + 1 or core_end + len(boundary) != hi - lo + 1:
        raise DomainError(f"the smallest region at alpha={alpha!r} is not an interval: "
                          f"{core_end} core values within {core_lo}..{core_hi}, "
                          f"{core_end + len(boundary)} with the boundary within {lo}..{hi}")
    return region


def realize(region: PredictionRegion, u: float) -> PredictionRegion:
    """Apply the uniform draw u to a region from build_smallest.

    The boundary is included when u <= boundary_prob; otherwise the
    region is returned as built.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u}")
    if not region.boundary or u > region.boundary_prob:
        return region
    _, _, lo, hi, _ = _region_row(region)
    return replace(region, realized_lo=lo, realized_hi=hi,
                   length=float(max(0, hi - lo)))


def region_smallest(pmf: EstimatedPmf, alpha: float, u: float) -> PredictionRegion:
    """Smallest-cardinality region with randomized boundary inclusion.

    ``realize(build_smallest(pmf, alpha), u)``: the boundary tie group
    is included only when u <= gamma.
    """
    return realize(build_smallest(pmf, alpha), u)


def region_nonrandomized(region: PredictionRegion) -> PredictionRegion:
    """Fold the boundary into the core (the u = 0 convention).

    The result covers at least the nominal level under the pmf the
    region was built from, at the price of the randomized exactness.
    """
    if not region.boundary:
        return region
    _, _, lo, hi, _ = _region_row(region)
    return PredictionRegion(
        core_lo=lo, core_hi=hi, boundary=(), boundary_prob=0.0,
        realized_lo=lo, realized_hi=hi, level=region.level,
        length=float(hi - lo))


def _interval_region(lower: float, upper: float, alpha: float) -> PredictionRegion:
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise DivergenceError(
            f"prediction interval bound is not finite: [{lower}, {upper}]")
    lo = int(math.ceil(lower))
    hi = int(math.floor(upper))
    if hi < lo:
        lo, hi = 0, -1
    return PredictionRegion(
        core_lo=lo, core_hi=hi, boundary=(), boundary_prob=0.0,
        realized_lo=lo, realized_hi=hi, level=1.0 - alpha,
        length=float(upper - lower))


def _normal_interval(center: float, var: float, alpha: float) -> PredictionRegion:
    """center +- z sqrt(var), clipped at 0, with z the 1 - alpha/2 quantile."""
    half = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(var)
    return _interval_region(max(0.0, center - half), center + half, alpha)


def _sqrt_interval(rate: float, v: float, alpha: float) -> PredictionRegion:
    """Normal limits sqrt(rate) +- z sqrt(v/4) on the sqrt scale, squared.

    sqrt(Y) has variance about v/4 when Y has variance rate * v.
    """
    c = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(v / 4.0)
    s = math.sqrt(rate)
    return _interval_region(max(0.0, s - c) ** 2, (s + c) ** 2, alpha)


def region_normal_known(lam: float, alpha: float) -> PredictionRegion:
    """Central normal-approximation interval for a known rate."""
    _check_alpha(alpha)
    if lam <= 0:
        raise DomainError(f"region_normal_known requires lam > 0, got {lam}")
    return _normal_interval(lam, lam, alpha)


def region_sqrt_known(lam: float, alpha: float) -> PredictionRegion:
    """Variance-stabilized interval: normal limits on the sqrt scale."""
    _check_alpha(alpha)
    if lam <= 0:
        raise DomainError(f"region_sqrt_known requires lam > 0, got {lam}")
    return _sqrt_interval(lam, 1.0, alpha)


def region_adjusted_normal(n: int, t: int, alpha: float) -> PredictionRegion:
    """Normal interval at rate t/n, widened for estimation noise.

    Half-width z * sqrt(rate * (1 + 1/n)); t = 0 gives the region {0}.
    """
    _check_alpha(alpha)
    if n < 1:
        raise DomainError(f"region_adjusted_normal requires n >= 1, got {n}")
    if t < 0:
        raise DomainError(f"region_adjusted_normal requires t >= 0, got {t}")
    rate = t / n
    return _normal_interval(rate, rate * (1.0 + 1.0 / n), alpha)


def region_adjusted_sqrt(n: int, t: int, alpha: float) -> PredictionRegion:
    """Sqrt-scale interval at rate t/n, widened for estimation noise."""
    _check_alpha(alpha)
    if n < 1:
        raise DomainError(f"region_adjusted_sqrt requires n >= 1, got {n}")
    if t < 0:
        raise DomainError(f"region_adjusted_sqrt requires t >= 0, got {t}")
    return _sqrt_interval(t / n, 1.0 + 1.0 / n, alpha)


def exact_region_properties(region: PredictionRegion, lam: float) -> tuple[float, float]:
    """Exact coverage and expected length under a Poisson(lam) truth.

    Coverage is the core mass plus boundary mass weighted by the
    inclusion probability.  Expected length mixes the widths of the two
    possible realizations (with and without the boundary) the same way.
    """
    return exact_region_properties_batch([region], [lam])[0]


def exact_region_properties_batch(regions, lams) -> list[tuple[float, float]]:
    """``exact_region_properties`` of each region under its rate, from its
    ``_region_row``, with the cdfs at every core's bounds taken in one
    ``poisson_cdf`` call; an empty core reads one cdf twice, so 0."""
    if any(lam <= 0 for lam in lams):
        raise DomainError(f"exact_region_properties requires lam > 0, got {min(lams)}")
    rows = [_region_row(r) for r in regions]
    cdf = poisson_cdf([hi for _, hi, *_ in rows] + [lo - 1 for lo, *_ in rows],
                      [*lams, *lams]).tolist()
    out = []
    for region, lam, (lo, hi, flo, fhi, gamma), at_hi, below_lo in zip(
            regions, lams, rows, cdf, cdf[len(rows):]):
        bound_mass = sum(math.exp(poisson_log_pmf(k, lam)) for k in region.boundary)
        out.append((at_hi - below_lo + gamma * bound_mass,
                    gamma * float(max(0, fhi - flo)) + (1.0 - gamma) * float(max(0, hi - lo))))
    return out
