"""Prediction regions for a future Poisson count, rate known or estimated.

Two families live here.  The smallest-cardinality region orders the
support by probability mass and keeps the most likely values; exact
nominal coverage is achieved by including the tied boundary values with
a calibrated probability (an external uniform draw decides).  The
normal and square-root regions are closed-form intervals intersected
with the nonnegative integers.  Every region is an interval of counts,
and so is its core with the boundary folded in; ``build_smallest``
raises DomainError for a pmf whose most probable values are not.

Smallest regions are built in bulk: ``_scan_rows`` stacks consecutive
pmfs into -inf-padded blocks of at most ``_SCAN_CELLS`` cells, sorts and
sums each block in one pass, and returns every region as its row (core
lo, core hi, folded lo, folded hi, gamma); ``build_smallest`` is its
one-pmf case.  ``_exact_rows`` scores such rows under known rates.

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
    core_lo - 1`` encodes an empty core).  ``folded_lo..folded_hi`` is
    the folded region: the core with the boundary group, the values
    included only with probability ``boundary_prob``, folded in.
    ``realized_lo .. realized_hi`` is the interval after the randomizer
    has been applied, again with ``hi == lo - 1`` for empty.  ``length``
    is the real-line width for interval-type regions and ``realized_hi -
    realized_lo`` for enumerated ones.
    """

    core_lo: int
    core_hi: int
    folded_lo: int
    folded_hi: int
    boundary_prob: float
    realized_lo: int
    realized_hi: int
    level: float
    length: float

    @property
    def boundary(self) -> tuple[int, ...]:
        """The folded values outside the core, ascending."""
        return _boundary(self.core_lo, self.core_hi, self.folded_lo, self.folded_hi)

    @property
    def row(self) -> tuple[int, int, int, int, float]:
        """(core lo, core hi, folded lo, folded hi, gamma), as every scorer reads it."""
        return self.core_lo, self.core_hi, self.folded_lo, self.folded_hi, self.boundary_prob

    def realized_contains(self, k: int) -> bool:
        return self.realized_lo <= k <= self.realized_hi


def _boundary(lo: int, hi: int, flo: int, fhi: int) -> tuple[int, ...]:
    """The values of folded_lo..folded_hi outside core_lo..core_hi, ascending."""
    return (*range(flo, min(lo, fhi + 1)), *range(max(hi + 1, flo), fhi + 1))


@dataclass(frozen=True)
class EstimatedPmf:
    """Dense pmf estimate on 0..support_hi with masses stored as logs."""

    log_mass: np.ndarray

    @property
    def support_hi(self) -> int:
        return self.log_mass.size - 1

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
    return EstimatedPmf(rel)


def pmf_poisson(lam: float) -> EstimatedPmf:
    """Poisson pmf at rate ``lam`` on 0..k, k the ``_support_end`` for
    q_k = lam/(k+1) = m(k+1)/m(k) walked from the Cornish-Fisher point."""
    if lam < 0:
        raise DomainError(f"pmf_poisson requires lam >= 0, got {lam}")
    _check_enumerable(lam, "pmf_poisson rate")
    if lam == 0.0:
        return EstimatedPmf(np.zeros(1))
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
    base = np.exp(plugin.log_mass)
    ks = np.arange(base.size, dtype=np.float64)
    bracket = (1.0 - ks / rate) ** 2 - ks / rate**2
    adjusted = base / (1.0 + 0.5 * bracket * rate / n)
    adjusted /= adjusted.sum()
    with np.errstate(divide="ignore"):
        logm = np.log(adjusted)
    return EstimatedPmf(logm)


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
        return EstimatedPmf(logm)
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


# Float64 cells of one block of _scan_rows (1 MB): consecutive pmfs share a
# block while its rows times its widest row stay within this.
_SCAN_CELLS = 1 << 17


def _scan_rows(pmfs, alpha: float) -> np.ndarray:
    """The row (core lo, core hi, folded lo, folded hi, gamma) of the
    smallest region of each pmf of the iterable ``pmfs``, in input order,
    as an (m, 5) float array.

    Consecutive pmfs are stacked into blocks padded with -inf, a block
    closing before its rows times its widest row would pass
    ``_SCAN_CELLS``; a pmf wider than that is a block on its own.  So a
    generator of pmfs is held only a block at a time.  See
    ``build_smallest`` for the region and its DomainError.
    """
    _check_alpha(alpha)
    rows, pending, width = [], [], 0
    for pmf in pmfs:
        log_mass = np.asarray(pmf.log_mass)
        if pending and (len(pending) + 1) * max(width, log_mass.size) > _SCAN_CELLS:
            rows += _scan_block(pending, width, alpha)
            pending, width = [], 0
        pending.append(log_mass)
        width = max(width, log_mass.size)
    if pending:
        rows += _scan_block(pending, width, alpha)
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


def _scan_block(log_masses, width: int, alpha: float) -> list:
    """The rows of ``_scan_rows`` for one block of log-mass arrays.

    Each row of the block is sorted by mass, most probable first (ties in
    value order, by one stable argsort), and its masses summed in that
    order, by one exp and cumsum.  The first position whose running total
    passes the target lies in the boundary group: its tie group, the run
    of neighbours within ``TIE_RTOL`` of each other, which a short walk
    from that position finds.  The values before the group form the core;
    its bounds and those of the folded region are running minima and
    maxima of the sorted values.  Padding sorts last with mass 0, and
    the walk reads Python floats, so no -inf meets -inf in numpy.
    """
    if len(log_masses) == 1 and width:
        block = log_masses[0][None, :]
    else:
        block = np.full((len(log_masses), max(width, 1)), -np.inf)
        for i, log_mass in enumerate(log_masses):
            block[i, :log_mass.size] = log_mass
    m, w = block.shape
    target = 1.0 - alpha
    order = np.argsort(-block, axis=1, kind="stable")
    slog = block[np.arange(m)[:, None], order]
    cum = np.exp(slog).cumsum(axis=1)
    # A group joins the core while the running total stays within the
    # target; the first group that would overshoot becomes the boundary.
    past = target + 1e-15
    sorted_at = slog.item
    spans, reach = [], 1
    for i, first in enumerate((cum > past).argmax(axis=1).tolist()):
        if cum.item(i, first) > past:
            core_end, end = first, first + 1
            while core_end and _tied(sorted_at(i, core_end - 1), sorted_at(i, core_end)):
                core_end -= 1
            while end < w and _tied(sorted_at(i, end - 1), sorted_at(i, end)):
                end += 1
            before = cum.item(i, core_end - 1) if core_end else 0.0
            gsum = cum.item(i, end - 1) - before
            gamma = min(1.0, max(0.0, (target - before) / gsum if gsum > 0 else 0.0))
        else:
            core_end = end = int(np.count_nonzero(slog[i] > -np.inf))
            gamma = 0.0
        spans.append((core_end, end, gamma))
        reach = max(reach, end)
    # bounds of the values sorted before each position, as far as any region reaches
    lo_run = np.minimum.accumulate(order[:, :reach], axis=1)
    hi_run = np.maximum.accumulate(order[:, :reach], axis=1)
    rows = []
    for i, (core_end, end, gamma) in enumerate(spans):
        lo, hi = (lo_run.item(i, core_end - 1), hi_run.item(i, core_end - 1)) if core_end \
            else (0, -1)
        flo, fhi = (lo_run.item(i, end - 1), hi_run.item(i, end - 1)) if end else (lo, hi)
        # values are distinct, so a set fills its hull when the counts match
        if core_end != hi - lo + 1 or end != fhi - flo + 1:
            raise DomainError(f"the smallest region at alpha={alpha!r} is not an interval: "
                              f"{core_end} core values within {lo}..{hi}, "
                              f"{end} with the boundary within {flo}..{fhi}")
        rows.append((lo, hi, flo, fhi, gamma))
    return rows


def _tied(higher: float, lower: float) -> bool:
    """Whether neighbouring sorted log-masses are tied: apart by at most
    ``TIE_RTOL`` relative to the larger; false when the lower is -inf."""
    return higher - lower <= TIE_RTOL * max(1.0, abs(higher))


def build_smallest(pmf: EstimatedPmf, alpha: float) -> PredictionRegion:
    """The smallest-cardinality region before the randomizer is applied.

    Keeps the most probable values until the next tie group would push
    the captured mass past 1 - alpha; that group becomes the boundary,
    with inclusion probability gamma chosen so randomized coverage
    under ``pmf`` is exactly 1 - alpha.  The realized bounds are those
    of the core alone; ``realize`` applies a uniform draw.  Raises
    DomainError unless the core and core ∪ boundary are both intervals,
    as they are for every unimodal pmf, each one this package builds.
    The one-pmf case of ``_scan_rows``.
    """
    lo, hi, flo, fhi, gamma = _scan_rows([pmf], alpha)[0].tolist()
    lo, hi = int(lo), int(hi)
    return PredictionRegion(
        core_lo=lo,
        core_hi=hi,
        folded_lo=int(flo),
        folded_hi=int(fhi),
        boundary_prob=gamma,
        realized_lo=lo,
        realized_hi=hi,
        level=1.0 - alpha,
        length=float(max(0, hi - lo)),
    )


def realize(region: PredictionRegion, u: float) -> PredictionRegion:
    """Apply the uniform draw u to a region.

    The realized bounds become the folded ones, the boundary included,
    when u <= boundary_prob; otherwise the region is returned as built.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u}")
    lo, hi = region.folded_lo, region.folded_hi
    if u > region.boundary_prob or (lo, hi) == (region.core_lo, region.core_hi):
        return region
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
    lo, hi = region.folded_lo, region.folded_hi
    if (lo, hi) == (region.core_lo, region.core_hi):
        return region
    return PredictionRegion(
        core_lo=lo, core_hi=hi, folded_lo=lo, folded_hi=hi, boundary_prob=0.0,
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
        core_lo=lo, core_hi=hi, folded_lo=lo, folded_hi=hi, boundary_prob=0.0,
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
    """``exact_region_properties`` of each region under its rate: the
    ``_exact_rows`` of the regions' rows."""
    return list(map(tuple, _exact_rows([r.row for r in regions], lams).tolist()))


def _exact_rows(rows, lams) -> np.ndarray:
    """Exact (coverage, expected length) of each region row under its
    Poisson rate, as an (m, 2) array.

    The cdfs at every core's bounds come from one ``poisson_cdf`` call
    over the distinct (bound, rate) pairs, each taken once; an empty
    core reads one cdf twice, so 0.  The boundary mass sums the pmf over
    the folded values outside the core.  DomainError unless there is
    one rate per row and every rate is above 0.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    lams = np.asarray(lams, dtype=np.float64).ravel()
    if lams.size != len(rows):
        raise DomainError(f"exact_region_properties needs one rate per region, got "
                          f"{len(rows)} regions and {lams.size} rates")
    bad = np.flatnonzero(~(lams > 0))
    if bad.size:
        raise DomainError(f"exact_region_properties requires lam > 0, got {lams.item(bad[0])!r}")
    lo, hi, flo, fhi, gamma = rows.T
    # each (bound, rate) pair as one complex number, which np.unique sorts
    # by bound, then rate
    pairs, which = np.unique(np.concatenate([hi, lo - 1.0]) + 1j * np.concatenate([lams, lams]),
                             return_inverse=True)
    cdf = poisson_cdf(pairs.real, pairs.imag)[which]
    bound_mass = np.zeros(len(rows))
    for j in np.flatnonzero((flo != lo) | (fhi != hi)).tolist():
        lam = lams.item(j)
        bound_mass[j] = sum(math.exp(poisson_log_pmf(k, lam))
                            for k in _boundary(*map(int, rows[j, :4].tolist())))
    return np.stack([cdf[:len(rows)] - cdf[len(rows):] + gamma * bound_mass,
                     gamma * np.maximum(0.0, fhi - flo)
                     + (1.0 - gamma) * np.maximum(0.0, hi - lo)], axis=1)
