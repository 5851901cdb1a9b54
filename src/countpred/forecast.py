"""Cumulative-count forecasting over a day horizon.

One prediction interval per future day at a tightened per-day level
(alpha split so the H daily intervals are jointly conservative), then
endpoint-wise summation on top of the observed cumulative total.  Also
here: proportional re-allocation of one-time reporting adjustments and
a sensitivity sweep that repeats the forecast across data cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import DailySeries, weekday_of_daynum
from .errors import (
    AdjustmentError,
    CountpredError,
    DesignError,
    DomainError,
    HorizonError,
)
from .glm import DesignSpec, GlmFit, _design_rows, build_design, fit
from .overdispersion import OverdispersedFit, _rate_and_count_variance, fit_overdispersed
from .regions import _check_alpha, _normal_interval

__all__ = [
    "DayForecast",
    "ForecastResult",
    "SweepRow",
    "MAX_HORIZON",
    "alpha_star",
    "cumulative_forecast",
    "reallocate_adjustments",
    "sensitivity_sweep",
]

MAX_HORIZON = 60


@dataclass(frozen=True)
class DayForecast:
    daynum: int
    point: float
    lower: int
    upper: int


@dataclass(frozen=True)
class ForecastResult:
    """Per-day intervals and their cumulative consequences."""

    horizon_days: int
    alpha_star: float
    per_day: tuple[DayForecast, ...]
    point_cumulative: int
    interval_cumulative: tuple[int, int]
    s_current: int
    model_tag: str


@dataclass(frozen=True)
class SweepRow:
    cutoff_daynum: int
    s_current: int
    xi: float | None
    result: ForecastResult | None
    error: str | None


def alpha_star(alpha: float, horizon: int) -> float:
    """Per-day level making H daily intervals jointly cover 1 - alpha."""
    _check_alpha(alpha)
    if horizon < 1:
        raise HorizonError(f"horizon must be >= 1, got {horizon}")
    return 1.0 - (1.0 - alpha) ** (1.0 / horizon)


def cumulative_forecast(fit_, series: DailySeries, target_daynum: int,
                        alpha: float, allow_long_horizon: bool = False) -> ForecastResult:
    """Forecast the cumulative count at a future day.

    Builds a covariate row for every day after the series end, forms a
    per-day interval at level 1 - alpha_star (the variance-widened
    normal region for a Poisson fit, the frailty interval for an
    over-dispersed fit), and sums endpoints onto the observed total.
    The per-day point forecasts are rounded individually, so the point
    cumulative is s_current plus the sum of rounded rates.
    """
    if isinstance(fit_, OverdispersedFit):
        base = fit_.base_fit
        tag = "overdispersed-normal"
    elif isinstance(fit_, GlmFit):
        base = fit_
        tag = "poisson-normal"
    else:
        raise DomainError(f"unsupported fit object: {type(fit_).__name__}")
    spec = base.design
    if spec is None:
        raise DesignError("fit carries no design spec; build the design with "
                          "build_design before forecasting")
    last = series.last_daynum()
    horizon = target_daynum - last
    if horizon < 1:
        raise HorizonError(
            f"target day {target_daynum} is not after the last observed day {last}")
    if horizon > MAX_HORIZON and not allow_long_horizon:
        raise HorizonError(
            f"horizon {horizon} exceeds the maximum {MAX_HORIZON}; "
            "pass allow_long_horizon to override")
    a_star = alpha_star(alpha, horizon)
    _check_alpha(a_star)
    s_current = series.total()
    per_day = []
    lo_sum = 0
    hi_sum = 0
    point_sum = 0.0
    days = range(last + 1, target_daynum + 1)
    labels = [weekday_of_daynum(d) for d in days] if spec.include_day_factor else None
    for daynum, x0 in zip(days, _design_rows(np.array(days, float), labels, spec)):
        # DivergenceError where exp would overflow
        rate, var = _rate_and_count_variance(fit_, x0)
        region = _normal_interval(rate, var, a_star)
        per_day.append(DayForecast(daynum=daynum, point=rate,
                                   lower=region.realized_lo, upper=region.realized_hi))
        lo_sum += region.realized_lo
        hi_sum += region.realized_hi
        point_sum += float(np.rint(rate))
    return ForecastResult(
        horizon_days=horizon,
        alpha_star=a_star,
        per_day=tuple(per_day),
        point_cumulative=s_current + int(point_sum),
        interval_cumulative=(s_current + lo_sum, s_current + hi_sum),
        s_current=s_current,
        model_tag=tag,
    )


def reallocate_adjustments(series: DailySeries, adjustments=None) -> DailySeries:
    """Spread one-time reporting corrections back over earlier days.

    Each adjustment amount is removed from its day and re-distributed
    over all days up to and including that day, proportionally to the
    counts after the removal.  Shares are rounded by largest remainder
    so the series total is preserved exactly.  Adjustments apply in
    chronological order; the result carries none.
    """
    if adjustments is None:
        adjustments = series.adjustments
    counts = np.array(series.counts(), dtype=np.int64)
    daynums = series.daynums()
    index = {d: i for i, d in enumerate(daynums)}
    for daynum, amount in sorted(adjustments, key=lambda a: a[0]):
        if daynum not in index:
            raise AdjustmentError(f"adjustment day {daynum} is not in the series")
        if amount < 0:
            raise AdjustmentError(f"negative adjustment amount {amount} on day {daynum}")
        if amount == 0:
            continue
        i = index[daynum]
        if amount > counts[i]:
            raise AdjustmentError(
                f"adjustment {amount} exceeds the observed count {counts[i]} "
                f"on day {daynum}")
        counts[i] -= amount
        weights = counts[: i + 1].astype(np.float64)
        wsum = weights.sum()
        if wsum == 0.0:
            counts[i] += amount  # nothing to weight by; mass stays put
            continue
        shares = amount * weights / wsum
        floors = np.floor(shares).astype(np.int64)
        leftover = amount - int(floors.sum())
        if leftover > 0:
            frac = shares - floors
            take = np.lexsort((np.arange(frac.size), -frac))[:leftover]
            floors[take] += 1
        counts[: i + 1] += floors
    records = tuple(
        replace(r, count=int(c)) for r, c in zip(series.records, counts))
    return DailySeries(records=records, country=series.country, adjustments=())


def _series_design(series: DailySeries, design: DesignSpec):
    """build_design on the series' day numbers and, with the day factor,
    its weekday labels."""
    w = np.array(series.daynums(), dtype=np.float64)
    labels = [r.weekday for r in series.records] if design.include_day_factor else None
    return build_design(w, labels, design)


def _fit_series(series: DailySeries, design: DesignSpec) -> GlmFit:
    """Poisson fit of a series under a design, which needs at least two
    more observations than parameters."""
    X, spec = _series_design(series, design)
    if len(series.records) < X.shape[1] + 2:
        raise DesignError(
            f"cutoff {series.last_daynum()} leaves {len(series.records)} observations for "
            f"{X.shape[1]} parameters")
    return fit(X, np.array(series.counts()), design=spec)


def _fit_for_cutoff(series: DailySeries, design: DesignSpec, cutoff: int,
                    overdispersed: bool):
    sub = series.truncated(cutoff)
    base = _fit_series(sub, design)
    if overdispersed:
        return sub, fit_overdispersed(base)
    return sub, base


def sensitivity_sweep(series: DailySeries, design: DesignSpec, target_daynum: int,
                      alpha: float, cutoffs, overdispersed: bool = True) -> list[SweepRow]:
    """Repeat the cumulative forecast across data cutoffs.

    Each row refits the model on data up to its cutoff.  Fit or
    forecast failures become the row's error text; the sweep continues.
    Rows return sorted by cutoff.
    """
    rows = []
    for cutoff in sorted(int(c) for c in cutoffs):
        try:
            sub, fitted = _fit_for_cutoff(series, design, cutoff, overdispersed)
            result = cumulative_forecast(fitted, sub, target_daynum, alpha,
                                         allow_long_horizon=True)
            xi = fitted.xi if isinstance(fitted, OverdispersedFit) else None
            rows.append(SweepRow(cutoff_daynum=cutoff, s_current=sub.total(),
                                 xi=xi, result=result, error=None))
        except CountpredError as exc:
            rows.append(SweepRow(cutoff_daynum=cutoff,
                                 s_current=series.cumulative_to(cutoff), xi=None,
                                 result=None, error=str(exc)))
    return rows
