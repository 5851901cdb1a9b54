"""Cumulative forecasting, horizon splitting, and adjustments."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from countpred import (
    AdjustmentError,
    DailyRecord,
    DailySeries,
    DesignSpec,
    DomainError,
    HorizonError,
    alpha_star,
    build_design,
    cumulative_forecast,
    date_of_daynum,
    fit,
    fit_overdispersed,
    parse_ecdc_csv,
    reallocate_adjustments,
    region_overdispersed,
    region_regression,
    sensitivity_sweep,
    weekday_of_daynum,
)
from countpred.forecast import _fit_for_cutoff

FIXTURE = (Path(__file__).resolve().parents[1] / "src" / "countpred" / "fixtures"
           / "us_covid_deaths_ecdc.csv")


def make_series(counts, first_daynum=62, country="Xl", adjustments=()):
    records = tuple(
        DailyRecord(date=date_of_daynum(first_daynum + i),
                    daynum=first_daynum + i,
                    weekday=weekday_of_daynum(first_daynum + i),
                    count=int(c))
        for i, c in enumerate(counts))
    return DailySeries(records=records, country=country,
                       adjustments=tuple(adjustments))


def fitted_series(n=60, seed=3, overdispersed=False, order=2):
    rng = np.random.default_rng(seed)
    daynums = np.arange(62, 62 + n, dtype=float)
    rates = np.exp(3.0 + 0.02 * (daynums - 62))
    counts = rng.poisson(rates)
    series = make_series(counts)
    labels = [r.weekday for r in series.records]
    X, spec = build_design(daynums, labels,
                           DesignSpec(poly_order=order, include_day_factor=True,
                                      standardize=True))
    base = fit(X, np.array(series.counts()), design=spec)
    return series, (fit_overdispersed(base) if overdispersed else base)


def test_alpha_star_values():
    assert alpha_star(0.05, 1) == pytest.approx(0.05, abs=1e-15)
    assert alpha_star(0.05, 17) == pytest.approx(0.0030127052790058784, abs=1e-12)
    with pytest.raises(DomainError):
        alpha_star(0.0, 5)
    with pytest.raises(HorizonError):
        alpha_star(0.05, 0)


@given(hs.floats(min_value=1e-6, max_value=0.5),
       hs.integers(min_value=1, max_value=365))
def test_alpha_star_product_identity(alpha, horizon):
    a = alpha_star(alpha, horizon)
    assert (1.0 - a) ** horizon == pytest.approx(1.0 - alpha, abs=1e-12)


def test_horizon_one_equals_single_day_region():
    series, od = fitted_series(overdispersed=True)
    target = series.last_daynum() + 1
    fc = cumulative_forecast(od, series, target, 0.05)
    assert fc.horizon_days == 1
    assert fc.alpha_star == pytest.approx(0.05, abs=1e-15)
    from countpred import design_row
    x0 = design_row(float(target), weekday_of_daynum(target), od.base_fit.design)
    region = region_overdispersed(od, x0, 0.05)
    s = series.total()
    assert fc.interval_cumulative == (s + region.realized_lo, s + region.realized_hi)
    assert fc.point_cumulative == s + int(np.rint(fc.per_day[0].point))
    assert fc.model_tag == "overdispersed-normal"


def test_poisson_fit_uses_normal_region():
    series, base = fitted_series()
    target = series.last_daynum() + 3
    fc = cumulative_forecast(base, series, target, 0.05)
    assert fc.model_tag == "poisson-normal"
    assert fc.horizon_days == 3
    from countpred import design_row
    a = fc.alpha_star
    s = series.total()
    lows = highs = 0
    pts = 0.0
    for day in fc.per_day:
        x0 = design_row(float(day.daynum), weekday_of_daynum(day.daynum),
                        base.design)
        region = region_regression(base, x0, a, "normal")
        assert (day.lower, day.upper) == (region.realized_lo, region.realized_hi)
        lows += day.lower
        highs += day.upper
        pts += np.rint(day.point)
    assert fc.interval_cumulative == (s + lows, s + highs)
    assert fc.point_cumulative == s + int(pts)


def test_forecast_horizon_errors():
    series, base = fitted_series()
    last = series.last_daynum()
    with pytest.raises(HorizonError):
        cumulative_forecast(base, series, last, 0.05)
    with pytest.raises(HorizonError):
        cumulative_forecast(base, series, last + 61, 0.05)
    fc = cumulative_forecast(base, series, last + 61, 0.05, allow_long_horizon=True)
    assert fc.horizon_days == 61
    with pytest.raises(DomainError):
        cumulative_forecast("not a fit", series, last + 1, 0.05)


def test_reallocate_worked_example():
    series = make_series([10, 20, 90], adjustments=[(64, 60)])
    out = reallocate_adjustments(series)
    assert out.counts() == [20, 40, 60]
    assert out.total() == series.total()
    assert out.adjustments == ()


def test_reallocate_zero_and_single_day():
    series = make_series([10, 20, 90])
    assert reallocate_adjustments(series, [(63, 0)]).counts() == [10, 20, 90]
    single = make_series([50])
    out = reallocate_adjustments(single, [(62, 30)])
    assert out.counts() == [50]


def test_reallocate_errors():
    series = make_series([10, 20, 90])
    with pytest.raises(AdjustmentError):
        reallocate_adjustments(series, [(100, 5)])
    with pytest.raises(AdjustmentError):
        reallocate_adjustments(series, [(63, -1)])
    with pytest.raises(AdjustmentError):
        reallocate_adjustments(series, [(63, 21)])


@given(hs.lists(hs.integers(min_value=0, max_value=500), min_size=2, max_size=25),
       hs.data())
@settings(max_examples=80)
def test_reallocate_preserves_total(counts, data):
    series = make_series(counts)
    day_idx = data.draw(hs.integers(min_value=0, max_value=len(counts) - 1))
    amount = data.draw(hs.integers(min_value=0, max_value=counts[day_idx]))
    out = reallocate_adjustments(series, [(62 + day_idx, amount)])
    assert out.total() == series.total()
    assert all(c >= 0 for c in out.counts())
    # days after the adjustment day are untouched
    assert out.counts()[day_idx + 1:] == counts[day_idx + 1:]


def test_sweep_rows():
    series, _ = fitted_series(n=70)
    design = DesignSpec(poly_order=2, include_day_factor=True, standardize=True)
    last = series.last_daynum()
    target = last + 1
    cutoffs = [last - 10, last - 5, last]
    rows = sensitivity_sweep(series, design, target, 0.05, cutoffs,
                             overdispersed=True)
    assert [r.cutoff_daynum for r in rows] == sorted(cutoffs)
    for row in rows:
        assert row.error is None
        assert row.s_current == series.cumulative_to(row.cutoff_daynum)
        assert row.result.horizon_days == target - row.cutoff_daynum
    # the cutoff one day before the target leaves a single-day horizon
    assert rows[-1].result.horizon_days == 1


def test_sweep_collects_errors():
    series, _ = fitted_series(n=40)
    design = DesignSpec(poly_order=2, include_day_factor=True, standardize=True)
    target = series.last_daynum() + 5
    rows = sensitivity_sweep(series, design, target, 0.05,
                             [series.first_daynum() + 3, series.last_daynum()])
    assert rows[0].error is not None and rows[0].result is None
    assert rows[1].error is None


def test_overdispersed_forecast_independent_of_basis():
    # [86158, 118324] is the interval a 60-digit evaluation of the same
    # estimator gives; it must not move with the polynomial basis or with
    # a perturbation of theta far below the fit's accuracy
    series = parse_ecdc_csv(FIXTURE, country="US")
    intervals = []
    for standardize in (True, False):
        design = DesignSpec(poly_order=5, include_day_factor=True,
                            standardize=standardize)
        sub, od = _fit_for_cutoff(series, design, 137, True)
        intervals.append(cumulative_forecast(od, sub, 154, 0.05).interval_cumulative)
        moved = fit_overdispersed(replace(od.base_fit, theta=od.theta * (1.0 + 1e-9)))
        intervals.append(cumulative_forecast(moved, sub, 154, 0.05).interval_cumulative)
    assert intervals == [(86158, 118324)] * 4


def test_poisson_forecast_independent_of_basis():
    # Every Poisson forecast of days 154 and 199 from cutoffs 112-185 whose
    # upper bound stays below 1e9, in the standardized and the raw basis.
    series = parse_ecdc_csv(FIXTURE, country="US")
    compared = 0
    for cutoff in range(112, 186):
        fits = [_fit_for_cutoff(series, DesignSpec(poly_order=5, include_day_factor=True,
                                                   standardize=standardize), cutoff, False)
                for standardize in (True, False)]
        for target in (154, 199):
            if target <= cutoff:
                continue
            std, raw = (cumulative_forecast(fit_, sub, target, 0.05,
                                            allow_long_horizon=True)
                        for sub, fit_ in fits)
            if std.interval_cumulative[1] < 1e9:
                assert ([(d.lower, d.upper) for d in std.per_day]
                        == [(d.lower, d.upper) for d in raw.per_day]), (cutoff, target)
                compared += 1
    assert compared >= 100


def test_sweep_keeps_diverging_cutoffs():
    # order-5 extrapolations from short series overflow: those rows carry
    # the error text and the sweep goes on
    series = parse_ecdc_csv(FIXTURE, country="US")
    design = DesignSpec(poly_order=5, include_day_factor=True, standardize=True)
    rows = sensitivity_sweep(series, design, 154, 0.05, range(75, 112))
    assert [r.cutoff_daynum for r in rows] == list(range(75, 112))
    failed = [r for r in rows if r.error is not None]
    assert failed and len(failed) < len(rows)
    for row in failed:
        assert row.result is None and "not finite" in row.error
