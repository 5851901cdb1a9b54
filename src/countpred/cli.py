"""Command-line surface.

Subcommands: fit, predict, forecast, sweep, simulate, exact-props,
reallocate.  Single objects print as JSON, tables as CSV with a leading
``#`` meta line; both carry the library version, the seed when
randomness is involved, and the resolved configuration.  Exit codes:
0 success, 1 usage, 2 data problems, 3 numerical failures.  Errors are
one machine-parsable line on stderr.

``--cutoffs``, ``--daynum`` and ``--lambda-grid`` take comma lists of
values and start:stop[:step] ranges, stop included, at most 10**6 of
them; a longer list, a step too small to change the value, or a malformed
or non-finite value there or in ``--theta`` and ``--w-dist`` exits 1.

``main`` (and ``cli_dispatch``) may be called repeatedly in one process.
The parser is built once per process and parses each command line into
a fresh namespace, so no option value carries over between commands.
Each command reads its data file; ``data.parse_ecdc_csv`` memoizes the
parse of the last few (file text, country) pairs per process, so
commands on one file parse it once, and a rewritten file is parsed anew.
The parsed series is immutable: adjustments and cutoffs build new ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .data import DailySeries, load_adjustments, parse_ecdc_csv, weekday_of_daynum
from .errors import (
    AdjustmentError,
    DataError,
    DesignError,
    DiagnosticsError,
    DivergenceError,
    DomainError,
    HorizonError,
    MomentFailure,
    NonConvergenceError,
    SingularityError,
)
from .forecast import (
    _fit_series,
    _series_design,
    cumulative_forecast,
    reallocate_adjustments,
    sensitivity_sweep,
)
from .glm import (
    DesignSpec,
    _design_rows,
    _design_subset,
    _variant_region,
    fit,
    rate_and_variance,
    residual_diagnostics,
)
from .overdispersion import _rate_and_count_variance, estimate_xi, fit_overdispersed
from .regions import (
    _check_alpha,
    _exact_rows,
    _interval_region,
    _interval_rows,
    _normal_bounds,
    _scan_rows,
    _sqrt_bounds,
    pmf_poisson,
    realize,
)
from .simulate import SimConfig, result_to_csv, run_experiment

_MAX_VALUES = 10**6     # values in one list option
_USAGE_ERRORS = (DomainError, HorizonError)
_DATA_ERRORS = (DataError, AdjustmentError, DesignError, FileNotFoundError,
                PermissionError, IsADirectoryError)
_NUMERICAL_ERRORS = (SingularityError, DivergenceError, NonConvergenceError,
                     MomentFailure, DiagnosticsError)


class _Parser(argparse.ArgumentParser):
    """argparse with single-line errors and exit code 1 for usage problems."""

    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _meta(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("command", "func")}
    return {"version": __version__, "seed": None, "config": config}


def _meta_csv_line(args: argparse.Namespace) -> str:
    return "# " + json.dumps(_meta(args), default=str)


def _convert(text: str, convert):
    """convert(text) when that is a finite number; DomainError otherwise."""
    try:
        value = convert(text)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):
        pass
    raise DomainError(f"cannot read {text.strip()!r} as a finite {convert.__name__}")


def _parse_values(text: str, convert) -> list:
    """Values of a comma list of numbers and start:stop[:step] ranges.

    ``convert`` (int or float) reads each number.  A range steps by 1 by
    default and keeps round(v, 10), v += step, while v <= stop + 1e-9.
    An unreadable or non-finite number, an empty list, a range of more
    than three parts, a step <= 0 or with v + step == v, or more than
    _MAX_VALUES values (checked before a range is built) raise DomainError.
    """
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) > 3:
            raise DomainError(f"bad range {part!r}; use start:stop[:step]")
        pieces = [_convert(piece, convert) for piece in pieces]
        if len(pieces) == 1:
            values.append(pieces[0])
            continue
        start, stop = pieces[:2]
        step = pieces[2] if len(pieces) == 3 else convert(1)
        if step <= 0:
            raise DomainError(f"range step must be positive in {part!r}")
        if (stop - start) / step >= _MAX_VALUES - len(values):
            raise DomainError(f"more than {_MAX_VALUES} values up to {part!r}")
        v = start
        while v <= stop + 1e-9:
            if v + step == v:
                raise DomainError(f"step {step!r} does not change {v!r} in {part!r}")
            values.append(round(v, 10))
            v += step
    if not values:
        raise DomainError(f"no values in {text!r}")
    if len(values) > _MAX_VALUES:
        raise DomainError(f"more than {_MAX_VALUES} values")
    return values


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _dump_json(payload: dict, out_path) -> None:
    _emit(json.dumps(payload, indent=2, default=_json_default), out_path)


def _xi_json(xi: float):
    return "inf" if math.isinf(xi) else xi


def _load_series(args) -> DailySeries:
    series = parse_ecdc_csv(args.data, args.country)
    if args.adjustments:
        series = series.with_adjustments(load_adjustments(args.adjustments))
    start = getattr(args, "start_daynum", None)
    cutoff = getattr(args, "cutoff_daynum", None)
    if start is not None or cutoff is not None:
        series = series.truncated(cutoff if cutoff is not None else series.last_daynum(),
                                  start)
    if getattr(args, "apply_adjustments", False):
        series = reallocate_adjustments(series)
    return series


def _design_from_args(args) -> DesignSpec:
    return DesignSpec(poly_order=args.order,
                      include_day_factor=args.day_factor, standardize=True)


def _raw_theta(theta: np.ndarray, spec: DesignSpec) -> list[float]:
    """Map coefficients from the standardized columns back to raw ones."""
    means = np.asarray(spec.column_means)
    sds = np.asarray(spec.column_sds)
    raw = theta / sds
    raw[0] = theta[0] - float(np.sum(theta[1:] * means[1:] / sds[1:]))
    return [float(v) for v in raw]


# ---------------------------------------------------------------- fit


def _cmd_fit(args) -> int:
    series = _load_series(args)
    max_order = args.max_order if args.max_order is not None else args.order
    # One design holds every column of the table and of the chosen design;
    # each fit takes its columns, which build_design would give bit for bit.
    X_all, spec_all = _series_design(series, replace(
        _design_from_args(args), poly_order=max(args.order, max_order),
        include_day_factor=True))
    y = np.array(series.counts())

    def fit_columns(order: int, with_day: bool):
        X, spec = _design_subset(X_all, spec_all, order, with_day)
        return fit(X, y, design=spec)

    chosen = fit_columns(args.order, args.day_factor)
    table = []
    for order in range(1, max_order + 1):
        row = {"order": order}
        for tag, with_day in (("nd", False), ("d", True)):
            try:
                same = (order, with_day) == (args.order, args.day_factor)
                f = chosen if same else fit_columns(order, with_day)
                row[f"aic_{tag}"] = f.aic
                row[f"xi_{tag}"] = _xi_json(estimate_xi(f))
            except _NUMERICAL_ERRORS as exc:
                row[f"aic_{tag}"] = None
                row[f"xi_{tag}"] = None
                row[f"error_{tag}"] = str(exc)
        table.append(row)

    xi = estimate_xi(chosen)
    payload = {
        "meta": _meta(args),
        "country": series.country,
        "daynum_range": [series.first_daynum(), series.last_daynum()],
        "order": args.order,
        "day_factor": args.day_factor,
        "theta_standardized": [float(v) for v in chosen.theta],
        "theta_raw": _raw_theta(chosen.theta, chosen.design),
        "loglik": chosen.loglik,
        "aic": chosen.aic,
        "xi_hat": _xi_json(xi),
        "converged": chosen.converged,
        "iterations": chosen.iterations,
        "newton_decrement": chosen.decrement,
        "step_halvings": chosen.halvings,
        "aic_table": table,
    }
    try:
        diag = residual_diagnostics(chosen, args.bins)
        payload["diagnostics"] = {
            "table": diag.table.tolist(),
            "statistic": diag.statistic,
            "df": diag.df,
            "p_value": diag.p_value,
            "bin_edges": list(diag.bin_edges),
        }
    except (DiagnosticsError, DomainError) as exc:
        payload["diagnostics"] = {"error": str(exc)}
    if args.residuals_csv:
        lines = [_meta_csv_line(args), "daynum,observed,fitted,residual"]
        for rec, lam, res in zip(series.records, chosen.fitted_rates,
                                 chosen.residuals):
            lines.append(f"{rec.daynum},{rec.count},{lam!r},{res!r}")
        _emit("\n".join(lines), args.residuals_csv)
    _dump_json(payload, args.out)
    return 0


# ------------------------------------------------------------- predict


def _cmd_predict(args) -> int:
    daynums = _parse_values(args.daynum, int)
    _check_alpha(args.alpha)
    base = _fit_series(_load_series(args), _design_from_args(args))
    over = fit_overdispersed(base) if args.variant == "overdispersed" else None
    rows = []
    spec = base.design
    labels = [weekday_of_daynum(d) for d in daynums] if spec.include_day_factor else None
    for daynum, x0 in zip(daynums, _design_rows(np.array(daynums, float), labels, spec)):
        lam0, vhat = rate_and_variance(base, x0)
        if over is not None:
            rate, count_variance = _rate_and_count_variance(over, x0)
            region = _interval_region(_normal_bounds(rate, count_variance, args.alpha),
                                      args.alpha)
        else:
            count_variance = lam0 * vhat
            region = _variant_region(lam0, vhat, args.alpha, args.variant)
        region = realize(region, args.u)
        rows.append({"daynum": daynum, "rate": lam0, "variance_factor": vhat,
                     "count_variance": count_variance,
                     "variant": args.variant, "lower": region.realized_lo,
                     "upper": region.realized_hi,
                     "core": [region.core_lo, region.core_hi],
                     "boundary": list(region.boundary),
                     "boundary_prob": region.boundary_prob,
                     "level": region.level, "length": region.length})
    payload = {"meta": _meta(args), "predictions": rows}
    if over is not None:
        payload["xi_hat"] = _xi_json(over.xi)
    _dump_json(payload, args.out)
    return 0


# ------------------------------------------------------------ forecast


def _cmd_forecast(args) -> int:
    series = _load_series(args)
    base = _fit_series(series, _design_from_args(args))
    fitted = fit_overdispersed(base) if args.overdispersed else base
    result = cumulative_forecast(fitted, series, args.target_daynum, args.alpha,
                                 allow_long_horizon=args.allow_long_horizon)
    payload = {
        "meta": _meta(args),
        "country": series.country,
        "cutoff_daynum": series.last_daynum(),
        "target_daynum": args.target_daynum,
        "s_current": result.s_current,
        "horizon_days": result.horizon_days,
        "alpha": args.alpha,
        "alpha_star": result.alpha_star,
        "model_tag": result.model_tag,
        "xi_hat": _xi_json(fitted.xi) if args.overdispersed else None,
        "point": result.point_cumulative,
        "interval": list(result.interval_cumulative),
        "per_day": [{"daynum": d.daynum, "point": d.point,
                     "lower": d.lower, "upper": d.upper}
                    for d in result.per_day],
    }
    if args.per_day_csv:
        lines = [_meta_csv_line(args), "daynum,point,lower,upper"]
        for d in result.per_day:
            lines.append(f"{d.daynum},{d.point!r},{d.lower},{d.upper}")
        _emit("\n".join(lines), args.per_day_csv)
    _dump_json(payload, args.out)
    return 0


# --------------------------------------------------------------- sweep


def _cmd_sweep(args) -> int:
    cutoffs = _parse_values(args.cutoffs, int)
    rows = sensitivity_sweep(_load_series(args), _design_from_args(args),
                             args.target_daynum, args.alpha, cutoffs,
                             overdispersed=args.overdispersed)
    lines = [_meta_csv_line(args),
             "cutoff_daynum,s_current,xi_hat,point,lower,upper,error"]
    for row in rows:
        if row.result is None:
            err = (row.error or "").replace(",", ";").replace("\n", " ")
            lines.append(f"{row.cutoff_daynum},{row.s_current},,,,,{err}")
        else:
            xi = "" if row.xi is None else (
                "inf" if math.isinf(row.xi) else repr(row.xi))
            lo, hi = row.result.interval_cumulative
            lines.append(f"{row.cutoff_daynum},{row.s_current},{xi},"
                         f"{row.result.point_cumulative},{lo},{hi},")
    _emit("\n".join(lines), args.out)
    return 0


# ------------------------------------------------------------ simulate


def _parse_w_dist(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if parts == ["uniform"]:
        return ("uniform", 0.0, 1.0)
    if len(parts) == 3 and parts[0] in ("uniform", "normal"):
        return (parts[0], _convert(parts[1], float), _convert(parts[2], float))
    raise DomainError(f"bad covariate law {text!r}; use uniform[,lo,hi] or normal,mu,sd")


def _cmd_simulate(args) -> int:
    theta = tuple(_convert(v, float) for v in args.theta.split(",")) if args.theta else None
    w_dist = _parse_w_dist(args.w_dist) if args.w_dist else None
    config = SimConfig(
        scenario=args.scenario,
        n=args.n,
        replications=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        lam=getattr(args, "lam", None),
        case=args.case,
        poly_order=args.order,
        theta=theta,
        w_dist=w_dist,
        workers=args.workers,
    )
    result = run_experiment(config)
    _emit(result_to_csv(result), args.out)
    return 0


# ---------------------------------------------------------- exact-props


# Rates whose regions share one poisson_cdf call: a command of up to this
# many rates makes one call, and a longer grid keeps its arrays this size.
_EXACT_BATCH = 1000


def _cmd_exact_props(args) -> int:
    lines = [_meta_csv_line(args),
             "lambda,Gam0R_coverage,Gam0R_length,Gam0N_coverage,Gam0N_length,"
             "Gam1_coverage,Gam1_length,Gam2_coverage,Gam2_length"]
    lams = _parse_values(args.lambda_grid, float)
    for start in range(0, len(lams), _EXACT_BATCH):
        batch = lams[start:start + _EXACT_BATCH]
        rows = np.empty((len(batch), 4, 5))
        rows[:, 0] = _scan_rows((pmf_poisson(lam) for lam in batch), args.alpha)
        # the nonrandomized region is the folded interval, always included
        rows[:, 1, 0:2] = rows[:, 1, 2:4] = rows[:, 0, 2:4]
        rows[:, 1, 4] = 0.0
        rows[:, 2] = _interval_rows(*_normal_bounds(batch, batch, args.alpha))
        rows[:, 3] = _interval_rows(*_sqrt_bounds(batch, 1.0, args.alpha))
        props = _exact_rows(rows.reshape(-1, 5), np.repeat(batch, 4))
        for lam, cells in zip(batch, props.reshape(-1, 8).tolist()):
            lines.append(",".join(map(repr, [lam, *cells])))
    _emit("\n".join(lines), args.out)
    return 0


# ----------------------------------------------------------- reallocate


def _cmd_reallocate(args) -> int:
    series = _load_series(args)
    if not series.adjustments:
        raise DomainError("reallocate needs --adjustments with at least one entry")
    adjusted = reallocate_adjustments(series)
    lines = [_meta_csv_line(args),
             "dateRep,daynum,weekday,count_original,count_adjusted"]
    for before, after in zip(series.records, adjusted.records):
        lines.append(f"{before.date.day:02d}/{before.date.month:02d}/"
                     f"{before.date.year},{before.daynum},{before.weekday},"
                     f"{before.count},{after.count}")
    _emit("\n".join(lines), args.out)
    return 0


# ---------------------------------------------------------------- main


def _add_data_args(p: argparse.ArgumentParser, need_cutoff: bool = True) -> None:
    p.add_argument("--data", required=True, help="ECDC-layout CSV path")
    p.add_argument("--country", required=True,
                   help="country name or geo id to filter on")
    p.add_argument("--adjustments", help="JSON file of {daynum, amount} entries")
    p.add_argument("--apply-adjustments", action="store_true",
                   help="re-allocate adjustments before fitting")
    p.add_argument("--start-daynum", type=int, default=None)
    if need_cutoff:
        p.add_argument("--cutoff-daynum", type=int, default=None,
                       help="drop observations after this day")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, default=5, help="polynomial order")
    p.add_argument("--day-factor", action="store_true",
                   help="include weekday dummies (Monday baseline)")
    p.add_argument("--alpha", type=float, default=0.05)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="countpred",
                     description="Prediction regions and forecasts for counts")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the count regression and report AIC/xi")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--max-order", type=int, default=None,
                   help="highest order in the AIC table (default: --order)")
    p.add_argument("--bins", type=int, default=6)
    p.add_argument("--residuals-csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="prediction region at given days")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--daynum", required=True,
                   help="day numbers to predict at: comma list and/or "
                        "start:stop[:step] ranges")
    p.add_argument("--variant", default="normal",
                   choices=["smallest-plugin", "normal", "sqrt", "overdispersed"])
    p.add_argument("--u", type=float, default=0.0,
                   help="randomizer for the smallest-cardinality variant")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("forecast", help="cumulative forecast to a target day")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--target-daynum", type=int, required=True)
    p.add_argument("--overdispersed", action="store_true")
    p.add_argument("--allow-long-horizon", action="store_true")
    p.add_argument("--per-day-csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("sweep", help="forecast sensitivity across cutoffs")
    _add_data_args(p, need_cutoff=False)
    _add_model_args(p)
    p.add_argument("--target-daynum", type=int, required=True)
    p.add_argument("--cutoffs", required=True,
                   help="comma list and/or start:stop[:step] ranges")
    p.add_argument("--overdispersed", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo coverage/length study")
    p.add_argument("--scenario", required=True, choices=["intercept", "regression"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--case", type=int, default=None, choices=[1, 2, 3, 4])
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--theta", default=None, help="comma-separated coefficients")
    p.add_argument("--w-dist", default=None,
                   help="uniform[,lo,hi] or normal,mu,sd")
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=20200315)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("exact-props",
                       help="exact coverage/length of the known-rate regions")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lambda-grid", required=True,
                   help="comma list and/or start:stop[:step] ranges")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_exact_props)

    p = sub.add_parser("reallocate", help="apply adjustment re-allocation")
    _add_data_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reallocate)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's parser; ``build_parser`` still returns a fresh one."""
    return build_parser()


def cli_dispatch(argv) -> int:
    """Run one command line; returns the exit status."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: data: {_one_line(exc)}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: numerical: {_one_line(exc)}", file=sys.stderr)
        return 3


def _one_line(exc: BaseException) -> str:
    return str(exc).replace("\n", " ")


def main(argv=None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)
