"""ECDC ingestion, the day-number calendar, and the CLI surface."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from countpred import cli, forecast, glm
from countpred.cli import build_parser, cli_dispatch
from countpred.data import (
    DAYNUM_EPOCH,
    DailySeries,
    date_of_daynum,
    daynum_of_date,
    load_adjustments,
    parse_ecdc_csv,
    weekday_of_daynum,
)
from countpred.errors import AdjustmentError, DataError, DomainError, SingularityError
from countpred.glm import (
    DesignSpec,
    build_design,
    design_row,
    fit,
    rate_and_variance,
    region_regression,
    residual_diagnostics,
)
from countpred.overdispersion import estimate_xi


# ------------------------------------------------------------- calendar


def test_daynum_anchors():
    assert daynum_of_date(date(2019, 12, 31)) == 1
    assert daynum_of_date(date(2020, 3, 1)) == 62
    assert date_of_daynum(62) == date(2020, 3, 1)
    assert DAYNUM_EPOCH == date(2019, 12, 30)


def test_weekday_labels():
    assert weekday_of_daynum(62) == "Sunday"
    assert weekday_of_daynum(108) == "Thursday"
    assert weekday_of_daynum(138) == "Saturday"
    assert weekday_of_daynum(179) == "Friday"


@given(st.integers(min_value=-100000, max_value=100000))
def test_daynum_round_trip(daynum):
    assert daynum_of_date(date_of_daynum(daynum)) == daynum


# -------------------------------------------------------------- parsing


HEADER = "dateRep,day,month,year,cases,deaths,countriesAndTerritories,geoId\n"


def write_csv(path, rows, header=HEADER):
    path.write_text(header + "".join(rows))
    return str(path)


def row(d, deaths, country="Testland", geo="TL", date_rep=None):
    dr = date_rep if date_rep is not None else f"{d.day:02d}/{d.month:02d}/{d.year}"
    return f"{dr},{d.day},{d.month},{d.year},0,{deaths},{country},{geo}\n"


def test_parse_basic_and_country_filter(tmp_path):
    rows = [
        row(date(2020, 3, 2), 5),
        row(date(2020, 3, 1), 3),
        row(date(2020, 3, 1), 9, country="Elsewhere", geo="EW"),
    ]
    path = write_csv(tmp_path / "d.csv", rows)
    series = parse_ecdc_csv(path, "Testland")
    assert series.counts() == [3, 5]
    assert series.daynums() == [62, 63]
    assert series.records[0].weekday == "Sunday"
    # geo id and case-insensitive matching select the same rows
    assert parse_ecdc_csv(path, "tl").counts() == [3, 5]
    assert parse_ecdc_csv(path, "TESTLAND").counts() == [3, 5]


def test_parse_gap_fill_and_fallback_date(tmp_path):
    rows = [
        row(date(2020, 3, 1), 3),
        # dateRep empty: parser falls back to day/month/year columns
        row(date(2020, 3, 4), 7, date_rep=""),
    ]
    series = parse_ecdc_csv(write_csv(tmp_path / "d.csv", rows), "Testland")
    assert series.counts() == [3, 0, 0, 7]
    assert [r.filled for r in series.records] == [False, True, True, False]


def test_parse_errors_carry_line_numbers(tmp_path):
    rows = [row(date(2020, 3, 1), 3),
            "bogus,x,y,z,0,5,Testland,TL\n"]
    with pytest.raises(DataError) as err:
        parse_ecdc_csv(write_csv(tmp_path / "d.csv", rows), "Testland")
    assert err.value.line == 3
    assert "line 3" in str(err.value)

    bad = write_csv(tmp_path / "e.csv",
                    ["01/03/2020,1,3,2020,0,NaNish,Testland,TL\n"])
    with pytest.raises(DataError, match="unparseable deaths"):
        parse_ecdc_csv(bad, "Testland")


def test_parse_rejects_negative_duplicate_missing(tmp_path):
    with pytest.raises(DataError, match="negative"):
        parse_ecdc_csv(write_csv(tmp_path / "a.csv",
                                 [row(date(2020, 3, 1), -2)]), "Testland")
    with pytest.raises(DataError, match="duplicate"):
        parse_ecdc_csv(write_csv(tmp_path / "b.csv",
                                 [row(date(2020, 3, 1), 1),
                                  row(date(2020, 3, 1), 2)]), "Testland")
    with pytest.raises(DataError, match="missing required columns"):
        parse_ecdc_csv(write_csv(tmp_path / "c.csv", [],
                                 header="dateRep,deaths\n"), "Testland")
    with pytest.raises(DataError, match="no rows for country"):
        parse_ecdc_csv(write_csv(tmp_path / "d.csv",
                                 [row(date(2020, 3, 1), 1)]), "Atlantis")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        parse_ecdc_csv(str(empty), "Testland")


def test_parse_memo_keys_on_the_file_content(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, [row(date(2020, 3, 1), 15), row(date(2020, 3, 2), 27)])
    first = parse_ecdc_csv(str(path), "Testland")
    assert parse_ecdc_csv(str(path), "Testland") is first
    stat = path.stat()
    write_csv(path, [row(date(2020, 3, 1), 16), row(date(2020, 3, 2), 27)])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert path.stat().st_mtime_ns == stat.st_mtime_ns
    assert parse_ecdc_csv(str(path), "Testland").counts() == [16, 27]
    assert first.counts() == [15, 27]


def test_parse_errors_raise_on_every_call(tmp_path):
    path = write_csv(tmp_path / "c.csv", [], header="dateRep,deaths\n")
    for _ in range(3):
        with pytest.raises(DataError, match="missing required columns"):
            parse_ecdc_csv(path, "Testland")


def test_series_helpers(tmp_path):
    rows = [row(date(2020, 3, 1) , 3), row(date(2020, 3, 2), 5),
            row(date(2020, 3, 3), 7)]
    series = parse_ecdc_csv(write_csv(tmp_path / "d.csv", rows), "Testland")
    assert series.total() == 15
    assert series.cumulative_to(63) == 8
    cut = series.truncated(63)
    assert cut.counts() == [3, 5]
    tail = series.truncated(64, start_daynum=63)
    assert tail.counts() == [5, 7]
    with pytest.raises(DataError):
        series.truncated(10)
    adj = series.with_adjustments([(63, 4)])
    assert adj.adjustments == ((63, 4),)
    assert adj.truncated(62).adjustments == ()


def test_load_adjustments(tmp_path):
    good = tmp_path / "adj.json"
    good.write_text(json.dumps([{"daynum": 108, "amount": 3778}]))
    assert load_adjustments(str(good)) == ((108, 3778),)

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(DataError, match="invalid adjustments JSON"):
        load_adjustments(str(bad_json))

    not_list = tmp_path / "nl.json"
    not_list.write_text(json.dumps({"daynum": 1, "amount": 2}))
    with pytest.raises(DataError, match="JSON list"):
        load_adjustments(str(not_list))

    bad_entry = tmp_path / "be.json"
    bad_entry.write_text(json.dumps([{"daynum": 1}]))
    with pytest.raises(DataError, match="bad adjustment entry"):
        load_adjustments(str(bad_entry))

    negative = tmp_path / "neg.json"
    negative.write_text(json.dumps([{"daynum": 1, "amount": -5}]))
    with pytest.raises(AdjustmentError):
        load_adjustments(str(negative))


# ------------------------------------------------------------------ CLI


@pytest.fixture()
def series_csv(tmp_path):
    """Sixty days of smooth weekday-modulated counts from day 62."""
    mult = {"Monday": 0.85, "Tuesday": 1.1, "Wednesday": 1.2, "Thursday": 1.1,
            "Friday": 1.05, "Saturday": 0.95, "Sunday": 0.75}
    rows = []
    rng = np.random.default_rng(6021)
    for daynum in range(62, 122):
        lam = math.exp(2.0 + 0.035 * (daynum - 62)) * mult[weekday_of_daynum(daynum)]
        rows.append(row(date_of_daynum(daynum), int(rng.poisson(lam))))
    return write_csv(tmp_path / "series.csv", rows)


def run_cli(args):
    return cli_dispatch(args)


def test_cli_help_and_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        run_cli(["not-a-command"])
    assert exc.value.code == 1
    assert "error: usage:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        run_cli(["forecast"])  # missing required arguments
    assert exc.value.code == 1


def test_cli_fit_json(series_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = run_cli(["fit", "--data", series_csv, "--country", "Testland",
                    "--order", "2", "--day-factor", "--max-order", "3",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["version"]
    assert payload["converged"] is True
    assert payload["newton_decrement"] <= 1e-10 * (abs(payload["loglik"]) + 1.0)
    assert payload["step_halvings"] >= 0
    assert len(payload["theta_standardized"]) == 1 + 2 + 6
    assert len(payload["aic_table"]) == 3
    assert {"aic_nd", "aic_d"} <= set(payload["aic_table"][0])
    assert payload["diagnostics"]["df"] == 5
    # raw and standardized parameterizations agree on the fitted rates
    raw = payload["theta_raw"]
    assert len(raw) == len(payload["theta_standardized"])


def run_captured(argv, capsys):
    """(exit code, stdout, stderr) of one command line."""
    try:
        code = cli_dispatch(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_commands_sharing_the_parser_stay_isolated(series_csv, monkeypatch, capsys):
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    data = ["--data", series_csv, "--country", "Testland"]
    commands = [
        ["fit", *data, "--order", "2", "--day-factor", "--max-order", "3"],
        ["fit", *data, "--max-order", "4", "--order", "two"],      # usage error
        ["forecast", *data, "--order", "2", "--target-daynum", "125"],
        ["exact-props", "--lambda-grid", "0.5,3", "--alpha", "0.1"],
        ["--help"],
        ["fit", *data, "--order", "1"],
    ]
    shared = [run_captured(argv, capsys) for argv in commands]
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [run_captured(argv, capsys) for argv in commands]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 0, 0]

    configs = [json.loads(shared[i][1])["meta"]["config"] for i in (0, 2, 5)]
    assert configs[0]["max_order"] == 3 and configs[0]["day_factor"] is True
    assert "max_order" not in configs[1] and configs[1]["day_factor"] is False
    assert configs[2]["max_order"] is None and configs[2]["day_factor"] is False
    assert configs[2]["order"] == 1
    exact_config = json.loads(shared[3][1].split("\n")[0][2:])["config"]
    assert set(exact_config) == {"alpha", "lambda_grid", "out"}


@pytest.mark.parametrize("day_factor", [True, False])
@pytest.mark.parametrize("order, max_order", [(2, 3), (3, 2), (5, 5)])
def test_cli_fit_reuses_the_table_fit_of_the_chosen_design(
        series_csv, monkeypatch, capsys, order, max_order, day_factor):
    fits = []
    monkeypatch.setattr(cli, "fit",
                        lambda *a, **kw: fits.append(fit(*a, **kw)) or fits[-1])
    builds = []
    monkeypatch.setattr(forecast, "build_design",
                        lambda *a: builds.append(a[2]) or build_design(*a))
    argv = ["fit", "--data", series_csv, "--country", "Testland",
            "--order", str(order), "--max-order", str(max_order)]
    code = run_cli(argv + (["--day-factor"] if day_factor else []))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # one fit per design of the table, and one more only outside it
    assert len(fits) == 2 * max_order + (order > max_order)
    # every fit takes its columns from one design of the widest order
    assert [(b.poly_order, b.include_day_factor) for b in builds] == [
        (max(order, max_order), True)]

    series = parse_ecdc_csv(series_csv, "Testland")
    for f in fits:
        own = cli._fit_series(series, replace(f.design, column_means=None,
                                              column_sds=None))
        assert own.design == f.design
        assert np.array_equal(own.X, f.X) and np.array_equal(own.theta, f.theta)
        assert (own.loglik, own.aic, own.iterations) == (f.loglik, f.aic, f.iterations)
    design = DesignSpec(poly_order=order, include_day_factor=day_factor,
                        standardize=True)
    ref = cli._fit_series(series, design)
    diag = residual_diagnostics(ref, 6)
    expected = {
        "theta_standardized": [float(v) for v in ref.theta],
        "theta_raw": cli._raw_theta(ref.theta, ref.design),
        "loglik": ref.loglik,
        "aic": ref.aic,
        "xi_hat": cli._xi_json(estimate_xi(ref)),
        "converged": ref.converged,
        "iterations": ref.iterations,
        "newton_decrement": ref.decrement,
        "step_halvings": ref.halvings,
        "diagnostics": {"table": diag.table.tolist(), "statistic": diag.statistic,
                        "df": diag.df, "p_value": diag.p_value,
                        "bin_edges": list(diag.bin_edges)},
    }
    expected = json.loads(json.dumps(expected, default=cli._json_default))
    assert {k: payload[k] for k in expected} == expected
    if order <= max_order:
        tag = "aic_d" if day_factor else "aic_nd"
        assert payload["aic"] == payload["aic_table"][order - 1][tag]


def test_cli_fit_refits_when_the_table_fit_of_the_chosen_design_raised(
        series_csv, monkeypatch, capsys):
    # order 2 with weekday dummies is the only 9-column design of the table
    def singular_at_nine_columns(X, y, design=None):
        if X.shape[1] == 9:
            raise SingularityError("information matrix is singular")
        return fit(X, y, design=design)

    monkeypatch.setattr(cli, "fit", singular_at_nine_columns)
    code = run_cli(["fit", "--data", series_csv, "--country", "Testland",
                    "--order", "2", "--day-factor", "--max-order", "3"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: numerical: information matrix is singular\n"


def test_cli_fit_stdout_json(series_csv, capsys):
    code = run_cli(["fit", "--data", series_csv, "--country", "Testland",
                    "--order", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 1


def test_cli_predict(series_csv, tmp_path):
    out = tmp_path / "pred.json"
    code = run_cli(["predict", "--data", series_csv, "--country", "Testland",
                    "--order", "2", "--day-factor", "--daynum", "120,121",
                    "--variant", "normal", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["predictions"]) == 2
    for p in payload["predictions"]:
        assert p["lower"] <= p["upper"]
        assert p["rate"] > 0


def test_cli_forecast(series_csv, tmp_path):
    out = tmp_path / "fc.json"
    code = run_cli(["forecast", "--data", series_csv, "--country", "Testland",
                    "--order", "2", "--day-factor", "--target-daynum", "125",
                    "--overdispersed", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["horizon_days"] == 4
    assert payload["alpha_star"] == pytest.approx(1 - 0.95 ** 0.25)
    lo, hi = payload["interval"]
    assert lo <= payload["point"] <= hi
    assert len(payload["per_day"]) == 4


def test_cli_sweep(series_csv, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--data", series_csv, "--country", "Testland",
                    "--order", "2", "--day-factor", "--target-daynum", "122",
                    "--cutoffs", "119:121", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# ")
    assert lines[1] == "cutoff_daynum,s_current,xi_hat,point,lower,upper,error"
    assert len(lines) == 5
    first = lines[2].split(",")
    assert first[0] == "119" and first[-1] == ""


def test_cli_sweep_collects_row_errors(series_csv, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--data", series_csv, "--country", "Testland",
                    "--order", "2", "--day-factor", "--target-daynum", "122",
                    "--cutoffs", "64,121", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    bad = lines[2].split(",")
    assert bad[0] == "64" and bad[-1] != ""
    good = lines[3].split(",")
    assert good[0] == "121" and good[-1] == ""


@pytest.mark.parametrize("cutoff", [72, 73, 74])
def test_predict_forecast_and_sweep_refuse_fewer_than_k_plus_2_observations(cutoff, capsys):
    # order 5 plus weekday has k = 12 parameters; the fixture starts on day 62
    fixture = str(Path(cli.__file__).parent / "fixtures" / "us_covid_deaths_ecdc.csv")
    data = ["--data", fixture, "--country", "US", "--order", "5", "--day-factor"]
    want = f"cutoff {cutoff} leaves {cutoff - 61} observations for 12 parameters"
    for command in (["forecast", "--cutoff-daynum", str(cutoff), "--target-daynum", "154",
                     "--allow-long-horizon", "--overdispersed"],
                    ["predict", "--cutoff-daynum", str(cutoff), "--daynum", "100"]):
        assert run_cli(command + data) == 2
        assert capsys.readouterr().err == f"error: data: {want}\n"
    assert run_cli(["sweep", "--cutoffs", str(cutoff), "--target-daynum", "154"] + data) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{cutoff},{parse_ecdc_csv(fixture, 'US').cumulative_to(cutoff)},,,,,{want}")


@pytest.mark.parametrize("variant", ["smallest-plugin", "normal", "sqrt", "overdispersed"])
def test_predict_refuses_u_outside_the_unit_interval(series_csv, capsys, variant):
    code = run_cli(["predict", "--data", series_csv, "--country", "Testland",
                    "--order", "2", "--daynum", "122", "--variant", variant, "--u", "7"])
    assert code == 1
    assert "u must lie in [0, 1], got 7.0" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["overdispersed", "normal"])
def test_predict_count_variance_gives_the_interval_width(capsys, variant):
    # the normal interval rate +- z sd, its bounds rounded inward and the
    # lower clipped at 0, with sd the square root of count_variance
    fixture = str(Path(cli.__file__).parent / "fixtures" / "us_covid_deaths_ecdc.csv")
    code, out, _ = run_captured(["predict", "--data", fixture, "--country", "US",
                                 "--order", "5", "--day-factor", "--daynum", "100,150,180",
                                 "--variant", variant], capsys)
    assert code == 0
    for row in json.loads(out)["predictions"]:
        half = 1.959963984540054 * math.sqrt(row["count_variance"])
        want = row["rate"] + half - max(0.0, row["rate"] - half)
        assert want - 2.0 < row["upper"] - row["lower"] <= want, row
        poisson = row["rate"] * row["variance_factor"]
        if variant == "normal":
            assert row["count_variance"] == poisson
        else:       # the frailty term: about 105 rates at day 150
            assert row["count_variance"] > 50.0 * poisson


def test_cli_simulate_csv(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate", "--scenario", "intercept", "--n", "5",
                    "--lambda", "1.0", "--reps", "300", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert "seed=20200315" in lines[0]
    assert lines[1].split(",")[0] == "n"


@pytest.mark.parametrize("scenario", [["--scenario", "intercept", "--lambda", "1"],
                                      ["--scenario", "regression", "--case", "1"]])
@pytest.mark.parametrize("bad", [["--seed", "-1"], ["--workers", "0"],
                                 ["--reps", str(2**32)]])
def test_cli_simulate_rejects_negative_seed_no_workers_and_too_many_reps(
        scenario, bad, capsys):
    code = run_cli(["simulate", "--n", "5", "--reps", "10", *scenario, *bad])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: usage:")


def test_cli_exact_props(capsys):
    code = run_cli(["exact-props", "--lambda-grid", "1,5", "--alpha", "0.05"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    header = lines[1].split(",")
    cov_idx = header.index("Gam0R_coverage")
    for data_line in lines[2:]:
        cells = data_line.split(",")
        assert float(cells[cov_idx]) == pytest.approx(0.95, abs=1e-10)
        assert float(cells[header.index("Gam0N_coverage")]) >= 0.95 - 1e-12


@pytest.mark.parametrize("argv", [
    ["exact-props", "--lambda-grid", "2e6"],
    ["simulate", "--scenario", "intercept", "--n", "10", "--lambda", "1e5",
     "--reps", "300"],
])
def test_cli_refuses_supports_past_the_enumeration_cap(argv, capsys):
    code, out, err = run_captured(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: usage:") and err.count("\n") == 1


def test_cli_reallocate(series_csv, tmp_path):
    adj = tmp_path / "adj.json"
    adj.write_text(json.dumps([{"daynum": 80, "amount": 10}]))
    out = tmp_path / "re.csv"
    code = run_cli(["reallocate", "--data", series_csv, "--country", "Testland",
                    "--adjustments", str(adj), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "dateRep,daynum,weekday,count_original,count_adjusted"
    rows = [ln.split(",") for ln in lines[2:]]
    assert sum(int(r[3]) for r in rows) == sum(int(r[4]) for r in rows)
    changed = [r for r in rows if r[3] != r[4]]
    assert changed, "reallocation should move at least one count"


def test_cli_reallocate_requires_adjustments(series_csv, capsys):
    code = run_cli(["reallocate", "--data", series_csv, "--country", "Testland"])
    assert code == 1
    assert "error: usage:" in capsys.readouterr().err


def test_cli_adjustments_do_not_carry_over_to_the_next_command(series_csv, tmp_path,
                                                              capsys):
    adj = tmp_path / "adj.json"
    adj.write_text(json.dumps([{"daynum": 80, "amount": 10}]))
    data = ["--data", series_csv, "--country", "Testland"]
    fit_argv = ["fit", *data, "--order", "2"]
    code, plain, _ = run_captured(fit_argv, capsys)
    assert code == 0
    code, adjusted, _ = run_captured(
        fit_argv + ["--adjustments", str(adj), "--apply-adjustments"], capsys)
    assert code == 0
    assert json.loads(adjusted)["aic"] != json.loads(plain)["aic"]
    code, again, _ = run_captured(fit_argv, capsys)
    assert code == 0
    assert json.loads(again)["aic"] == json.loads(plain)["aic"]
    assert run_captured(["reallocate", *data], capsys)[0] == 1
    assert parse_ecdc_csv(series_csv, "Testland").adjustments == ()


def test_cli_exit_code_data_errors(series_csv, tmp_path, capsys):
    code = run_cli(["fit", "--data", str(tmp_path / "missing.csv"),
                    "--country", "Testland"])
    assert code == 2
    assert "error: data:" in capsys.readouterr().err

    code = run_cli(["fit", "--data", series_csv, "--country", "Atlantis"])
    assert code == 2
    assert "error: data:" in capsys.readouterr().err


def test_cli_exit_code_usage_errors(series_csv, capsys):
    # forecast target at or before the cutoff is a usage-level error
    code = run_cli(["forecast", "--data", series_csv, "--country", "Testland",
                    "--target-daynum", "100"])
    assert code == 1
    assert "error: usage:" in capsys.readouterr().err

    code = run_cli(["forecast", "--data", series_csv, "--country", "Testland",
                    "--target-daynum", "500"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: usage:" in err


def test_cli_exit_code_numerical_errors(tmp_path, capsys):
    # two distinct daynums cannot identify a quintic: singular design
    rows = [row(date(2020, 3, 1), 5), row(date(2020, 3, 2), 8),
            row(date(2020, 3, 3), 6)]
    path = write_csv(tmp_path / "tiny.csv", rows)
    code = run_cli(["fit", "--data", path, "--country", "Testland",
                    "--order", "2", "--max-order", "2"])
    assert code in (2, 3)
    assert capsys.readouterr().err.startswith("error:")


def test_cli_forecast_overflow_exits_numerical(capsys):
    # an order-5 extrapolation from 30 days overflows the upper bound
    fixture = (Path(__file__).resolve().parents[1] / "src" / "countpred"
               / "fixtures" / "us_covid_deaths_ecdc.csv")
    code = run_cli(["forecast", "--data", str(fixture), "--country", "US",
                    "--cutoff-daynum", "91", "--order", "5", "--day-factor",
                    "--overdispersed", "--target-daynum", "154",
                    "--allow-long-horizon"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


# ------------------------------------------------------- list arguments


def reference_parse_cutoffs(text):
    """The sweep's former cutoff parser, kept as the reference for valid specs."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            pieces = part.split(":")
            start, stop = int(pieces[0]), int(pieces[1])
            step = int(pieces[2]) if len(pieces) == 3 else 1
            out.extend(range(start, stop + 1, step))
        elif part:
            out.append(int(part))
    return out


def reference_parse_grid(text):
    """The exact-props' former lambda-grid parser, the reference for valid specs."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            pieces = part.split(":")
            start, stop = float(pieces[0]), float(pieces[1])
            step = float(pieces[2]) if len(pieces) == 3 else 1.0
            v = start
            while v <= stop + 1e-9:
                values.append(round(v, 10))
                v += step
        elif part:
            values.append(float(part))
    return values


# the benchmark's exact-props grids: 100 commands of 100 rows, step 0.05
BENCH_GRIDS = [f"{(i * 100 + 1) * 0.05:.2f}:{(i + 1) * 100 * 0.05:.2f}:0.05"
               for i in range(100)]


@pytest.mark.parametrize("spec", ["137", "137:153", "100,120:130:5,140", " 80 : 185 : 3 ,",
                                  "120:130:20", "5:5", "150:151,137", "-3:3:2"])
def test_parse_values_matches_the_former_cutoff_parser(spec):
    got = cli._parse_values(spec, int)
    assert got == reference_parse_cutoffs(spec)
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("specs", [BENCH_GRIDS] + [[spec] for spec in (
    "0.05:500:0.05", "0.01:50:0.01", "0.5:2000:0.5", "1:200", "0.2:100:0.2",
    "0.001,0.3,0.7,1,2,3,1e3,1e4,1e5", "0.05,500", "2.5:3.5:0.1,7")])
def test_parse_values_matches_the_former_grid_parser(specs):
    for spec in specs:
        got = cli._parse_values(spec, float)
        assert [repr(v) for v in got] == [repr(v) for v in reference_parse_grid(spec)]


def test_parse_values_keeps_a_list_up_to_the_cap():
    assert cli._parse_values("1:1000000", int) == list(range(1, 10**6 + 1))
    with pytest.raises(DomainError, match="more than 1000000 values"):
        cli._parse_values("0:1000000", int)


def test_predict_accepts_daynum_ranges(series_csv, capsys):
    data = ["predict", "--data", series_csv, "--country", "Testland", "--order", "2"]
    _, ranged, _ = run_captured([*data, "--daynum", "120:124:2"], capsys)
    _, listed, _ = run_captured([*data, "--daynum", "120,122,124"], capsys)
    rows = json.loads(ranged)["predictions"]
    assert [r["daynum"] for r in rows] == [120, 122, 124]
    assert rows == json.loads(listed)["predictions"]


MALFORMED = [
    ("sweep", "--cutoffs", "12x"), ("sweep", "--cutoffs", ""), ("sweep", "--cutoffs", ","),
    ("sweep", "--cutoffs", "1:2:3:4"), ("sweep", "--cutoffs", "120:"),
    ("sweep", "--cutoffs", "120:130:0"),        # was a crash in range()
    ("sweep", "--cutoffs", "130:120:-1"),       # was a silent sweep of 122..130
    ("sweep", "--cutoffs", "119:121:1.5"),
    ("exact-props", "--lambda-grid", "abc"), ("exact-props", "--lambda-grid", "1:2:0"),
    ("exact-props", "--lambda-grid", "1:2:3:4"), ("exact-props", "--lambda-grid", "0.5:x"),
    ("exact-props", "--lambda-grid", " , "), ("exact-props", "--lambda-grid", "nan"),
    ("exact-props", "--lambda-grid", "0.5:inf"), ("sweep", "--cutoffs", "1" + "0" * 400),
    ("predict", "--daynum", "120,x"), ("predict", "--daynum", "120.5"),
    ("predict", "--daynum", "120:125:-1"), ("predict", "--daynum", ""),
    ("simulate", "--theta", "1,abc"), ("simulate", "--theta", "1,,2"),
    ("simulate", "--w-dist", "normal,0,x"), ("simulate", "--w-dist", "uniform,a,1"),
    ("simulate", "--theta", "1,inf"), ("simulate", "--w-dist", "normal,0,nan"),
    # regression configs no draw could fit, refused before drawing
    ("simulate", "--order", "-1"), ("simulate", "--order", "2"),
    ("simulate", "--theta", "1,2,3"), ("simulate", "--n", "1"),
    ("simulate", "--w-dist", "uniform,1,1"), ("simulate", "--w-dist", "uniform,2,1"),
    ("simulate", "--w-dist", "normal,0,0"), ("simulate", "--w-dist", "normal,0,-1"),
    # a step that no longer changes the value: 1e17 + 0.001 == 1e17
    ("exact-props", "--lambda-grid", "1e17:100000000000000016:0.001"),
    # longer than the list cap, rejected before a value is kept
    ("exact-props", "--lambda-grid", "1e17:2e17"), ("sweep", "--cutoffs", "0:1000000000"),
    ("predict", "--daynum", "5,0:999999"),
]


@pytest.mark.parametrize("command, option, value", MALFORMED)
def test_malformed_list_values_exit_with_one_usage_line(series_csv, capsys,
                                                        command, option, value):
    data = ["--data", series_csv, "--country", "Testland"]
    rest = {
        "sweep": [*data, "--order", "2", "--target-daynum", "122"],
        "exact-props": [],
        "predict": [*data, "--order", "2"],
        "simulate": ["--scenario", "regression", "--n", "10", "--order", "1",
                     "--theta", "1,0.5", "--w-dist", "uniform", "--reps", "10"],
    }[command]
    code, out, err = run_captured([command, *rest, option, value], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: usage:") and err.count("\n") == 1


def test_simulate_case_with_fewer_observations_than_coefficients(capsys):
    code, out, err = run_captured(["simulate", "--scenario", "regression", "--case", "4",
                                   "--n", "5", "--reps", "3"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: usage:") and err.count("\n") == 1


@pytest.mark.parametrize("law", [
    ["--order", "1", "--theta", "50,0", "--w-dist", "uniform"],      # every draw overflows
    ["--order", "0", "--theta", "-40", "--w-dist", "uniform"],       # all counts zero
    ["--order", "1", "--theta", "1,0.5", "--w-dist", "normal,0,1e-300"],  # singular
], ids=["overflow", "zero-counts", "singular"])
def test_simulate_config_no_draw_can_fit_ends_in_a_numerical_error(law):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "countpred", "simulate",
                           "--scenario", "regression", "--n", "10", "--reps", "3", *law],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: numerical:") and proc.stderr.count("\n") == 1


def test_cli_runs_on_numpy_alone():
    # scipy and mpmath are test oracles, never runtime imports
    fixture = Path(cli.__file__).parent / "fixtures" / "us_covid_deaths_ecdc.csv"
    script = (
        "import sys\n"
        "from countpred.cli import main\n"
        "assert main(['exact-props', '--lambda-grid', '0.05,500', '--alpha', '0.05']) == 0\n"
        f"assert main(['fit', '--data', {str(fixture)!r}, '--country', 'US',"
        " '--order', '5', '--day-factor']) == 0\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules), file=sys.stderr)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "[]\n")


@pytest.mark.parametrize("variant, u", [("normal", "0"), ("sqrt", "0.3"),
                                        ("smallest-plugin", "0.5"),
                                        ("smallest-plugin", "1")])
def test_cli_predict_computes_each_rate_once(series_csv, monkeypatch, capsys, variant, u):
    calls = []
    counted = lambda f, x0: calls.append(x0) or rate_and_variance(f, x0)  # noqa: E731
    monkeypatch.setattr(cli, "rate_and_variance", counted)
    monkeypatch.setattr(glm, "rate_and_variance", counted)
    code = run_cli(["predict", "--data", series_csv, "--country", "Testland",
                    "--order", "2", "--day-factor", "--daynum", "122,123,130",
                    "--variant", variant, "--u", u, "--alpha", "0.1"])
    assert code == 0
    assert len(calls) == 3
    payload = json.loads(capsys.readouterr().out)

    base = cli._fit_series(parse_ecdc_csv(series_csv, "Testland"),
                           DesignSpec(poly_order=2, include_day_factor=True,
                                      standardize=True))
    expected = []
    for daynum in (122, 123, 130):
        x0 = design_row(float(daynum), weekday_of_daynum(daynum), base.design)
        lam0, vhat = rate_and_variance(base, x0)
        region = region_regression(base, x0, 0.1, variant, float(u))
        expected.append({"daynum": daynum, "rate": lam0, "variance_factor": vhat,
                         "count_variance": lam0 * vhat, "variant": variant,
                         "lower": region.realized_lo, "upper": region.realized_hi,
                         "core": [region.core_lo, region.core_hi],
                         "boundary": list(region.boundary),
                         "boundary_prob": region.boundary_prob,
                         "level": region.level, "length": region.length})
    assert payload["predictions"] == json.loads(json.dumps(expected))


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_lines():
    """The countpred command lines of README's "Command line" block."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```", 2)[1].replace("\\\n", " ")
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("countpred ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    fixtures = str(Path(__file__).resolve().parents[1] / "src" / "countpred" / "fixtures")
    lines = readme_command_lines()
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)          # reallocate writes adjusted.csv here
    for argv in lines:
        argv = [arg.replace("$FIX", fixtures) for arg in argv]
        code, _, err = run_captured(argv, capsys)
        assert (code, err) == (0, ""), argv
    assert (tmp_path / "adjusted.csv").exists()
