"""The four benchmark workloads and the checks on their outputs.

Each workload is a list of calls into countpred's public surface (the
in-process CLI ``countpred.cli.main`` or the Monte Carlo runners), run in
passes.  A pass is a fixed set of calls; the seed decides the call order
(CLI workloads) or the ``SimConfig`` seed of each round (Monte Carlo
workloads), so the same seed gives the same inputs.  Every call's output
is checked against an oracle that does not go through countpred.

Why these workloads: see README.md in this directory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from datetime import date

# Paths are relative to the checkout root (the benchmark runs there), so
# the CLI's JSON/CSV meta, and with it the output digests, do not depend
# on where the checkout lives.
FIXTURE = "src/countpred/fixtures/us_covid_deaths_ecdc.csv"
ALPHA = 0.05

# Seed of round r of a Monte Carlo workload run with --seed s.
ROUND_SEED_STRIDE = 10_000


class CallFailed(Exception):
    """A call that raised or exited nonzero; ``reason`` classifies it."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class Call:
    """One call into countpred.

    ``key`` names the call in canonical order (digests follow that order),
    ``group`` is the output the call contributes to a digest, ``kind`` its
    latency class and ``ops`` the work it completes when it succeeds.
    ``params`` is the command line for CLI calls and (SimConfig fields,
    replications, seed) for Monte Carlo calls.
    """

    key: str
    group: str
    kind: str
    ops: int
    params: tuple


def run_cli(main, argv) -> str:
    """Run one in-process CLI command; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code if isinstance(exc.code, int) else 1
    if code:
        raise CallFailed(f"exit_{code}", err.getvalue().strip())
    return out.getvalue()


def _finite_nonneg(text: str) -> bool:
    value = float(text)
    return math.isfinite(value) and value >= 0.0


# ---------------------------------------------------------------- Monte Carlo


class MonteCarlo:
    """Table cells run through ``run_*_experiment`` with ``workers=1``.

    One round runs every cell once at its per-round replication count;
    round r uses ``SimConfig`` seed ``seed * ROUND_SEED_STRIDE + r``.  An
    op is one replication.
    """

    def __init__(self, modules, seed: int, scenario: str, cells):
        self.simulate = modules["simulate"]
        self.seed = seed
        self.scenario = scenario
        self.cells = cells  # (name, SimConfig fields, replications per round)
        self.entry = {
            "run": getattr(self.simulate, f"run_{scenario}_experiment"),
            "to_csv": self.simulate.result_to_csv,
        }
        self.canonical = self.pass_calls(0)

    def pass_calls(self, index: int) -> list[Call]:
        seed = self.seed * ROUND_SEED_STRIDE + index
        return [Call(key=name, group=name, kind=name, ops=reps,
                     params=(tuple(sorted(fields.items())), reps, seed))
                for name, fields, reps in self.cells]

    def warm_up(self) -> None:
        for name, fields, _ in self.cells:
            self.run(Call(key=name, group=name, kind=name, ops=2,
                          params=(tuple(sorted(fields.items())), 2, self.seed)))

    def run(self, call: Call) -> str:
        fields, reps, seed = call.params
        config = self.simulate.SimConfig(scenario=self.scenario, replications=reps,
                                         alpha=ALPHA, seed=seed, workers=1,
                                         **dict(fields))
        return self.entry["to_csv"](self.entry["run"](config))

    def check(self, call: Call, out: str) -> list[str]:
        lines = out.strip().split("\n")
        if len(lines) != 3 or not lines[0].startswith("# "):
            return [f"{call.key}: expected meta, header and one row, got {len(lines)} lines"]
        if f"replications={call.params[1]}" not in lines[0].split():
            return [f"{call.key}: meta line does not record {call.params[1]} replications"]
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        problems = []
        regions = [h[:-2] for h in lines[1].split(",") if h.endswith("CP")]
        if not regions:
            problems.append(f"{call.key}: no region columns")
        for region in regions:
            cp = float(row[region + "CP"])
            if not 0.0 <= cp <= 100.0:
                problems.append(f"{call.key}: {region}CP={cp} outside [0, 100]")
            for stat in ("ML", "SL"):
                if not _finite_nonneg(row[region + stat]):
                    problems.append(f"{call.key}: {region}{stat}={row[region + stat]} "
                                    "is not finite and >= 0")
        return problems


# Criterion-2 cells.  Replications per round are in the ratio 16:14:1 so
# each cell takes about a third of a round: support size n*lambda runs
# from 5 to 10^4, so a change that helps one support size and hurts
# another shows in ops_per_s.
INTERCEPT_CELLS = (
    ("lam1_n5", {"lam": 1.0, "n": 5}, 800),
    ("lam5_n50", {"lam": 5.0, "n": 50}, 700),
    ("lam100_n100", {"lam": 100.0, "n": 100}, 50),
)

# Criterion-3 cells, equal replications: Newton fits and regression regions.
REGRESSION_CELLS = (
    ("case1_n200", {"case": 1, "n": 200}, 250),
    ("case4_n30", {"case": 4, "n": 30}, 250),
    ("case3_n30", {"case": 3, "n": 30}, 250),
)

CELL_NAMES = tuple(name for name, _, _ in INTERCEPT_CELLS + REGRESSION_CELLS)


# -------------------------------------------------------------- epidemic CLI


def fixture_cumulative(path: str) -> dict[int, int]:
    """Cumulative deaths by day number, read without countpred.

    Day numbers count from December 30, 2019 (so December 31 is day 1).
    """
    epoch = date(2019, 12, 30)
    daily: dict[int, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.DictReader(fh):
            day, month, year = (int(v) for v in row["dateRep"].split("/"))
            daily[(date(year, month, day) - epoch).days] = int(row["deaths"])
    total = 0
    cumulative = {}
    for daynum in range(min(daily), max(daily) + 1):
        total += daily.get(daynum, 0)
        cumulative[daynum] = total
    return cumulative


class EpidemicCli:
    """What a forecaster runs: ``fit`` and ``forecast`` at every usable cutoff.

    Cutoffs 75..185 each leave at least k + 2 = 14 observations for the
    order-5 weekday design.  Each pass runs 111 ``fit`` commands and 190
    overdispersed ``forecast`` commands (target day 154 where the cutoff
    is before it, and day 199) in an order shuffled by the seed.  An op is
    one command.  Cutoffs whose forecast fails are kept: their failures
    are counted, not excluded.
    """

    CUTOFFS = range(75, 186)
    TARGETS = (154, 199)
    MODEL = ("--order", "5", "--day-factor")

    def __init__(self, modules, seed: int):
        self.entry = {"main": modules["cli"].main}
        self.cumulative = fixture_cumulative(FIXTURE)
        self.rng = random.Random(seed)
        data = ("--data", FIXTURE, "--country", "US")
        calls = []
        for cutoff in self.CUTOFFS:
            cut = ("--cutoff-daynum", str(cutoff))
            calls.append(Call(key=f"fit c={cutoff}", group="fit_json", kind="fit", ops=1,
                              params=("fit",) + data + cut + self.MODEL))
            for target in self.TARGETS:
                if cutoff < target:
                    calls.append(Call(
                        key=f"forecast c={cutoff} t={target}", group="forecast_json",
                        kind="forecast", ops=1,
                        params=("forecast",) + data + cut + self.MODEL
                        + ("--overdispersed", "--allow-long-horizon",
                           "--target-daynum", str(target))))
        self.canonical = calls

    def pass_calls(self, index: int) -> list[Call]:
        calls = list(self.canonical)
        self.rng.shuffle(calls)
        return calls

    def warm_up(self) -> None:
        for call in (self.canonical[-2], self.canonical[-1]):
            self.run(call)

    def run(self, call: Call) -> str:
        return run_cli(self.entry["main"], call.params)

    def check(self, call: Call, out: str) -> list[str]:
        payload = json.loads(out)
        cutoff = int(call.params[call.params.index("--cutoff-daynum") + 1])
        problems = []
        if call.kind == "fit":
            aic = payload.get("aic")
            if not isinstance(aic, (int, float)) or not math.isfinite(aic):
                problems.append(f"{call.key}: AIC {aic!r} is not finite")
            if payload["daynum_range"][1] != cutoff:
                problems.append(f"{call.key}: fit ends on day {payload['daynum_range'][1]}")
            return problems
        lower, upper = payload["interval"]
        if not lower <= payload["point"] <= upper:
            problems.append(f"{call.key}: point {payload['point']} outside "
                            f"[{lower}, {upper}]")
        if payload["s_current"] != self.cumulative[cutoff]:
            problems.append(f"{call.key}: s_current {payload['s_current']} != "
                            f"fixture total {self.cumulative[cutoff]}")
        return problems


# ------------------------------------------------------------- exact-props


class ExactProps:
    """``exact-props`` over the lambda grid 0.05..500 step 0.05 (10,000 rows).

    The grid is issued as 100 commands of 100 rows each, in an order
    shuffled by the seed, so a pass yields 100 latency samples.  An op is
    one lambda row.  Every row is checked against the criterion-1
    identities: randomized coverage within 1e-10 of 1 - alpha, folded
    coverage at least 1 - alpha (less the 1e-12 the acceptance test
    allows for rounding).
    """

    STEP = 0.05
    ROWS = 100
    COMMANDS = 100

    def __init__(self, modules, seed: int):
        self.entry = {"main": modules["cli"].main}
        self.rng = random.Random(seed)
        self.worst_randomized = 0.0
        calls = []
        for i in range(self.COMMANDS):
            first, last = i * self.ROWS + 1, (i + 1) * self.ROWS
            grid = f"{first * self.STEP:.2f}:{last * self.STEP:.2f}:{self.STEP}"
            calls.append(Call(key=f"exact-props {grid}", group="exact_props_csv",
                              kind="exact-props", ops=self.ROWS,
                              params=("exact-props", "--alpha", str(ALPHA),
                                      "--lambda-grid", grid)))
        self.canonical = calls

    def pass_calls(self, index: int) -> list[Call]:
        calls = list(self.canonical)
        self.rng.shuffle(calls)
        return calls

    def warm_up(self) -> None:
        run_cli(self.entry["main"], ("exact-props", "--lambda-grid", "0.05,500"))

    def run(self, call: Call) -> str:
        return run_cli(self.entry["main"], call.params)

    def check(self, call: Call, out: str) -> list[str]:
        first = round(float(call.params[-1].split(":")[0]) / self.STEP)
        lines = out.strip().split("\n")
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        if len(rows) != self.ROWS:
            return [f"{call.key}: {len(rows)} rows, expected {self.ROWS}"]
        problems = []
        for j, row in enumerate(rows):
            lam = float(row["lambda"])
            if abs(lam - (first + j) * self.STEP) > 1e-9:
                problems.append(f"{call.key}: row {j} has lambda {lam}")
            dev = abs(float(row["Gam0R_coverage"]) - (1.0 - ALPHA))
            self.worst_randomized = max(self.worst_randomized, dev)
            if dev > 1e-10:
                problems.append(f"{call.key}: lambda {lam} randomized coverage off by {dev:.3g}")
            if float(row["Gam0N_coverage"]) < 1.0 - ALPHA - 1e-12:
                problems.append(f"{call.key}: lambda {lam} folded coverage "
                                f"{row['Gam0N_coverage']} < {1.0 - ALPHA}")
            for name, value in row.items():
                if name.endswith("_length") and not _finite_nonneg(value):
                    problems.append(f"{call.key}: lambda {lam} {name}={value}")
        return problems

    def report(self) -> dict:
        return {"worst_randomized_coverage_error": self.worst_randomized}


WORKLOADS = {
    "mc_intercept": lambda m, s: MonteCarlo(m, s, "intercept", INTERCEPT_CELLS),
    "mc_regression": lambda m, s: MonteCarlo(m, s, "regression", REGRESSION_CELLS),
    "epidemic_cli": EpidemicCli,
    "exact_props": ExactProps,
}
