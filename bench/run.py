"""countpred benchmark: end-to-end metrics, output checks and a traced run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of mc_intercept, mc_regression, epidemic_cli, exact_props;
``all`` runs each of them in turn in its own process.  countpred is
imported from ``src/`` of the checkout, never from an installed copy.

With ``--trace 0`` the run measures for S seconds and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of passes
untraced, then the same passes traced, and reports the per-layer metrics.
Lines before the last print every metric by name and unit, the failures,
the output digests and the environment; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (and, when traced, the spans) is written under ``.bench_out/``.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not run.  See bench/README.md.
"""

import os

# Pinned before numpy loads, so results never depend on BLAS threading.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import LAYERS, Tracer, per_layer_names  # noqa: E402
from workloads import CELL_NAMES, WORKLOADS, Call, CallFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-ups per run: some before the measured passes, the rest spread
# between them in step with the elapsed time; setup_s is their upper
# quartile.  The shared machine runs faster or slower in stretches of
# seconds, so set-ups taken together would all land in one stretch.
SETUPS_BEFORE = 3
SETUPS_DURING = 12

# Untraced seconds one pass takes on the reference machine (2 shared
# x86-64 cores).  A traced run does max(1, round(S / 4 / this)) passes
# untraced and then the same passes traced: a fixed amount of work for a
# given --seconds, so span and call counts repeat exactly per seed.
NOMINAL_PASS_S = {"mc_intercept": 0.65, "mc_regression": 0.6,
                  "epidemic_cli": 2.0, "exact_props": 3.4}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("call_ms.p50", "ms"),
    ("call_ms.p90", "ms"),
)


class SetupError(Exception):
    """The checkout does not hold a countpred to benchmark."""


# ------------------------------------------------------------------- set-up


def import_countpred() -> dict:
    """Import countpred afresh from the checkout; returns its layer modules."""
    if not (SRC / "countpred" / "__init__.py").is_file():
        raise SetupError(f"no countpred package under {SRC}")
    for name in [m for m in sys.modules if m == "countpred" or m.startswith("countpred.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("countpred")
    if Path(package.__file__).resolve().parent != SRC / "countpred":
        raise SetupError(f"countpred imported from {package.__file__}, not {SRC}")
    return {layer: importlib.import_module(f"countpred.{layer}") for layer in LAYERS}


def set_up(name: str, seed: int):
    """Import countpred, build the workload's inputs and run one warm-up op."""
    modules = import_countpred()
    workload = WORKLOADS[name](modules, seed)
    workload.warm_up()
    return modules, workload


# ------------------------------------------------------------------ running


def upper_quartile(values: list[float]) -> float:
    """The third quartile, interpolated within the data.

    The timings use it in place of the median: the shared machine runs
    up to 1.6 times faster in stretches of seconds to minutes, and the
    median of a few repetitions jumps with the share of them that fell in
    such a stretch.  See README.md, "Why the upper quartile".
    """
    return percentile(values, 75)


class Tally:
    """Ops, failures, call times and outputs of one phase.

    Times are wall-clock seconds per successful call, kept per call key;
    a call's cost is the upper quartile of its repetitions.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.failure_examples: dict[str, str] = {}
        self.times: dict[str, list[float]] = defaultdict(list)
        self.calls: dict[str, Call] = {}
        self.passes = 0
        self.outputs: dict[str, str] = {}
        self.problems: list[str] = []
        self.peak_rss_mb = rss_mb()

    def ops_per_s(self) -> float:
        """Ops of every call that succeeded, over the sum of their costs."""
        if not self.times:
            return 0.0
        ops = sum(self.calls[key].ops for key in self.times)
        return ops / sum(upper_quartile(times) for times in self.times.values())

    def costs_ms(self, kind=None) -> list[float]:
        """The cost of every call that succeeded, of one call kind or all."""
        return [1000.0 * upper_quartile(times) for key, times in self.times.items()
                if kind is None or self.calls[key].kind == kind]


def run_pass(workload, index: int, tally: Tally, tracer=None) -> None:
    for call in workload.pass_calls(index):
        if tracer is not None:
            tracer.begin_op(call.kind)
        out = None
        t0 = perf_counter()
        try:
            out = workload.run(call)
        except CallFailed as exc:
            reason, detail = exc.reason, exc.detail
        except Exception as exc:  # an uncaught error in countpred is a failed op
            reason, detail = type(exc).__name__, traceback.format_exc()
        elapsed = perf_counter() - t0
        tally.attempted += call.ops
        if out is None:
            tally.failed += call.ops
            tally.failures[reason] += 1
            tally.failure_examples.setdefault(reason, f"{call.key}: {detail}")
            output = f"FAILED {reason}"
        else:
            tally.times[call.key].append(elapsed)
            tally.calls[call.key] = call
            output = out
            tally.problems += workload.check(call, out)
        if index == 0:
            tally.outputs[call.key] = output
        tally.peak_rss_mb = max(tally.peak_rss_mb, rss_mb())
    tally.passes += 1


def digests(workload, tally: Tally) -> dict[str, str]:
    """sha256 per output group over pass 0, in canonical call order."""
    hashes: dict = {}
    for call in workload.canonical:
        h = hashes.setdefault(call.group, hashlib.sha256())
        h.update(f"{call.key}\n{tally.outputs[call.key]}\n".encode())
    return {group: h.hexdigest() for group, h in hashes.items()}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the data."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency(values: list[float]) -> dict:
    if not values:
        return {"p50": 0.0, "p90": 0.0, "n": 0}
    return {"p50": statistics.median(values), "p90": percentile(values, 90),
            "n": len(values)}


# -------------------------------------------------------------- environment


def read_commit(root: Path) -> str:
    """The commit of a git checkout; git is not run outside one."""
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown (git not found)"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": read_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Resident set size now, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def max_rss_mb() -> float:
    """Lifetime peak resident set size, transient arrays included."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------- phases


def measure(args, workload, setup_times: list[float]) -> tuple[Tally, float]:
    """Whole passes until ``--seconds`` have gone by, with set-ups between
    them; returns the tally and wall time."""
    total = SETUPS_BEFORE + SETUPS_DURING
    tally = Tally()
    t0 = perf_counter()
    index = 0
    while index == 0 or perf_counter() - t0 < args.seconds:
        run_pass(workload, index, tally)
        index += 1
        share = min(1.0, (perf_counter() - t0) / args.seconds)
        while len(setup_times) < SETUPS_BEFORE + math.ceil(SETUPS_DURING * share):
            timed_set_up(args, setup_times)
    wall = perf_counter() - t0
    while len(setup_times) < total:
        timed_set_up(args, setup_times)
    return tally, wall


def end_to_end(args, workload, setup_times: list[float]) -> tuple[dict, dict, Tally]:
    tally, wall = measure(args, workload, setup_times)
    call_ms = latency(tally.costs_ms())
    kinds = sorted({call.kind for call in tally.calls.values()})
    metrics = {
        "setup_s": upper_quartile(setup_times),
        "ops_per_s": tally.ops_per_s(),
        "success_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": tally.peak_rss_mb,
        "call_ms.p50": call_ms["p50"],
        "call_ms.p90": call_ms["p90"],
    }
    report = {
        "passes": tally.passes,
        "wall_s": wall,
        "max_rss_mb": max_rss_mb(),
        "fail_frac": tally.failed / tally.attempted,
        "call_ms": call_ms,
        "latency_ms_by_kind": {kind: latency(tally.costs_ms(kind)) for kind in kinds},
        "call_times_s": tally.times,
    }
    return metrics, report, tally


def traced(args, modules, workload) -> tuple[dict, dict, Tally]:
    passes = max(1, round(args.seconds / 4 / NOMINAL_PASS_S[args.workload]))
    plain = Tally()
    for index in range(passes):
        run_pass(workload, index, plain)
    tracer = Tracer()
    bindings = tracer.install(modules)
    workload.entry = {key: tracer.wrap(fn) for key, fn in workload.entry.items()}
    tally = Tally()
    for index in range(passes):
        run_pass(workload, index, tally, tracer)
    overhead = tally.ops_per_s() / plain.ops_per_s() if plain.times else 0.0
    metrics = tracer.per_layer(CELL_NAMES, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz"
    np.savez_compressed(spans_path, **tracer.arrays())
    report = {
        "passes": passes,
        "bindings_wrapped": bindings,
        "untraced_ops_per_s": plain.ops_per_s(),
        "traced_ops_per_s": tally.ops_per_s(),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": tracer.span_stats(),
    }
    tally.problems += plain.problems
    return metrics, report, tally


def timed_set_up(args, times: list[float]):
    gc.collect()  # each set-up starts from a collected heap
    t0 = perf_counter()
    modules, workload = set_up(args.workload, args.seed)
    times.append(perf_counter() - t0)
    return modules, workload


def run_one(args) -> int:
    setup_times: list[float] = []
    for _ in range(SETUPS_BEFORE):
        modules, workload = timed_set_up(args, setup_times)
    env = environment(args)
    if args.trace:
        metrics, report, tally = traced(args, modules, workload)
    else:
        metrics, report, tally = end_to_end(args, workload, setup_times)
    if not tally.times:
        tally.problems.append("no call succeeded")
    report.update({
        "setup_s_samples": setup_times,
        "failures": dict(tally.failures),
        "failure_examples": tally.failure_examples,
        "digests": digests(workload, tally),
        "problems": tally.problems[:50],
        **getattr(workload, "report", dict)(),
    })
    units = dict(END_TO_END) if not args.trace else \
        {name: unit for name, unit, _ in per_layer_names(CELL_NAMES)}
    correct = not tally.problems

    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:44s} {shown} {units[name]}")
    if not args.trace:
        print(f"{'fail_frac':44s} {report['fail_frac']:.6g} ratio")
        for kind, lat in report["latency_ms_by_kind"].items():
            for q in ("p50", "p90"):
                print(f"{kind + '_ms.' + q:44s} {lat[q]:.6g} ms  (n={lat['n']})")
    else:
        print(f"{'untraced ops_per_s':44s} {report['untraced_ops_per_s']:.6g} 1/s")
        print(f"{'traced ops_per_s':44s} {report['traced_ops_per_s']:.6g} 1/s")
    print(f"# failures {json.dumps(report['failures'], sort_keys=True)} "
          f"of {tally.attempted} ops attempted ({tally.failed} failed)")
    for group, digest in report["digests"].items():
        print(f"# sha256 {group} {digest}")
    for problem in tally.problems[:10]:
        print(f"# CHECK FAILED {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "units": units, "report": report,
              "correct": correct, "attempted": tally.attempted, "failed": tally.failed}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; the worst exit code of the four."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="countpred benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
