"""Monte Carlo coverage and length studies.

Two experiment shapes: the no-covariate model (draw a rate-estimation
total T and a future count, build all six estimated-rate regions, tally
coverage and realized length) and the regression model (draw covariates
and responses, fit, build the three holdout regions).

Replication r of a run seeded s draws from its own stream: numpy's
PCG64 seeded through SeedSequence((s, r)), the stream
``np.random.default_rng(np.random.SeedSequence((s, r)))`` would give.
Results are kept in replication order, so output is bit-identical no
matter how many worker processes share the work.  Building that
generator costs more than a replication's draws, so _rep_rngs derives
the streams of a whole chunk at once.  SeedSequence hashes its entropy
words (the 32-bit words of s, then r) with 32-bit integer arithmetic
only, which runs for every r of the chunk as one numpy expression, and
PCG64 turns the four 64-bit words it hashes out into a 128-bit state
and increment by two steps of its own recurrence.  _rep_rngs repeats
both exactly and assigns the result to one shared generator, so its
state, and every draw from it, equals numpy's.

The six no-covariate regions depend on the data only through the
sufficient statistic T and the uniform draw u, and u only decides
whether a region's boundary group is included.  A run therefore draws
(T, y0, u) for every replication first, then builds the six regions
once per distinct T of the whole run and keeps a table row per T and
region, its ``PredictionRegion.row``: the bounds without and with the
boundary and its inclusion probability gamma.  The four smallest
regions of every total come from one ``regions._scan_rows`` call over
their pmfs, and the two intervals from their builders.  Coverage and
length of every replication are read from its total's row in one
vectorized step.  A row depends only on (n, T, alpha), so the results
stay the same for every worker count.
Regression replications are fitted one at a time, in fixed-size chunks;
each keeps the same kind of row for its three regions, and a chunk is
scored in one step.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    SingularityError,
)
from .glm import _variant_region, fit, rate_and_variance
from .regions import (
    _check_alpha,
    _check_enumerable,
    _scan_rows,
    _taylor_from_plugin,
    hyper_from_mean_sd,
    pmf_gamma_predictive,
    pmf_plugin_ml,
    pmf_umvue,
    region_adjusted_normal,
    region_adjusted_sqrt,
)

__all__ = [
    "SimConfig",
    "SimResult",
    "RegionStats",
    "REGRESSION_CASES",
    "INTERCEPT_REGIONS",
    "REGRESSION_REGIONS",
    "poisson_sampler",
    "run_intercept_experiment",
    "run_regression_experiment",
    "result_to_csv",
]

# Gamma-prior hyper-parameters used throughout the intercept studies:
# prior mean 50, prior sd 100.
PRIOR_KAPPA, PRIOR_BETA = hyper_from_mean_sd(50.0, 100.0)

# Built-in regression scenarios: poly order, theta, covariate law.
REGRESSION_CASES = {
    1: (1, (3.0, 5.0), ("uniform", 0.0, 1.0)),
    2: (2, (3.0, -0.2, 0.05), ("normal", 2.0, 2.0)),
    3: (3, (3.0, 0.2, -0.1, -0.05), ("normal", 1.0, 2.0)),
    4: (5, (3.0, -1.0, 3.0, -2.0, 1.0, -0.5), ("uniform", 0.0, 1.0)),
}

INTERCEPT_REGIONS = ("Gam0", "Gam1", "Gam2", "Gam3", "Gam4", "Gam5")
REGRESSION_REGIONS = ("Gam0", "Gam1", "Gam2")
# The region_regression variant behind each of REGRESSION_REGIONS.
_REGRESSION_VARIANTS = ("smallest-plugin", "normal", "sqrt")

# Rates beyond this cannot be sampled as 64-bit counts; such draws are
# discarded and redrawn, with the count reported.
_MAX_ETA = 42.0

# Consecutive redraws (overflow or failed fit) that end a run; the built-in
# cases, down to n = order + 5, reach 10.
_MAX_REDRAWS = 1000

_CHUNK = 250


@dataclass(frozen=True)
class SimConfig:
    """One experiment cell.

    ``scenario`` is "intercept" (needs ``lam``) or "regression" (needs
    either ``case`` or the explicit ``poly_order``/``theta``/``w_dist``
    triple, where w_dist is ("uniform", lo, hi) or ("normal", mu, sd)).
    """

    scenario: str
    n: int
    replications: int
    alpha: float
    seed: int
    lam: float | None = None
    case: int | None = None
    poly_order: int | None = None
    theta: tuple[float, ...] | None = None
    w_dist: tuple | None = None
    workers: int = 1


@dataclass(frozen=True)
class RegionStats:
    coverage_pct: float
    mean_length: float
    sd_length: float


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    regions: tuple[str, ...]
    stats: dict[str, RegionStats]
    redraws: int


def poisson_sampler(lam: float, rng: np.random.Generator) -> int:
    """One exact Poisson draw; lam = 0 gives 0."""
    if lam < 0:
        raise DomainError(f"poisson_sampler requires lam >= 0, got {lam}")
    return int(rng.poisson(lam))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _seed_words(seed: int, reps: np.ndarray) -> np.ndarray:
    """SeedSequence((seed, rep)).generate_state(4, np.uint64) of every rep,
    one row each, as its eight 32-bit words, low word first.

    SeedSequence works in uint32 arithmetic, which numpy arrays wrap the
    same way, so each step runs for all reps at once.
    """
    seed = int(seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(reps.size, w, dtype=np.uint32) for w in words]
    entropy.append(reps.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ value >> np.uint32(16)

    zero = np.zeros(reps.size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(extra))
    out = np.empty((reps.size, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out[:, i] = value ^ value >> np.uint32(16)
    return out


def _rep_rngs(seed: int, start: int, stop: int):
    """The generator of each replication start..stop-1, in order.

    One Generator is yielded again and again, its PCG64 state set each
    time to that of np.random.default_rng(np.random.SeedSequence((seed,
    rep))); draw from it before advancing the iteration.  Needs
    0 <= seed and 0 <= rep < 2**32, as the runs check.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for w in _seed_words(seed, np.arange(start, stop)).tolist():
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        # pcg64_set_seed: state 0, inc 2*seq+1, step, add initstate, step.
        inc = (initseq << 1 | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def _resolve_regression(config: SimConfig):
    """(poly order, theta, covariate law) of a regression config, checked."""
    if config.case is not None:
        if config.case not in REGRESSION_CASES:
            raise DomainError(f"unknown simulation case {config.case}")
        p, theta, w_dist = REGRESSION_CASES[config.case]
    elif config.poly_order is None or config.theta is None or config.w_dist is None:
        raise DomainError("regression scenario needs case or poly_order/theta/w_dist")
    else:
        p, theta, w_dist = config.poly_order, tuple(config.theta), tuple(config.w_dist)
    _check_law(p, theta, w_dist, config.n)
    return p, theta, w_dist


def _check_law(p, theta, w_dist, n) -> None:
    """DomainError up front for a regression law that no draw of n
    observations could be fitted under."""
    if p < 0 or len(theta) != p + 1:
        raise DomainError(f"poly_order {p} needs to be >= 0 and theta to hold "
                          f"poly_order + 1 coefficients, got {len(theta)}")
    if len(w_dist) != 3 or w_dist[0] not in ("uniform", "normal"):
        raise DomainError(f"unknown covariate law {w_dist!r}")
    a, b = float(w_dist[1]), float(w_dist[2])
    if not (np.isfinite([*theta, a, b]).all()
            and (a < b if w_dist[0] == "uniform" else b > 0.0)):
        raise DomainError(f"covariate law {w_dist!r} or theta {theta!r} is not "
                          "finite with uniform lo < hi and normal sd > 0")
    if n < p + 1:
        raise DomainError(f"n = {n} observations cannot fit the {p + 1} "
                          f"coefficients of order {p}")


def _redraw(redraws: int, cause) -> int:
    """redraws + 1, or past _MAX_REDRAWS a NonConvergenceError naming ``cause``."""
    if redraws >= _MAX_REDRAWS:
        raise NonConvergenceError(f"a replication failed on its draw and {_MAX_REDRAWS} "
                                  f"redraws in a row, the last because {cause}")
    return redraws + 1


def _draw_regression_instance(p, theta, w_dist, n, rng, redraws=0):
    """Rows (1, w, ..., w^p) of n covariates and the holdout's, the n
    responses, the holdout count, and ``redraws`` plus the redraws made
    on overflow, counted by _redraw."""
    theta = np.asarray(theta, dtype=np.float64)
    a, b = float(w_dist[1]), float(w_dist[2])
    while True:
        w = (a + (b - a) * rng.random(n + 1) if w_dist[0] == "uniform"
             else a + b * rng.standard_normal(n + 1))
        powers = np.vander(w, p + 1, increasing=True)
        eta = powers @ theta
        if float(np.max(eta)) > _MAX_ETA:
            redraws = _redraw(redraws, f"a linear predictor exceeded {_MAX_ETA:g}")
            continue
        rates = np.exp(eta)
        y = rng.poisson(rates[:n]).astype(np.int64)
        y0 = int(rng.poisson(rates[n]))
        return powers, y, y0, redraws


def _intercept_draws(args):
    """(t, y0, u) of each replication in start..stop-1, one row each."""
    seed, start, stop, n, lam = args
    counts = np.empty((stop - start, 2), dtype=np.int64)
    u = np.empty(stop - start)
    for j, rng in enumerate(_rep_rngs(seed, start, stop)):
        counts[j, 0] = poisson_sampler(n * lam, rng)
        counts[j, 1] = poisson_sampler(lam, rng)
        u[j] = rng.random()
    return counts, u


def _score(rows, u, y0):
    """Covers and realized lengths from per-replication region rows.

    ``rows[j, i]`` holds the row of region i in replication j; a
    replication takes the folded bounds where its uniform draw u is at
    most gamma.  Bounds are floats: an interval bound is the ceiling or
    floor of a float, so it is exact there, and it may lie past the int64
    range.  Their difference rounds once, as the float of the integer
    width does.
    """
    include = u[:, None] <= rows[..., 4]
    lo = np.where(include, rows[..., 2], rows[..., 0])
    hi = np.where(include, rows[..., 3], rows[..., 1])
    # Counts are drawn at rates of at most e**42, far below 2**62, so the
    # bounds clipped there compare with them exactly as integers.
    y0 = y0[:, None]
    covers = ((np.minimum(lo, 2.0**62).astype(np.int64) <= y0)
              & (y0 <= np.minimum(hi, 2.0**62).astype(np.int64))).astype(np.uint8)
    lengths = np.maximum(hi - lo, 0.0)
    return covers, lengths


# Where the four smallest regions sit in INTERCEPT_REGIONS: plug-in,
# Taylor, UMVUE and gamma-predictive; Gam1 and Gam2 are intervals.
_SMALLEST = [0, 3, 4, 5]


def _smallest_pmfs(n: int, totals):
    """The pmfs of the four smallest regions of each total, in _SMALLEST
    order; at t = 0 the Taylor slot takes the plug-in pmf again."""
    for t in totals:
        plugin = pmf_plugin_ml(n, t)
        yield plugin
        yield _taylor_from_plugin(plugin, n, t) if t else plugin
        yield pmf_umvue(n, t)
        yield pmf_gamma_predictive(n, t, PRIOR_KAPPA, PRIOR_BETA)


def _intercept_table(args):
    """The row of each region, per total: one scan over every total's
    smallest-region pmfs, the two intervals from their builders."""
    n, totals, alpha = args
    ts = totals.tolist()
    rows = np.empty((len(ts), 6, 5))
    rows[:, _SMALLEST] = _scan_rows(_smallest_pmfs(n, ts), alpha).reshape(len(ts), 4, 5)
    rows[:, 1] = [region_adjusted_normal(n, t, alpha).row for t in ts]
    rows[:, 2] = [region_adjusted_sqrt(n, t, alpha).row for t in ts]
    return rows


def _intercept_reps(seed, start, stop, n, lam, alpha, workers=1):
    """Covers and realized lengths of replications start..stop-1.

    Draws every replication, builds the six regions once per distinct
    total, then applies each replication's u and y0 to its total's row.
    """
    with _pool_map(workers) as pool_map:
        draws = pool_map(_intercept_draws, [(seed, s, e, n, lam)
                                            for s, e in _chunk_bounds(start, stop)])
        counts = np.concatenate([c for c, _ in draws])
        u = np.concatenate([v for _, v in draws])
        totals, which = np.unique(counts[:, 0], return_inverse=True)
        blocks = np.array_split(totals, min(workers, totals.size))
        tables = pool_map(_intercept_table, [(n, b, alpha) for b in blocks])
    return _score(np.concatenate(tables)[which], u, counts[:, 1])


def _regression_chunk(args):
    """Covers, realized lengths and redraws of replications start..stop-1.

    Each replication is fitted on the rows it was drawn from and keeps its
    three regions' rows; all are scored in one step.
    """
    seed, start, stop, n, p, theta, w_dist, alpha = args
    m = stop - start
    rows = np.empty((m, 3, 5))
    u = np.empty(m)
    y0 = np.empty(m, dtype=np.int64)
    redraws = 0
    for j, rng in enumerate(_rep_rngs(seed, start, stop)):
        rd = 0
        while True:
            powers, y, y0[j], rd = _draw_regression_instance(p, theta, w_dist, n, rng, rd)
            u[j] = rng.random()
            try:
                lam0, vhat = rate_and_variance(fit(powers[:n], y), powers[n])
                regs = [_variant_region(lam0, vhat, alpha, v) for v in _REGRESSION_VARIANTS]
            except (SingularityError, NonConvergenceError, DivergenceError) as exc:
                rd = _redraw(rd, f"the fit failed: {exc}")
                continue
            break
        redraws += rd
        rows[j] = [r.row for r in regs]
    return _score(rows, u, y0) + (redraws,)


@contextmanager
def _pool_map(workers: int):
    """A map over argument lists: in this process, or on a worker pool."""
    if workers <= 1:
        yield lambda worker, arg_list: [worker(a) for a in arg_list]
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda worker, arg_list: list(pool.map(worker, arg_list))


def _reduce(config: SimConfig, region_names, chunk_results) -> SimResult:
    covers = np.concatenate([c for c, _, _ in chunk_results])
    lengths = np.concatenate([v for _, v, _ in chunk_results])
    redraws = sum(r for _, _, r in chunk_results)
    stats = {}
    for i, name in enumerate(region_names):
        col = lengths[:, i]
        stats[name] = RegionStats(
            coverage_pct=100.0 * float(covers[:, i].mean()),
            mean_length=float(col.mean()),
            sd_length=float(col.std(ddof=1)) if col.size > 1 else 0.0,
        )
    return SimResult(config=config, regions=tuple(region_names),
                     stats=stats, redraws=redraws)


def _chunk_bounds(start: int, stop: int):
    return [(s, min(s + _CHUNK, stop)) for s in range(start, stop, _CHUNK)]


def _check_run(config: SimConfig) -> None:
    """The checks both scenarios share; _rep_rngs needs the seed and the
    replication numbers to be nonnegative and the latter below 2**32."""
    _check_alpha(config.alpha)
    if config.replications < 1 or config.n < 1:
        raise DomainError("replications and n must be >= 1")
    if config.replications >= 2**32:
        raise DomainError("replications must be below 2**32")
    if not isinstance(config.seed, (int, np.integer)) or config.seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {config.seed!r}")
    if config.workers < 1:
        raise DomainError(f"workers must be >= 1, got {config.workers}")


def run_intercept_experiment(config: SimConfig) -> SimResult:
    """Coverage/length table cell for the no-covariate model."""
    if config.scenario != "intercept":
        raise DomainError("config.scenario must be 'intercept'")
    if config.lam is None or config.lam <= 0:
        raise DomainError("intercept scenario requires lam > 0")
    _check_run(config)
    # A total passes n*lam by 10 sd with probability below 1e-22.
    mean = config.n * config.lam
    _check_enumerable(mean + 10.0 * math.sqrt(mean), "intercept scenario n*lam + 10 sd")
    covers, lengths = _intercept_reps(config.seed, 0, config.replications, config.n,
                                      config.lam, config.alpha, config.workers)
    return _reduce(config, INTERCEPT_REGIONS, [(covers, lengths, 0)])


def run_regression_experiment(config: SimConfig) -> SimResult:
    """Coverage/length table cell for the regression model."""
    if config.scenario != "regression":
        raise DomainError("config.scenario must be 'regression'")
    _check_run(config)
    p, theta, w_dist = _resolve_regression(config)
    args = [(config.seed, s, e, config.n, p, theta, w_dist, config.alpha)
            for s, e in _chunk_bounds(0, config.replications)]
    with _pool_map(config.workers) as pool_map:
        results = pool_map(_regression_chunk, args)
    return _reduce(config, REGRESSION_REGIONS, results)


def run_experiment(config: SimConfig) -> SimResult:
    if config.scenario == "intercept":
        return run_intercept_experiment(config)
    if config.scenario == "regression":
        return run_regression_experiment(config)
    raise DomainError(f"unknown scenario {config.scenario!r}")


def _meta_line(config: SimConfig) -> str:
    from . import __version__
    parts = [f"version={__version__}", f"seed={config.seed}",
             f"scenario={config.scenario}", f"n={config.n}",
             f"replications={config.replications}", f"alpha={config.alpha!r}"]
    if config.scenario == "intercept":
        parts.append(f"lam={config.lam!r}")
    else:
        p, theta, w_dist = _resolve_regression(config)
        if config.case is not None:
            parts.append(f"case={config.case}")
        parts.append(f"poly_order={p}")
        parts.append("theta=" + ",".join(repr(v) for v in theta))
        parts.append("w_dist=" + ",".join(str(v) for v in w_dist))
    return "# " + " ".join(parts)


def result_to_csv(result: SimResult) -> str:
    """Appendix-shaped CSV: n then CP/ML/SL per region, plus a meta line.

    The worker count is execution detail, not configuration, and is
    deliberately absent so outputs compare bit-identical across runs.
    """
    header = ["n"]
    row = [str(result.config.n)]
    for name in result.regions:
        st = result.stats[name]
        header += [f"{name}CP", f"{name}ML", f"{name}SL"]
        row += [repr(st.coverage_pct), repr(st.mean_length), repr(st.sd_length)]
    header.append("redraws")
    row.append(str(result.redraws))
    return "\n".join([_meta_line(result.config), ",".join(header), ",".join(row)]) + "\n"
