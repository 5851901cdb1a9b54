"""Monte Carlo harness: determinism, worker invariance, and sanity
of the reported coverage/length statistics."""

from dataclasses import replace

import numpy as np
import pytest

from countpred import glm, simulate
from countpred.cli import cli_dispatch
from countpred.errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    SingularityError,
)
from countpred.glm import fit, region_regression
from countpred.regions import (
    hyper_from_mean_sd,
    pmf_gamma_predictive,
    pmf_plugin_ml,
    pmf_taylor,
    pmf_umvue,
    region_adjusted_normal,
    region_adjusted_sqrt,
    region_smallest,
)
from countpred.simulate import (
    INTERCEPT_REGIONS,
    PRIOR_BETA,
    PRIOR_KAPPA,
    REGRESSION_CASES,
    REGRESSION_REGIONS,
    SimConfig,
    _intercept_draws,
    _draw_regression_instance,
    _intercept_reps,
    _regression_chunk,
    _rep_rngs,
    poisson_sampler,
    result_to_csv,
    run_experiment,
    run_intercept_experiment,
    run_regression_experiment,
)


def numpy_rep_rng(seed, rep):
    """numpy's own generator for replication rep of a run seeded seed."""
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def intercept_config(**kw):
    base = dict(scenario="intercept", n=5, replications=400, alpha=0.05,
                seed=20200315, lam=1.0)
    base.update(kw)
    return SimConfig(**base)


def test_prior_hyperparameters_match_mean_sd_recipe():
    assert (PRIOR_KAPPA, PRIOR_BETA) == hyper_from_mean_sd(50.0, 100.0)
    assert PRIOR_KAPPA == pytest.approx(0.25)
    assert PRIOR_BETA == pytest.approx(0.005)


def test_poisson_sampler_zero_rate_and_domain():
    rng = np.random.default_rng(0)
    assert poisson_sampler(0.0, rng) == 0
    with pytest.raises(DomainError):
        poisson_sampler(-1.0, rng)


def test_poisson_sampler_moments():
    rng = np.random.default_rng(42)
    draws = np.array([poisson_sampler(7.0, rng) for _ in range(20000)])
    assert draws.mean() == pytest.approx(7.0, abs=0.12)
    assert draws.var(ddof=1) == pytest.approx(7.0, rel=0.06)


# 2**100 + 12345 has four 32-bit words, so with the rep word its entropy
# overflows SeedSequence's four-word pool.
@pytest.mark.parametrize("seed", [0, 1, 20200315, 2**32 - 1, 2**32, 2**70 + 3,
                                  2**100 + 12345])
def test_rep_rngs_equal_numpy_seed_sequence_streams(seed):
    # reps 0..251 cross the first chunk boundary (_CHUNK = 250); the later
    # ranges start inside a run and end at the last allowed replication.
    for start, stop in ((0, 252), (249, 252), (2**32 - 2, 2**32)):
        reps = range(start, stop)
        for rep, rng in zip(reps, _rep_rngs(seed, start, stop), strict=True):
            ref = numpy_rep_rng(seed, rep)
            assert rng.bit_generator.state == ref.bit_generator.state, rep
            for draw in (lambda g: g.poisson(3.5, 4), lambda g: g.random(4),
                         lambda g: g.standard_normal(4)):
                assert np.array_equal(draw(rng), draw(ref)), rep


def test_intercept_experiment_deterministic():
    a = run_intercept_experiment(intercept_config())
    b = run_intercept_experiment(intercept_config())
    assert a.stats == b.stats
    assert a.regions == INTERCEPT_REGIONS


def test_intercept_worker_count_invariant():
    results = [run_intercept_experiment(intercept_config(replications=600,
                                                         workers=w))
               for w in (1, 4, 8)]
    csvs = {result_to_csv(r) for r in results}
    assert len(csvs) == 1, "worker count leaked into the results"


def reference_intercept_chunk(seed, start, stop, n, lam, alpha):
    """All six regions built from scratch for every replication."""
    covers, lengths = [], []
    for rep in range(start, stop):
        rng = numpy_rep_rng(seed, rep)
        t = poisson_sampler(n * lam, rng)
        y0 = poisson_sampler(lam, rng)
        u = rng.random()
        regs = (
            region_smallest(pmf_plugin_ml(n, t), alpha, u),
            region_adjusted_normal(n, t, alpha),
            region_adjusted_sqrt(n, t, alpha),
            region_smallest(pmf_taylor(n, t) if t >= 1 else pmf_plugin_ml(n, t),
                            alpha, u),
            region_smallest(pmf_umvue(n, t), alpha, u),
            region_smallest(pmf_gamma_predictive(n, t, PRIOR_KAPPA, PRIOR_BETA),
                            alpha, u),
        )
        covers.append([1 if r.realized_contains(y0) else 0 for r in regs])
        lengths.append([max(0, r.realized_hi - r.realized_lo) for r in regs])
    return np.array(covers, dtype=np.uint8), np.array(lengths, dtype=np.float64)


@pytest.mark.parametrize("n, lam, alpha", [
    (5, 0.2, 0.05),    # n*lam = 1: T = 0 is the most likely total
    (1, 3.0, 0.05),    # n = 1: the unbiased pmf is a point mass
    (5, 2.0, 0.1),     # (T+1)/n and T/n integer for many T: tied masses
    (50, 5.0, 0.05),
])
def test_intercept_chunk_matches_per_replication_build(n, lam, alpha):
    covers, lengths = _intercept_reps(777, 10, 410, n, lam, alpha)
    ref_covers, ref_lengths = reference_intercept_chunk(777, 10, 410, n, lam, alpha)
    assert np.array_equal(covers, ref_covers)
    assert np.array_equal(lengths, ref_lengths)


def reference_regression_chunk(seed, start, stop, n, p, theta, w_dist, alpha):
    """Every replication fitted and its three regions built through the
    public region_regression, one variant per call."""
    covers, lengths, redraws, rates = [], [], 0, []
    for rep in range(start, stop):
        rng = numpy_rep_rng(seed, rep)
        while True:
            powers, y, y0, rd = _draw_regression_instance(p, theta, w_dist, n, rng)
            redraws += rd
            u = rng.random()
            try:
                X = np.vander(powers[:, 1], p + 1, increasing=True)
                fit_ = fit(X[:n], y)
                x0 = X[n]
                regs = (region_regression(fit_, x0, alpha, "smallest-plugin", u),
                        region_regression(fit_, x0, alpha, "normal"),
                        region_regression(fit_, x0, alpha, "sqrt"))
            except (SingularityError, NonConvergenceError, DivergenceError):
                redraws += 1
                continue
            break
        rates.append(glm.rate_and_variance(fit_, x0)[0])
        covers.append([1 if r.realized_contains(y0) else 0 for r in regs])
        lengths.append([max(0, r.realized_hi - r.realized_lo) for r in regs])
    return (np.array(covers, dtype=np.uint8), np.array(lengths, dtype=np.float64),
            redraws, np.array(rates))


# Overflowing draws (eta > 42) are redrawn, and the holdout rate often
# passes glm._ENUM_LIMIT, where smallest-plugin is a normal interval.
OVERFLOW_CELL = (12, 2, (12.0, 2.0, 0.6), ("normal", 0.0, 3.0))


@pytest.mark.parametrize("alpha", [0.01, 0.1])
@pytest.mark.parametrize("n, p, theta, w_dist", [
    (200,) + REGRESSION_CASES[1],
    (30,) + REGRESSION_CASES[4],
    (30,) + REGRESSION_CASES[3],     # huge extrapolated holdout rates
    OVERFLOW_CELL,
])
def test_regression_chunk_matches_per_replication_build(n, p, theta, w_dist, alpha):
    args = (777, 10, 110, n, p, theta, w_dist, alpha)
    covers, lengths, redraws = _regression_chunk(args)
    ref_covers, ref_lengths, ref_redraws, rates = reference_regression_chunk(*args)
    assert np.array_equal(covers, ref_covers)
    assert np.array_equal(lengths, ref_lengths)
    assert redraws == ref_redraws
    if (n, p, theta, w_dist) == OVERFLOW_CELL:
        assert redraws > 0
        assert (rates > glm._ENUM_LIMIT).any() and (rates <= glm._ENUM_LIMIT).any()


def test_regression_worker_count_invariant():
    # Two chunks, with overflow redraws: each replication keeps its own
    # stream whichever worker fits it.
    n, p, theta, w_dist = OVERFLOW_CELL
    config = SimConfig(scenario="regression", n=n, replications=260, alpha=0.05,
                       seed=777, poly_order=p, theta=theta, w_dist=w_dist)
    results = [run_regression_experiment(replace(config, workers=w)) for w in (1, 2)]
    assert results[0].redraws > 0
    assert result_to_csv(results[0]) == result_to_csv(results[1])


def test_regression_redraws_when_solve_meets_a_zero_pivot():
    # Replication 58 draws a count of 3.0e17; its information is singular
    # to working precision in the polynomial basis, but not in the fit's
    # orthonormal one, where its variance is taken.  Other draws of the run
    # give a singular or non-converging fit and must be redrawn.
    config = SimConfig(scenario="regression", n=12, replications=260, alpha=0.05,
                       seed=777, poly_order=2, theta=(1.0, 2.0, 0.6),
                       w_dist=("normal", 0.0, 3.0))
    result = run_regression_experiment(config)
    assert result.redraws > 0
    assert result_to_csv(result) == result_to_csv(run_regression_experiment(config))


def test_regression_variance_factor_never_below_one(monkeypatch, capsys):
    # At replication 339 of this run the caller-basis information has
    # condition number 1.2e17, and solving with it gave a variance factor
    # of -61.6, whose square root raised a math domain error.
    argv = ["simulate", "--scenario", "regression", "--n", "12", "--reps", "340",
            "--seed", "1", "--order", "2", "--theta", "1,2,0.6", "--w-dist", "normal,0,3"]
    vhats = []

    def recorded(fit_, x0):
        lam0, vhat = glm.rate_and_variance(fit_, x0)
        vhats.append(vhat)
        return lam0, vhat

    monkeypatch.setattr(simulate, "rate_and_variance", recorded)
    config = SimConfig(scenario="regression", n=12, replications=340, alpha=0.05,
                       seed=1, poly_order=2, theta=(1.0, 2.0, 0.6),
                       w_dist=("normal", 0.0, 3.0))
    result = run_regression_experiment(config)
    assert len(vhats) >= 340 and min(vhats) >= 1.0
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == result_to_csv(result)


def test_intercept_single_total_worker_invariant():
    # n * lam = 1e-6: every total is 0, so there are more workers than
    # distinct totals to build regions for.
    config = intercept_config(n=1, lam=1e-6, replications=600)
    counts, _ = _intercept_draws((config.seed, 0, 600, 1, 1e-6))
    assert not counts[:, 0].any()
    csvs = {result_to_csv(run_intercept_experiment(replace(config, workers=w)))
            for w in (1, 2, 8)}
    assert len(csvs) == 1


def test_intercept_coverage_band_at_half_alpha():
    # alpha=0.5 regions should cover roughly half the draws
    res = run_intercept_experiment(intercept_config(alpha=0.5, lam=5.0,
                                                    replications=2000))
    for name in INTERCEPT_REGIONS:
        cp = res.stats[name].coverage_pct
        assert 35.0 <= cp <= 72.0, (name, cp)


def test_intercept_lengths_nonnegative_and_finite():
    res = run_intercept_experiment(intercept_config(replications=300, lam=2.0))
    for name, st in res.stats.items():
        assert st.mean_length >= 0.0
        assert np.isfinite(st.sd_length), name


def test_csv_shape_intercept():
    res = run_intercept_experiment(intercept_config(replications=250))
    text = result_to_csv(res)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    meta, header, row = lines
    assert meta.startswith("# ")
    assert "seed=20200315" in meta and "scenario=intercept" in meta
    cols = header.split(",")
    # n + (CP, ML, SL) per region + redraws
    assert cols[0] == "n" and cols[-1] == "redraws"
    assert len(cols) == 2 + 3 * len(INTERCEPT_REGIONS)
    for name in INTERCEPT_REGIONS:
        assert f"{name}CP" in cols and f"{name}ML" in cols and f"{name}SL" in cols
    assert len(row.split(",")) == len(cols)
    assert "workers" not in text


def test_csv_shape_regression():
    cfg = SimConfig(scenario="regression", n=30, replications=120, alpha=0.05,
                    seed=7, case=1)
    res = run_regression_experiment(cfg)
    header = result_to_csv(res).strip().split("\n")[1]
    assert len(header.split(",")) == 2 + 3 * len(REGRESSION_REGIONS)


def test_regression_case_table():
    assert set(REGRESSION_CASES) == {1, 2, 3, 4}
    p1, theta1, dist1 = REGRESSION_CASES[1]
    assert p1 == 1 and theta1 == (3.0, 5.0) and dist1[0] == "uniform"
    p4, theta4, _ = REGRESSION_CASES[4]
    assert p4 == 5 and len(theta4) == 6


def test_regression_experiment_deterministic_and_coverage():
    cfg = SimConfig(scenario="regression", n=200, replications=150,
                    alpha=0.05, seed=909, case=1)
    a = run_regression_experiment(cfg)
    b = run_regression_experiment(cfg)
    assert a.stats == b.stats
    for name in REGRESSION_REGIONS:
        cp = a.stats[name].coverage_pct
        assert 82.0 <= cp <= 100.0, (name, cp)


@pytest.mark.parametrize("lam", [2e5, 1e5, 99_600.0])
def test_intercept_refuses_totals_past_the_enumeration_cap(monkeypatch, lam):
    # n*lam + 10 sd is checked before a replication is drawn: at
    # n*lam = 1e6 about half the totals would pass the cap.
    monkeypatch.setattr(simulate, "_intercept_reps",
                        lambda *args: pytest.fail("replications were drawn"))
    with pytest.raises(DomainError):
        run_intercept_experiment(intercept_config(n=10, lam=lam, replications=300))


def test_intercept_runs_at_the_largest_admitted_scale():
    # n*lam + 10 sd = 999,950: every total is enumerated, up to about 1e6.
    res = run_intercept_experiment(intercept_config(n=10, lam=99_000.0, replications=2))
    assert res.regions == INTERCEPT_REGIONS


def test_config_validation():
    with pytest.raises(DomainError):
        run_intercept_experiment(intercept_config(lam=None))
    with pytest.raises(DomainError):
        run_intercept_experiment(intercept_config(replications=0))
    with pytest.raises(DomainError):
        run_intercept_experiment(
            SimConfig(scenario="regression", n=5, replications=10,
                      alpha=0.05, seed=1, case=1))
    with pytest.raises(DomainError):
        run_regression_experiment(
            SimConfig(scenario="regression", n=5, replications=10,
                      alpha=0.05, seed=1, case=99))
    with pytest.raises(DomainError):
        run_regression_experiment(
            SimConfig(scenario="regression", n=5, replications=10,
                      alpha=0.05, seed=1))
    with pytest.raises(DomainError):
        run_experiment(
            SimConfig(scenario="bogus", n=5, replications=10,
                      alpha=0.05, seed=1))


@pytest.mark.parametrize("scenario", [dict(scenario="intercept", lam=1.0),
                                      dict(scenario="regression", case=1)])
@pytest.mark.parametrize("bad", [dict(seed=-1), dict(workers=0), dict(workers=-3),
                                 dict(replications=2**32)])
def test_run_rejects_negative_seed_no_workers_and_too_many_replications(scenario, bad):
    config = SimConfig(**{**dict(n=5, replications=10, alpha=0.05, seed=1),
                          **scenario, **bad})
    run = (run_intercept_experiment if config.scenario == "intercept"
           else run_regression_experiment)
    with pytest.raises(DomainError):
        run(config)


def test_run_experiment_dispatch():
    res = run_experiment(intercept_config(replications=250))
    assert res.config.scenario == "intercept"
    assert set(res.stats) == set(INTERCEPT_REGIONS)
