"""Region construction against a brute-force enumeration oracle."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings, strategies as hs

from countpred import cli, glm, regions, simulate
from countpred import (
    DivergenceError,
    DomainError,
    MomentFailure,
    PredictionRegion,
    exact_region_properties,
    fit,
    fit_overdispersed,
    gen_frailty_counts,
    hyper_from_mean_sd,
    marginal_log_likelihood,
    mom_gamma,
    pmf_gamma_predictive,
    pmf_plugin_ml,
    pmf_poisson,
    pmf_taylor,
    pmf_umvue,
    region_adjusted_normal,
    region_adjusted_sqrt,
    region_nonrandomized,
    region_normal_known,
    region_overdispersed,
    region_regression,
    region_smallest,
    region_sqrt_known,
)
from countpred.cli import _parse_values, cli_dispatch
from countpred.special import TAIL_MASS, normal_quantile, poisson_cdf, poisson_log_pmf

Z975 = 1.959963984540054


def smallest_region_oracle(masses, alpha):
    """Greedy most-probable-first scan over an explicit mass vector.

    Returns (core set, boundary set, gamma): values are added in
    descending mass order, equal masses move as one group, and the
    group that would overshoot 1 - alpha becomes the boundary with
    inclusion probability gamma.
    """
    target = 1.0 - alpha
    order = sorted(np.flatnonzero(masses > 0), key=lambda k: -masses[k])
    groups = []
    for k in order:
        if groups and abs(masses[k] - masses[groups[-1][-1]]) \
                <= 1e-12 * max(1.0, -math.log(masses[k])) * masses[k]:
            groups[-1].append(k)
        else:
            groups.append([k])
    core, acc = [], 0.0
    for g in groups:
        gmass = float(sum(masses[k] for k in g))
        if acc + gmass <= target + 1e-15:
            core.extend(g)
            acc += gmass
            continue
        return set(core), set(g), (target - acc) / gmass
    return set(core), set(), 0.0


def region_core_as_set(region):
    return set(range(region.core_lo, region.core_hi + 1))


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 2.5, 5.0, 17.0, 100.3])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_region_smallest_matches_oracle(lam, alpha):
    pmf = pmf_poisson(lam)
    masses = np.exp(pmf.log_mass)
    core, boundary, gamma = smallest_region_oracle(masses, alpha)
    region = region_smallest(pmf, alpha, u=0.0)
    assert region_core_as_set(region) == core
    assert set(region.boundary) == boundary
    assert region.boundary_prob == pytest.approx(gamma, abs=1e-10)
    want_hull = core | boundary if gamma > 0 else core
    assert set(range(region.realized_lo, region.realized_hi + 1)) == want_hull


def test_unit_poisson_region_breakdown():
    region = region_smallest(pmf_poisson(1.0), 0.05, u=0.0)
    assert region_core_as_set(region) == {0, 1, 2}
    assert region.boundary == (3,)
    assert region.boundary_prob == pytest.approx(0.4942064222165563, abs=1e-12)
    assert (region.realized_lo, region.realized_hi) == (0, 3)
    high_u = region_smallest(pmf_poisson(1.0), 0.05, u=0.99)
    assert (high_u.realized_lo, high_u.realized_hi) == (0, 2)
    # u = gamma is the inclusion edge
    at_edge = region_smallest(pmf_poisson(1.0), 0.05, u=region.boundary_prob)
    assert at_edge.realized_hi == 3


def test_point_mass_region():
    region = region_smallest(pmf_umvue(1, 4), 0.05, u=0.0)
    assert region.core_hi < region.core_lo            # empty core
    assert region.boundary == (4,)
    assert region.boundary_prob == pytest.approx(0.95, abs=1e-12)
    assert (region.realized_lo, region.realized_hi) == (4, 4)
    missed = region_smallest(pmf_umvue(1, 4), 0.05, u=0.99)
    assert missed.realized_hi < missed.realized_lo
    assert not missed.realized_contains(4)


@given(hs.integers(min_value=1, max_value=200), hs.integers(min_value=0, max_value=20_000),
       hs.floats(min_value=1e-9, max_value=2e4), hs.sampled_from([0.003, 0.01, 0.05, 0.2]))
@example(1, 4, 1.0, 0.05)              # n = 1: a point mass, its core empty
@example(5, 10, 2.0, 0.05)             # integer rates: tied modes
@settings(max_examples=60, deadline=None)
def test_package_pmfs_give_interval_regions(n, t, lam, alpha):
    pmfs = [pmf_poisson(lam), pmf_plugin_ml(n, t), pmf_umvue(n, t),
            *(pmf_gamma_predictive(n, t, kappa, beta) for kappa, beta in GAMMA_HYPERS)]
    if t >= 1:
        pmfs.append(pmf_taylor(n, t))
    for pmf in pmfs:
        region = regions.build_smallest(pmf, alpha)
        kept = region_core_as_set(region) | set(region.boundary)
        hull = set(range(min(kept), max(kept) + 1))
        assert kept == hull
        lo, hi, flo, fhi, gamma = region.row
        assert region.row == (region.core_lo, region.core_hi, region.folded_lo,
                              region.folded_hi, region.boundary_prob)
        assert region.boundary == tuple(k for k in range(flo, fhi + 1) if not lo <= k <= hi)
        for u in (0.0, gamma, min(1.0, math.nextafter(gamma, 2.0)), 1.0):
            r = regions.realize(region, u)
            want = (flo, fhi) if region.boundary and u <= gamma else (lo, hi)
            assert (r.realized_lo, r.realized_hi) == want, u
        folded = region_nonrandomized(region)
        assert region_core_as_set(folded) == hull
        assert folded.row == (flo, fhi, flo, fhi, 0.0)


@pytest.mark.parametrize("masses, alpha", [
    ((0.40, 0.05, 0.45, 0.10), 0.15),          # core {0, 2}
    ((0.30, 0.02, 0.02, 0.30, 0.36), 0.1),     # core {4}, boundary {0, 3}
])
def test_smallest_region_of_a_pmf_with_a_gap_is_refused(masses, alpha):
    pmf = regions.EstimatedPmf(np.log(np.array(masses)))
    with pytest.raises(DomainError, match="not an interval"):
        regions.build_smallest(pmf, alpha)


@given(hs.floats(min_value=0.02, max_value=150.0),
       hs.floats(min_value=0.005, max_value=0.3))
@settings(max_examples=60)
def test_randomized_coverage_identity(lam, alpha):
    region = region_smallest(pmf_poisson(lam), alpha, u=0.0)
    coverage, _ = exact_region_properties(region, lam)
    assert coverage == pytest.approx(1.0 - alpha, abs=1e-10)
    assert 0.0 <= region.boundary_prob <= 1.0


@given(hs.floats(min_value=0.02, max_value=150.0),
       hs.floats(min_value=0.005, max_value=0.3))
@settings(max_examples=60)
def test_nonrandomized_coverage_and_contiguity(lam, alpha):
    region = region_smallest(pmf_poisson(lam), alpha, u=0.0)
    folded = region_nonrandomized(region)
    coverage, _ = exact_region_properties(folded, lam)
    assert coverage >= 1.0 - alpha - 1e-12
    assert folded.boundary == ()
    hull = region_core_as_set(region) | set(region.boundary)
    assert hull == set(range(min(hull), max(hull) + 1))


def test_nonrandomized_unit_poisson_coverage():
    region = region_nonrandomized(region_smallest(pmf_poisson(1.0), 0.05, u=0.0))
    coverage, _ = exact_region_properties(region, 1.0)
    assert coverage == pytest.approx(math.exp(-1.0) * 8.0 / 3.0, abs=1e-12)
    assert coverage == pytest.approx(0.98101, abs=1e-5)


def test_expected_length_mixes_realizations():
    region = region_smallest(pmf_poisson(1.0), 0.05, u=0.0)
    _, length = exact_region_properties(region, 1.0)
    gamma = region.boundary_prob
    assert length == pytest.approx(gamma * 3.0 + (1.0 - gamma) * 2.0, abs=1e-12)


def exact_props_regions(lam, alpha):
    """The four known-rate regions of one exact-props row."""
    randomized = regions.build_smallest(pmf_poisson(lam), alpha)
    return [randomized, region_nonrandomized(randomized),
            region_normal_known(lam, alpha), region_sqrt_known(lam, alpha)]


def direct_coverage(region, lam):
    """exact_region_properties' coverage with one poisson_cdf per bound."""
    core = 0.0
    if region.core_hi >= region.core_lo:
        core = poisson_cdf(region.core_hi, lam) - poisson_cdf(region.core_lo - 1, lam)
    bound = sum(math.exp(poisson_log_pmf(k, lam)) for k in region.boundary)
    return core + region.boundary_prob * bound


# an empty core (the batch reads the cdf at 2 twice: 0 core mass) whose
# folded interval is {3}
EMPTY_CORE = PredictionRegion(core_lo=3, core_hi=2, folded_lo=3, folded_hi=3,
                              boundary_prob=0.4, realized_lo=3, realized_hi=2,
                              level=0.9, length=0.0)


def test_exact_coverage_mixes_the_core_and_folded_intervals():
    # The Monte Carlo scores a row as its core, or its folded interval
    # with probability gamma; the exact coverage is that mixture.
    def mass(lo, hi, lam):
        return poisson_cdf(hi, lam) - poisson_cdf(lo - 1, lam) if hi >= lo else 0.0

    for lam in (0.05, 0.3, 0.9, 4.0, 17.5, 250.0):
        for region in [EMPTY_CORE] + exact_props_regions(lam, 0.05) + \
                exact_props_regions(lam, 0.01):
            lo, hi, flo, fhi, gamma = region.row
            want = (1.0 - gamma) * mass(lo, hi, lam) + gamma * mass(flo, fhi, lam)
            assert exact_region_properties(region, lam)[0] == \
                pytest.approx(want, rel=1e-12), (region, lam)


def test_exact_properties_batch_equals_direct_formula():
    pool = [EMPTY_CORE]
    for lam in (0.05, 0.3, 0.9, 4.0, 17.5, 250.0):
        pool += exact_props_regions(lam, 0.05) + exact_props_regions(lam, 0.01)
    # every region at every rate, rates interleaved, in one batch and one by one
    lams = (0.3, 17.5, 0.05, 250.0, 0.3, 4.0, 0.9, 17.5, 0.3)
    pairs = [(region, lam) for step in (1, -1) for lam in lams for region in pool[::step]]
    batch = regions.exact_region_properties_batch([r for r, _ in pairs],
                                                  [lam for _, lam in pairs])
    for (region, lam), props in zip(pairs, batch):
        assert props[0] == direct_coverage(region, lam), (region, lam)
        assert exact_region_properties(region, lam) == props, (region, lam)
    assert regions.exact_region_properties_batch([], []) == []


def exact_props_rows(grids, capsys):
    """lambda -> CSV rows of exact-props, one command per grid."""
    rows = {}
    for grid in grids:
        assert cli_dispatch(["exact-props", "--alpha", "0.05", "--lambda-grid", grid]) == 0
        for line in capsys.readouterr().out.splitlines()[2:]:
            rows.setdefault(line.split(",")[0], []).append(line)
    return rows


def test_exact_props_rows_independent_of_grid_order(capsys):
    lams = [repr(lam) for lam in _parse_values("0.05:5:0.05", float)] + ["0.001", "250.0"]
    forward = exact_props_rows([",".join(lams)], capsys)
    assert len(forward) == len(lams)
    assert exact_props_rows([",".join(reversed(lams))], capsys) == forward
    assert exact_props_rows(lams, capsys) == forward


def test_exact_props_rows_independent_of_batch_size(monkeypatch, capsys):
    whole = exact_props_rows(["0.05:5:0.05"], capsys)
    monkeypatch.setattr(cli, "_EXACT_BATCH", 7)
    assert exact_props_rows(["0.05:5:0.05"], capsys) == whole


def test_exact_props_takes_every_region_bound_cdf_in_one_call(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(regions, "poisson_cdf",
                        lambda m, lam: calls.append((m, lam)) or poisson_cdf(m, lam))
    assert cli_dispatch(["exact-props", "--alpha", "0.05",
                         "--lambda-grid", "0.05:5:0.05"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 100
    bounds = [(m, lam) for lam in _parse_values("0.05:5:0.05", float)
              for r in exact_props_regions(lam, 0.05) for m in (r.core_hi, r.core_lo - 1)]
    # one array call for the command, one element per distinct bound
    assert len(calls) == 1
    pairs = list(zip(*(np.asarray(v).tolist() for v in calls[0])))
    assert len(pairs) == len(set(pairs)) < len(bounds)
    assert set(pairs) == set(bounds)


def test_exact_props_randomized_coverage_at_a_large_rate(capsys):
    # each bound's cdf needs about 2500 incomplete-gamma terms at 1e5
    assert cli_dispatch(["exact-props", "--alpha", "0.05", "--lambda-grid", "100000"]) == 0
    header, row = capsys.readouterr().out.splitlines()[1:]
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["Gam0R_coverage"]) == pytest.approx(0.95, abs=1e-8)


def test_exact_scorer_refuses_mismatched_lengths_and_unusable_rates():
    pool = exact_props_regions(3.0, 0.05)
    with pytest.raises(DomainError, match="one rate per region, got 4 regions and 3 rates"):
        regions.exact_region_properties_batch(pool, [3.0, 3.0, 3.0])
    with pytest.raises(DomainError, match="one rate per region, got 1 regions and 2 rates"):
        regions._exact_rows([pool[0].row], [3.0, 3.0])
    for bad in (float("nan"), 0.0, -2.0):
        with pytest.raises(DomainError, match=f"requires lam > 0, got {bad!r}"):
            regions.exact_region_properties_batch(pool, [3.0, bad, 3.0, 3.0])


# ------------------------------------------------ one scan, block by block


def reference_row(pmf, alpha):
    """The row of the smallest region by the one-pmf scan that _scan_rows
    replaced: a stable argsort of the positive masses, tie groups where
    neighbours are apart by more than TIE_RTOL, and a search of the
    groups' running totals; the same DomainError for a region with a gap."""
    log_mass = np.asarray(pmf.log_mass)
    target = 1.0 - alpha
    order = np.argsort(-log_mass, kind="stable")
    slog = log_mass[order]
    npos = int(np.count_nonzero(slog > -np.inf))
    order, slog = order[:npos], slog[:npos]
    core_end = boundary_end = npos
    gamma = 0.0
    if npos:
        gaps = slog[:-1] - slog[1:]
        tol = regions.TIE_RTOL * np.maximum(1.0, np.abs(slog[:-1]))
        ends = np.flatnonzero(np.append(gaps > tol, True))
        group_cum = np.cumsum(np.exp(slog))[ends]
        ncore = int(np.searchsorted(group_cum, target + 1e-15, side="right"))
        if ncore < len(ends):
            core_end = int(ends[ncore - 1]) + 1 if ncore else 0
            before = float(group_cum[ncore - 1]) if ncore else 0.0
            gsum = float(group_cum[ncore] - before)
            gamma = min(1.0, max(0.0, (target - before) / gsum if gsum > 0 else 0.0))
            boundary_end = int(ends[ncore]) + 1
    core = order[:core_end]
    lo, hi = (int(core.min()), int(core.max())) if core_end else (0, -1)
    vals = order[core_end:boundary_end].tolist() + ([lo, hi] if core_end else [])
    flo, fhi = (min(vals), max(vals)) if vals else (lo, hi)
    if core_end != hi - lo + 1 or boundary_end != fhi - flo + 1:
        raise DomainError(f"the smallest region at alpha={alpha!r} is not an interval: "
                          f"{core_end} core values within {lo}..{hi}, "
                          f"{boundary_end} with the boundary within {flo}..{fhi}")
    return lo, hi, flo, fhi, gamma


def scan_rows(pmfs, alpha):
    return [tuple(row) for row in regions._scan_rows(pmfs, alpha).tolist()]


def log_pmf(*masses):
    with np.errstate(divide="ignore"):
        return regions.EstimatedPmf(np.log(np.array(masses, dtype=float)))


# degenerate pmfs: {0}, point masses with -inf below them, masses summing
# below the target (all kept), no mass at all, and long tie runs
ODD_PMFS = ([pmf_poisson(0.0), pmf_plugin_ml(3, 0)] + [pmf_umvue(1, t) for t in range(5)]
            + [log_pmf(0.3, 0.5), log_pmf(0.0, 0.0, 0.0), log_pmf(*[0.1] * 10),
               log_pmf(0.1, 0.2, 0.2, 0.2, 0.2, 0.1), log_pmf(0.0, 0.25, 0.5, 0.25)])


@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_scan_equals_the_one_pmf_scan_at_every_exact_props_rate(alpha):
    # the benchmark's grid 0.05..500: every 20th rate an integer, with tied modes
    pmfs = [pmf_poisson(k * 0.05) for k in range(1, 10001)]
    assert scan_rows(pmfs, alpha) == [reference_row(p, alpha) for p in pmfs]


@pytest.mark.parametrize("lam, n", [(1.0, 5), (5.0, 50), (100.0, 100)])
def test_intercept_table_equals_the_one_pmf_scan_at_every_central_total(lam, n):
    sd = math.sqrt(n * lam)
    totals = np.arange(max(0, int(n * lam - 6 * sd)), int(n * lam + 6 * sd) + 1)
    table = simulate._intercept_table((n, totals, 0.05))
    for t, rows in zip(totals.tolist(), table.tolist()):
        plugin = pmf_plugin_ml(n, t)
        pmfs = [plugin, pmf_taylor(n, t) if t else plugin, pmf_umvue(n, t),
                pmf_gamma_predictive(n, t, simulate.PRIOR_KAPPA, simulate.PRIOR_BETA)]
        assert [tuple(rows[i]) for i in (0, 3, 4, 5)] == \
            [reference_row(p, 0.05) for p in pmfs], t
        assert tuple(rows[1]) == region_adjusted_normal(n, t, 0.05).row
        assert tuple(rows[2]) == region_adjusted_sqrt(n, t, 0.05).row


@pytest.mark.parametrize("alpha", [0.003, 0.05, 0.2, 0.5])
def test_scan_equals_the_one_pmf_scan_on_ties_and_degenerate_pmfs(alpha):
    pmfs = [pmf_poisson(float(k)) for k in range(1, 61)] + [pmf_plugin_ml(4, 4 * k)
                                                             for k in range(1, 30)]
    # each odd pmf alone, and all of them in one block with the Poisson ones
    for pmf in ODD_PMFS:
        assert scan_rows([pmf], alpha) == [reference_row(pmf, alpha)]
    mixed = pmfs[:30] + ODD_PMFS + pmfs[30:]
    assert scan_rows(mixed, alpha) == [reference_row(p, alpha) for p in mixed]
    assert scan_rows([log_pmf(*[0.1] * 10)], alpha) == [(0, -1, 0, 9, 1.0 - alpha)]
    assert regions._scan_rows([], alpha).shape == (0, 5)


def test_a_gapped_pmf_in_a_block_raises_the_one_pmf_error():
    gapped = log_pmf(0.30, 0.02, 0.02, 0.30, 0.36)
    with pytest.raises(DomainError, match="not an interval") as want:
        reference_row(gapped, 0.1)
    with pytest.raises(DomainError) as got:
        regions._scan_rows([pmf_poisson(3.0), gapped, pmf_poisson(5.0)], 0.1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("rows_per_block", [1, 7])
def test_scan_rows_do_not_depend_on_the_block_cap(monkeypatch, rows_per_block):
    pmfs = ODD_PMFS + [pmf_poisson(k * 0.37) for k in range(1, 200)]
    whole = scan_rows(pmfs, 0.05)
    assert whole == [reference_row(p, 0.05) for p in pmfs]
    cap = rows_per_block * max(p.log_mass.size for p in pmfs)
    blocks = []
    scan_block = regions._scan_block
    monkeypatch.setattr(regions, "_scan_block",
                        lambda block, width, alpha: blocks.append((len(block), width))
                        or scan_block(block, width, alpha))
    monkeypatch.setattr(regions, "_SCAN_CELLS", cap)
    assert scan_rows(pmfs, 0.05) == whole
    assert sum(m for m, _ in blocks) == len(pmfs)
    assert all(m * width <= cap for m, width in blocks)
    assert max(m for m, _ in blocks) >= rows_per_block
    blocks.clear()
    monkeypatch.setattr(regions, "_SCAN_CELLS", 1)        # every pmf wider than the cap
    assert scan_rows(pmfs, 0.05) == whole
    assert [m for m, _ in blocks] == [1] * len(pmfs)


def traced_peak(run):
    """The tracemalloc peak, in bytes, while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_holds_a_generator_of_wide_pmfs_a_few_at_a_time():
    # past _SCAN_CELLS each pmf is a block of its own, so the scan of 20
    # takes about what building and scanning one takes, with one pmf more
    # held while the next is built
    lams = [2e5 + 100.5 * k for k in range(20)]
    one = pmf_poisson(lams[-1]).log_mass.nbytes
    assert one > 8 * regions._SCAN_CELLS
    one_peak = traced_peak(lambda: regions._scan_rows([pmf_poisson(lams[-1])], 0.05))
    rows = []
    peak = traced_peak(lambda: rows.extend(scan_rows((pmf_poisson(lam) for lam in lams), 0.05)))
    assert peak < one_peak + 2 * one < 10 * one
    assert [rows[k] for k in (0, 19)] == [reference_row(pmf_poisson(lams[k]), 0.05)
                                          for k in (0, 19)]


def test_exact_props_rows_of_a_wide_grid_equal_one_command_per_rate(capsys):
    lams = ["0.05", "2.5", "40.0", "777.7", "31250.5", "100000.0"]
    assert exact_props_rows([",".join(lams)], capsys) == exact_props_rows(lams, capsys)


def test_region_input_validation():
    with pytest.raises(DomainError):
        region_smallest(pmf_poisson(1.0), 0.0, u=0.0)
    with pytest.raises(DomainError):
        region_smallest(pmf_poisson(1.0), 0.05, u=1.5)
    with pytest.raises(DomainError):
        pmf_poisson(-1.0)


# ------------------------------------------- known-rate region, truncated

CUT_RATES = (list(np.logspace(-9.0, 6.0, 46))
             + [float(k) for k in range(1, 41)] + [100.0, 1000.0, 65536.0]
             + [float(np.nextafter(glm._ENUM_LIMIT, 0.0)), glm._ENUM_LIMIT - 1.0])


def wide_support_pmf(lam):
    """The Poisson pmf by the same recurrence, ln m(y)/m(y-1) = ln(lam/y)
    summed back, out to 20 sd past the rate, far beyond any mass the
    truncation drops.  The largest log mass is subtracted before exp, since
    there m(0)/m(hi) can pass the float range."""
    hi = int(lam + 20.0 * math.sqrt(lam)) + 40
    rel = np.zeros(hi + 1)
    rel[:hi] = -np.cumsum(np.log(lam / np.arange(hi, 0, -1.0)))[::-1]
    rel -= rel.max()
    return regions.EstimatedPmf(rel - math.log(np.exp(rel).sum()))


@pytest.mark.parametrize("alpha", [1e-9, 1e-4, 0.01, 0.05, 0.5])
def test_known_rate_smallest_region_equals_full_support_build(alpha):
    # Integer rates give tied modes p(k - 1) = p(k).
    for lam in CUT_RATES:
        cut = regions.build_smallest(pmf_poisson(lam), alpha)
        wide = regions.build_smallest(wide_support_pmf(lam), alpha)
        assert (cut.core_lo, cut.core_hi, cut.boundary) == \
            (wide.core_lo, wide.core_hi, wide.boundary), lam
        truth = st.poisson(lam)
        core_mass = float(truth.cdf(cut.core_hi) - truth.cdf(cut.core_lo - 1))
        coverage = core_mass + cut.boundary_prob * float(truth.pmf(cut.boundary).sum())
        assert coverage == pytest.approx(1.0 - alpha, abs=1e-11), lam


def test_support_end_walk_finds_the_first_bound_from_any_start():
    for lam in (0.3, 5.0, 17.0, 250.0):
        end = pmf_poisson(lam).support_hi
        for start in (0, end - 1, end, end + 1, 3 * end + 50):
            assert regions._support_end(lambda k: poisson_log_pmf(k, lam),
                                        lambda k: lam / (k + 1.0), start) == end


# ---------------------------------------------------------- pmf estimates


def test_plugin_pmf_is_poisson_at_rate_estimate():
    pmf = pmf_plugin_ml(10, 50)
    ks = np.arange(pmf.support_hi + 1)
    np.testing.assert_allclose(np.exp(pmf.log_mass), st.poisson(5.0).pmf(ks),
                               rtol=1e-10, atol=1e-15)
    assert pmf_plugin_ml(5, 0).mass(0) == 1.0
    pmf7 = pmf_plugin_ml(1, 7)
    np.testing.assert_allclose(np.exp(pmf7.log_mass),
                               st.poisson(7.0).pmf(np.arange(pmf7.support_hi + 1)),
                               rtol=1e-10, atol=1e-15)


def taylor_oracle(n, t):
    rate = t / n
    base = st.poisson(rate).pmf(np.arange(int(st.poisson(rate).ppf(1 - 1e-13)) + 60))
    ks = np.arange(base.size, dtype=float)
    denom = 1.0 + 0.5 * ((1.0 - ks / rate) ** 2 - ks / rate**2) * rate / n
    out = base / denom
    return out / out.sum()


@pytest.mark.parametrize("n,t", [(10, 10), (5, 17), (50, 250), (3, 1)])
def test_taylor_pmf_matches_direct_formula(n, t):
    pmf = pmf_taylor(n, t)
    want = taylor_oracle(n, t)
    ks = np.arange(pmf.support_hi + 1)
    np.testing.assert_allclose(np.exp(pmf.log_mass), want[: ks.size],
                               rtol=1e-9, atol=1e-15)


def test_taylor_prenormalization_value():
    # k = 0 at n = 10, t = 10: p(0|1)/(1 + 0.05) before renormalizing
    unnorm0 = math.exp(-1.0) / 1.05
    assert unnorm0 == pytest.approx(0.350361, abs=5e-7)
    pmf = pmf_taylor(10, 10)
    want = taylor_oracle(10, 10)
    assert pmf.mass(0) == pytest.approx(want[0], rel=1e-10)


def test_taylor_approaches_plugin_for_large_n():
    n, t = 10**8, 5 * 10**8
    pmf = pmf_taylor(n, t)
    for k in range(0, 15):
        assert pmf.mass(k) == pytest.approx(float(st.poisson(5.0).pmf(k)), abs=1e-9)


def test_umvue_is_binomial():
    pmf = pmf_umvue(2, 3)
    np.testing.assert_allclose(np.exp(pmf.log_mass),
                               np.array([1, 3, 3, 1]) / 8.0, rtol=1e-12)
    point = pmf_umvue(1, 4)
    assert point.mass(4) == 1.0 and point.support_hi == 4
    for n, t in [(3, 11), (7, 2), (25, 100)]:
        pmf = pmf_umvue(n, t)
        np.testing.assert_allclose(np.exp(pmf.log_mass),
                                   st.binom(t, 1.0 / n).pmf(np.arange(pmf.support_hi + 1)),
                                   rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("n, t", [(2, 1), (3, 7), (7, 64), (25, 100), (100, 999),
                                  (100, 10_437), (2, 10**6 - 2)])
def test_umvue_support_ends_at_its_first_bound(n, t):
    ref = st.binom(t, 1.0 / n)

    def tail_bound(k):
        # q = (t - k)/((k + 1)(n - 1)) = m(k+1)/m(k) falls with k, so it
        # bounds every later ratio; it counts only if q < 1
        q = (t - k) / ((k + 1.0) * (n - 1.0))
        return ref.pmf(k) * q / (1.0 - q) if q < 1.0 else math.inf

    pmf = pmf_umvue(n, t)
    hi = pmf.support_hi
    assert pmf.log_mass.size == hi + 1 and pmf.log_mass.base is None
    assert hi <= t
    assert tail_bound(hi) <= TAIL_MASS * (1.0 + 1e-6)
    assert hi == 0 or tail_bound(hi - 1) > TAIL_MASS * (1.0 - 1e-6)
    assert ref.sf(hi) <= TAIL_MASS
    np.testing.assert_allclose(np.exp(pmf.log_mass), ref.pmf(np.arange(hi + 1)),
                               rtol=1e-9, atol=1e-15)


def test_umvue_unbiasedness_brute_force():
    """Averaging the estimator over the law of t recovers the true pmf."""
    n, lam = 3, 2.0
    t_hi = int(st.poisson(n * lam).ppf(1 - 1e-14)) + 30
    weights = st.poisson(n * lam).pmf(np.arange(t_hi + 1))
    for k in range(11):
        total = sum(w * pmf_umvue(n, t).mass(k)
                    for t, w in enumerate(weights) if w > 0)
        assert total == pytest.approx(float(st.poisson(lam).pmf(k)), abs=1e-8)


def test_gamma_predictive_is_negative_binomial():
    for n, t, kappa, beta in [(10, 50, 0.25, 0.005), (5, 3, 1.0, 1.0),
                              (100, 900, 2.5, 0.1)]:
        pmf = pmf_gamma_predictive(n, t, kappa, beta)
        r, p = kappa + t, (beta + n) / (beta + n + 1.0)
        ks = np.arange(pmf.support_hi + 1)
        np.testing.assert_allclose(np.exp(pmf.log_mass), st.nbinom(r, p).pmf(ks),
                                   rtol=1e-9, atol=1e-15)


PAST_CAP = float(np.nextafter(glm._ENUM_LIMIT, np.inf))


@pytest.mark.parametrize("build", [
    lambda: pmf_poisson(PAST_CAP),
    lambda: pmf_plugin_ml(1, 10**6 + 1),
    lambda: pmf_taylor(1, 10**6 + 1),
    lambda: pmf_umvue(2, 10**6 + 1),
    lambda: pmf_gamma_predictive(1, 2 * 10**6, 0.25, 0.005),
], ids=["poisson", "plugin_ml", "taylor", "umvue", "gamma_predictive"])
def test_pmf_builders_refuse_supports_past_the_enumeration_cap(build):
    with pytest.raises(DomainError):
        build()


def test_gamma_predictive_normalization_and_limits():
    pmf = pmf_gamma_predictive(10, 50, 0.25, 0.005)
    assert np.exp(pmf.log_mass).sum() == pytest.approx(1.0, abs=1e-9)
    geo = pmf_gamma_predictive(1, 0, 1.0, 1.0)
    for k in range(8):
        assert geo.mass(k) == pytest.approx((2.0 / 3.0) * (1.0 / 3.0) ** k, rel=1e-10)
    big = pmf_gamma_predictive(10**5, 5 * 10**5, 0.25, 0.005)
    for k in range(15):
        assert big.mass(k) == pytest.approx(float(st.poisson(5.0).pmf(k)), abs=1e-6)
    # r = kappa + t below the float spacing of 1: m(1)/m(0) = r/(beta + n + 1)
    # must not round to 0, which made every mass NaN
    tiny = pmf_gamma_predictive(1, 0, 1e-300, 1.0)
    assert tiny.mass(0) == pytest.approx(1.0, rel=1e-15)
    assert tiny.mass(1) == pytest.approx(1e-300 / 3.0, rel=1e-12)


def test_gamma_predictive_refuses_a_subnormal_shape():
    # near the smallest normal float the masses still hold
    small = pmf_gamma_predictive(1, 0, 1e-307, 1.0)
    assert np.isfinite(small.log_mass).all()
    assert small.mass(0) == pytest.approx(1.0, rel=1e-15)
    assert small.mass(1) == pytest.approx(1e-307 / 3.0, rel=1e-12)
    assert regions.build_smallest(small, 0.05).boundary == (0,)
    # below it the first back ratio overflowed and every mass was NaN
    for kappa in (1e-310, 5e-324):
        with pytest.raises(DomainError):
            pmf_gamma_predictive(1, 0, kappa, 1.0)


def reference_upper_support(lam, tail_mass):
    """Bisection over 0..hi from a fixed wide start, one cdf per step."""
    target = 1.0 - tail_mass
    hi = int(lam + 10.0 * math.sqrt(lam) + 20.0)
    while poisson_cdf(hi, lam) < target:
        hi = int(hi * 1.5) + 10
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if poisson_cdf(mid, lam) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_upper_supports(lams, tail_mass):
    """reference_upper_support of every rate, with one array cdf per step
    over the rates still open.  Bounds stay below 2**53, exact as floats."""
    target = 1.0 - tail_mass
    hi = np.floor(lams + 10.0 * np.sqrt(lams) + 20.0)
    short = np.arange(lams.size)
    while short.size:
        short = short[poisson_cdf(hi[short], lams[short]) < target]
        hi[short] = np.floor(hi[short] * 1.5) + 10.0
    lo = np.zeros(lams.size)
    while (open_ := np.flatnonzero(lo < hi)).size:
        mid = np.floor((lo[open_] + hi[open_]) / 2.0)
        reached = poisson_cdf(mid, lams[open_]) >= target
        hi[open_[reached]] = mid[reached]
        lo[open_[~reached]] = mid[~reached] + 1.0
    return lo.astype(np.int64)


# The exact-props grid, the rate estimates t/n of the simulation cells,
# a log-spaced sweep up to the enumeration cap, and rates whose support
# is {0}.
SUPPORT_RATES = ([k * 0.05 for k in range(1, 10001)]
                 + [t / n for n in (5, 50, 100, 200) for t in range(1, 3001)]
                 + [float(v) for v in np.logspace(-9, 6, 1646)]
                 + [1e-13, 1e-300])


def test_poisson_support_ends_at_its_first_bound():
    pmfs = [pmf_poisson(lam) for lam in SUPPORT_RATES]
    # each pmf owns its masses: no view keeps a longer grown vector alive
    assert all(p.log_mass.size == p.support_hi + 1 and p.log_mass.base is None for p in pmfs)
    lams = np.array(SUPPORT_RATES)
    his = np.array([p.support_hi for p in pmfs])

    def tail_bound(k):
        # q = lam/(k + 1) bounds every ratio m(j+1)/m(j) past k; counts only if q < 1
        with np.errstate(divide="ignore", invalid="ignore"):
            q = lams / (k + 1.0)
            return np.where(q < 1.0, st.poisson.pmf(k, lams) * q / (1.0 - q), np.inf)

    # Where q < 1 the bound falls with k, so failing at support_hi - 1
    # means failing at every smaller k: support_hi is the first k it holds.
    assert (tail_bound(his) <= TAIL_MASS * (1.0 + 1e-6)).all()
    assert (tail_bound(his - 1)[his > 0] > TAIL_MASS * (1.0 - 1e-6)).all()
    assert (st.poisson.sf(his, lams) <= TAIL_MASS).all()
    assert his[lams <= 1e-13].max() == 0
    # The cdf rises with k, so support_hi reaches the minimal cdf cut
    # where the cdf at support_hi is at least 1 - TAIL_MASS, and the cut
    # lies below support_hi only where the cdf at support_hi - 1 is too.
    target = 1.0 - TAIL_MASS
    assert (poisson_cdf(his, lams) >= target).all()
    early = np.flatnonzero((his > 0) & (poisson_cdf(his - 1, lams) >= target))
    cuts = reference_upper_supports(lams[early], TAIL_MASS)
    assert (poisson_cdf(cuts, lams[early]) >= target).all()
    assert (poisson_cdf(cuts - 1, lams[early]) < target).all()
    # the one-rate bisection agrees on a handful of them
    for j in np.linspace(0, early.size - 1, 6).astype(int):
        assert cuts[j] == reference_upper_support(float(lams[early[j]]), TAIL_MASS)
    for lam, pmf, cut in zip(lams[early].tolist(), [pmfs[j] for j in early], cuts.tolist()):
        assert cut < pmf.support_hi
        short = pmf.log_mass[:cut + 1]
        if lam <= 1e5:
            # The pmf on the cut gives the same regions.
            for alpha in (0.01, 0.05, 0.1):
                assert regions.build_smallest(regions.EstimatedPmf(short), alpha) == \
                    regions.build_smallest(pmf, alpha), (lam, alpha)
            continue
        # Sorting a support past 1e5 takes 10-50 ms, so here the regions
        # are shown equal without sorting: masses of 0..cut more than a log
        # unit above every dropped mass hold over 0.99 of the total, so at
        # alpha >= 0.01 the core and boundary are drawn from them, in the
        # same order, and no dropped mass is tied with the boundary.
        dropped = pmf.log_mass[cut + 1:].max()
        assert np.exp(short[short > dropped + 1.0]).sum() > 0.99 + 1e-9, lam


GAMMA_HYPERS = [(0.25, 0.005), (0.5, 2.0), (4.0, 0.1)]


@given(hs.integers(min_value=1, max_value=100), hs.integers(min_value=0, max_value=10**5),
       hs.sampled_from(GAMMA_HYPERS))
@example(10, 10**4, (0.25, 0.005))     # its masses sum 1.7e-12 short of 1
@example(1, 97620, (0.25, 0.005))      # log ratios summed from y = 0 miss 1 by 1.6e-9
@example(1, 99776, (0.25, 0.005))      # and by 1.2e-9 here
@example(1, 0, (0.5, 2.0))             # kappa + t < 1
@example(15, 0, (0.5, 2.0))            # there the ratio at k alone ends the support early
@settings(max_examples=60, deadline=None)
def test_gamma_predictive_support_ends_at_its_first_bound(n, t, hyper):
    kappa, beta = hyper
    r = kappa + t
    ref = st.nbinom(r, (beta + n) / (beta + n + 1.0))

    def tail_bound(k):
        # the largest ratio m(y+1)/m(y) past k bounds the tail geometrically
        q = max((r + k) / (k + 1.0), 1.0) / (beta + n + 1.0)
        return ref.pmf(k) * q / (1.0 - q) if q < 1.0 else math.inf

    pmf = pmf_gamma_predictive(n, t, kappa, beta)
    hi = pmf.support_hi
    assert pmf.log_mass.size == hi + 1 and pmf.log_mass.base is None
    # Where q < 1 the bound falls with k (the mode lies at or before the
    # first such k), so failing at hi - 1 means failing at every smaller k.
    assert tail_bound(hi) <= TAIL_MASS * (1.0 + 1e-6)
    assert hi == 0 or tail_bound(hi - 1) > TAIL_MASS * (1.0 - 1e-6)
    assert np.exp(pmf.log_mass).sum() == pytest.approx(1.0, abs=1e-9)


def test_gamma_predictive_normalized_at_large_totals():
    # at small n and large t, log ratios summed from y = 0 reach about 1e5
    # before r ln p cancels them, and lgamma differences there round by 1e-9
    for n in (1, 2):
        for t in range(50_000, 100_001, 1_000):
            for kappa, beta in GAMMA_HYPERS:
                mass = np.exp(pmf_gamma_predictive(n, t, kappa, beta).log_mass).sum()
                assert mass == pytest.approx(1.0, abs=1e-9), (n, t, kappa, beta)


@given(hs.integers(min_value=1, max_value=40), hs.integers(min_value=0, max_value=120))
@settings(max_examples=40)
def test_pmf_families_normalized(n, t):
    assert np.exp(pmf_umvue(n, t).log_mass).sum() == pytest.approx(1.0, abs=1e-9)
    assert np.exp(pmf_gamma_predictive(n, t, 0.25, 0.005).log_mass).sum() \
        == pytest.approx(1.0, abs=1e-9)
    if t >= 1:
        assert np.exp(pmf_taylor(n, t).log_mass).sum() == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------- interval regions


def test_normal_known_intervals():
    r = region_normal_known(100.0, 0.05)
    assert (r.realized_lo, r.realized_hi) == (81, 119)
    r1 = region_normal_known(1.0, 0.05)
    assert (r1.realized_lo, r1.realized_hi) == (0, 2)
    big = region_normal_known(1e4, 0.05)
    coverage, _ = exact_region_properties(big, 1e4)
    assert coverage == pytest.approx(0.95, abs=0.005)


def test_sqrt_known_intervals():
    r = region_sqrt_known(100.0, 0.05)
    assert (r.realized_lo, r.realized_hi) == (82, 120)
    low = region_sqrt_known(0.25, 0.05)
    assert low.realized_lo == 0
    for lam in (25.0, 100.0, 4000.0):
        assert region_sqrt_known(lam, 0.05).length == pytest.approx(
            region_normal_known(lam, 0.05).length, abs=1e-9)


def test_adjusted_normal_intervals():
    r = region_adjusted_normal(10, 50, 0.05)
    assert (r.realized_lo, r.realized_hi) == (1, 9)
    huge_n = region_adjusted_normal(10**6, 5 * 10**6, 0.05)
    plain = region_normal_known(5.0, 0.05)
    assert (huge_n.realized_lo, huge_n.realized_hi) == (plain.realized_lo, plain.realized_hi)
    zero = region_adjusted_normal(10, 0, 0.05)
    assert (zero.realized_lo, zero.realized_hi) == (0, 0)


def test_adjusted_sqrt_intervals():
    r = region_adjusted_sqrt(10, 50, 0.05)
    assert (r.realized_lo, r.realized_hi) == (2, 10)
    assert region_adjusted_sqrt(10, 0, 0.05).realized_lo == 0
    # same real-interval length as the normal variant once unclamped
    assert region_adjusted_sqrt(10, 4000, 0.05).length == pytest.approx(
        region_adjusted_normal(10, 4000, 0.05).length, abs=1e-9)


# ----------------------------------- closed-form regions, bit for bit

PIN_ALPHAS = (0.1, 0.05, 0.01)


def pinned_region(lower, upper, alpha):
    """The region each closed-form interval has always been mapped to."""
    lo, hi = math.ceil(lower), math.floor(upper)
    if hi < lo:
        lo, hi = 0, -1
    return PredictionRegion(
        core_lo=lo, core_hi=hi, folded_lo=lo, folded_hi=hi, boundary_prob=0.0,
        realized_lo=lo, realized_hi=hi, level=1.0 - alpha,
        length=float(upper - lower))


def pinned_normal(center, half, alpha):
    return pinned_region(max(0.0, center - half), center + half, alpha)


def pinned_sqrt(s, c, alpha):
    return pinned_region(max(0.0, s - c) ** 2, (s + c) ** 2, alpha)


@pytest.mark.parametrize("alpha", PIN_ALPHAS)
def test_closed_form_rate_regions_are_pinned(alpha):
    z = normal_quantile(1.0 - alpha / 2.0)
    lams = (1e-3, 0.25, 1.0, 7.5, 100.0, 2e6)
    for lam in lams:
        assert region_normal_known(lam, alpha) == \
            pinned_normal(lam, z * math.sqrt(lam), alpha)
        assert region_sqrt_known(lam, alpha) == \
            pinned_sqrt(math.sqrt(lam), z / 2.0, alpha)
    cells = ((1, 0), (1, 1), (1, 17), (10, 0), (10, 50), (7, 3), (1000, 12345))
    for n, t in cells:
        rate = t / n
        assert region_adjusted_normal(n, t, alpha) == \
            pinned_normal(rate, z * math.sqrt(rate * (1.0 + 1.0 / n)), alpha)
        assert region_adjusted_sqrt(n, t, alpha) == \
            pinned_sqrt(math.sqrt(rate), z * math.sqrt(0.25 * (1.0 + 1.0 / n)), alpha)
    # the same intervals in one elementwise call each, row for row
    lam = np.array(lams)
    n, t = np.array(cells).T
    rate, v = t / n, 1.0 + 1.0 / n
    for bounds, built in (
            (regions._normal_bounds(lam, lam, alpha),
             [region_normal_known(x, alpha) for x in lams]),
            (regions._sqrt_bounds(lam, 1.0, alpha),
             [region_sqrt_known(x, alpha) for x in lams]),
            (regions._normal_bounds(rate, rate * v, alpha),
             [region_adjusted_normal(*c, alpha) for c in cells]),
            (regions._sqrt_bounds(rate, v, alpha),
             [region_adjusted_sqrt(*c, alpha) for c in cells])):
        assert list(map(tuple, regions._interval_rows(*bounds).tolist())) == \
            [region.row for region in built]
    # the first pair with a bound that is not finite is named
    with pytest.raises(DivergenceError) as err:
        regions._interval_rows([1.0, 0.0, 2.0], [3.0, math.inf, math.nan])
    assert str(err.value) == "prediction interval bound is not finite: [0.0, inf]"


@pytest.mark.parametrize("alpha", PIN_ALPHAS)
def test_closed_form_fit_regions_are_pinned(alpha):
    z = normal_quantile(1.0 - alpha / 2.0)
    r = np.random.default_rng(2024)
    w = np.linspace(0.0, 1.0, 40)
    X = np.column_stack([np.ones(40), w, w * w])
    quad = fit(X, r.poisson(np.exp(1.5 + 0.8 * w - 0.4 * w * w)))
    huge = fit(np.ones((4, 1)), [2_000_000, 2_001_500, 1_999_000, 2_000_700])
    for fit_, x0 in ((quad, np.array([1.0, 0.5, 0.25])),
                     (quad, np.array([1.0, 1.1, 1.21])),
                     (huge, np.array([1.0]))):
        lam0 = math.exp(float(x0 @ fit_.theta))
        # x0' I^-1 x0 in the fit's basis X = QR: |L^-1 R^-T x0|^2, with LL'
        # the information Q' diag(rates) Q.
        Q, R = fit_.qr
        L = np.linalg.cholesky((Q * fit_.fitted_rates[:, None]).T @ Q)
        v = np.linalg.solve(L, np.linalg.solve(R.T, x0))
        vhat = 1.0 + lam0 * float(v @ v)
        assert vhat == pytest.approx(
            1.0 + lam0 * float(x0 @ np.linalg.solve(fit_.info_observed, x0)), rel=1e-12)
        assert region_regression(fit_, x0, alpha, "normal") == \
            pinned_normal(lam0, z * math.sqrt(lam0 * vhat), alpha)
        assert region_regression(fit_, x0, alpha, "sqrt") == \
            pinned_sqrt(math.sqrt(lam0), z * math.sqrt(vhat / 4.0), alpha)
        if lam0 > glm._ENUM_LIMIT:
            assert region_regression(fit_, x0, alpha, "smallest-plugin", u=0.5) == \
                pinned_normal(lam0, z * math.sqrt(lam0), alpha)
    assert huge.fitted_rates[0] > glm._ENUM_LIMIT

    counts = gen_frailty_counts(np.exp(1.5 + 0.8 * w), 2.0, r)
    od = fit_overdispersed(fit(X[:, :2], counts))
    assert math.isfinite(od.xi)
    for x0 in (np.array([1.0, 0.3]), np.array([1.0, 1.2])):
        lam0 = math.exp(float(x0 @ od.theta))
        var = (lam0 * (1.0 + lam0) / od.xi + lam0
               + lam0 * lam0 * float(x0 @ od.sandwich[:2, :2] @ x0) / 40)
        assert region_overdispersed(od, x0, alpha) == \
            pinned_normal(lam0, z * math.sqrt(var), alpha)


# ------------------------------------------------- gamma prior utilities


def test_hyper_from_mean_sd():
    assert hyper_from_mean_sd(50.0, 100.0) == pytest.approx((0.25, 0.005), rel=1e-12)
    assert hyper_from_mean_sd(1.0, 1.0) == pytest.approx((1.0, 1.0), rel=1e-12)


@given(hs.floats(min_value=0.01, max_value=1e4),
       hs.floats(min_value=0.01, max_value=1e4))
def test_hyper_round_trip(mean, sd):
    kappa, beta = hyper_from_mean_sd(mean, sd)
    assert kappa / beta == pytest.approx(mean, rel=1e-12)
    assert math.sqrt(kappa) / beta == pytest.approx(sd, rel=1e-12)


def marginal_oracle(kappa, beta, y):
    from scipy.special import gammaln
    y = np.asarray(y)
    return float(np.sum(gammaln(kappa + y) - gammaln(kappa) - gammaln(y + 1)
                        + kappa * (np.log(beta) - np.log1p(beta))
                        - y * np.log1p(beta)))


def test_marginal_log_likelihood():
    assert marginal_log_likelihood(1.0, 1.0, [0]) == pytest.approx(math.log(0.5), abs=1e-14)
    y = [3, 0, 7, 2, 2, 11]
    for kappa, beta in [(0.25, 0.005), (1.0, 1.0), (5.5, 0.3)]:
        assert marginal_log_likelihood(kappa, beta, y) == pytest.approx(
            marginal_oracle(kappa, beta, y), rel=1e-12)
    assert marginal_log_likelihood(2.0, 0.5, [1, 5, 2]) == pytest.approx(
        marginal_log_likelihood(2.0, 0.5, [5, 2, 1]), rel=1e-14)
    with pytest.raises(DomainError):
        marginal_log_likelihood(0.0, 1.0, [1])


def test_mom_gamma():
    kappa, beta = mom_gamma([1, 9, 3, 7, 5])       # mean 5, variance 10
    assert (kappa, beta) == pytest.approx((5.0, 1.0), rel=1e-12)
    kappa, beta = mom_gamma([0, 10])               # mean 5, variance 50
    assert (kappa, beta) == pytest.approx((5.0 / 9.0, 1.0 / 9.0), rel=1e-12)
    with pytest.raises(MomentFailure):
        mom_gamma([3, 3, 3, 3])
