"""Poisson regression with exponential inverse link.

Design-matrix construction (polynomial in a scalar covariate plus an
optional weekday factor), Newton-Raphson maximum likelihood, the
information matrices, AIC, a residual-sign independence diagnostic, and
the covariate-setting prediction regions built from the fitted rate.

One builder makes the design and every prediction row; columns other
than the intercept can be centered and scaled, a transform that the
prediction variances, taken in the fit's QR basis, do not depend on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import WEEKDAYS
from .errors import (
    DesignError,
    DiagnosticsError,
    DivergenceError,
    DomainError,
    NonConvergenceError,
    SingularityError,
)
from .regions import (
    _ENUM_LIMIT,
    PredictionRegion,
    _check_alpha,
    _interval_region,
    _normal_bounds,
    _sqrt_bounds,
    build_smallest,
    pmf_poisson,
    realize,
)
from .special import chisq_sf

__all__ = [
    "DesignSpec",
    "GlmFit",
    "ResidualDiagnostics",
    "WEEKDAYS",
    "build_design",
    "design_row",
    "loglik",
    "score",
    "observed_info",
    "expected_info",
    "fit",
    "rate_and_variance",
    "region_regression",
    "residual_diagnostics",
]

# exp overflows float64 just above this; treated as divergence.
_EXP_LIMIT = 700.0

_MAX_ITER = 100

# fit reads ln y! of counts below this from _log_factorial_table; larger
# counts go through lgamma.
_LOG_FACTORIAL_CAP = 4096

# Weekday index of each lower-case weekday name.
_WEEKDAY_INDEX = {name.lower(): i for i, name in enumerate(WEEKDAYS)}

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class DesignSpec:
    """Recipe for building design rows.

    ``column_means``/``column_sds`` are populated by build_design, one
    entry per column; columns left untouched (the intercept, any
    zero-variance dummy, all of them without ``standardize``) get (0, 1).
    """

    poly_order: int
    include_day_factor: bool = False
    standardize: bool = False
    column_means: tuple[float, ...] | None = None
    column_sds: tuple[float, ...] | None = None


@dataclass(frozen=True)
class GlmFit:
    """Converged Newton-Raphson fit. ``X`` and ``y`` are the training data."""

    theta: np.ndarray
    info_observed: np.ndarray
    loglik: float
    aic: float
    fitted_rates: np.ndarray
    residuals: np.ndarray
    design: DesignSpec | None
    converged: bool
    iterations: int
    X: np.ndarray
    y: np.ndarray
    decrement: float = 0.0       # Newton decrement g' I^-1 g that ended the fit
    halvings: int = 0            # line-search step halvings over all iterations
    qr: tuple[np.ndarray, np.ndarray] | None = None   # X = QR, the variance basis

    @functools.cached_property
    def _info_cholesky(self) -> np.ndarray:
        """L with LL' = Q' diag(fitted_rates) Q, factored once per fit on first use."""
        Q, _ = _fit_basis(self)
        return np.linalg.cholesky(_information(Q, self.fitted_rates))


@dataclass(frozen=True)
class ResidualDiagnostics:
    """Sign-by-index-block contingency table and its chi-square test."""

    table: np.ndarray            # n_bins x 2: (nonpositive, positive) counts
    statistic: float
    df: int
    p_value: float
    bin_edges: tuple[int, ...]   # right edges, 1-based positions


def _weekday_index(label) -> int:
    if isinstance(label, (int, np.integer)):
        if not 0 <= label <= 6:
            raise DesignError(f"weekday index out of range 0..6: {label}")
        return int(label)
    idx = _WEEKDAY_INDEX.get(str(label).strip().lower())
    if idx is None:
        raise DesignError(f"invalid weekday label: {label!r}")
    return idx


def _columns(w: np.ndarray, day_labels, spec: DesignSpec) -> np.ndarray:
    """The unstandardized columns of build_design at w, one row per column."""
    if w.ndim != 1 or w.size == 0:
        raise DesignError("w must be a nonempty 1-d vector")
    if spec.poly_order < 0:
        raise DesignError(f"poly_order must be >= 0, got {spec.poly_order}")
    cols = [np.ones(w.size)] + [w ** j for j in range(1, spec.poly_order + 1)]
    if spec.include_day_factor:
        if day_labels is None:
            raise DesignError("day factor requested but no day labels given")
        idx = np.array([_weekday_index(d) for d in day_labels])
        if idx.size != w.size:
            raise DesignError("day labels length does not match w")
        cols += [(idx == d).astype(np.float64) for d in range(1, 7)]
    return np.array(cols)


def _standardized(rows: np.ndarray, spec: DesignSpec) -> np.ndarray:
    """Rows from _columns under the spec's recorded standardization."""
    if not spec.standardize:
        return rows
    if spec.column_means is None or spec.column_sds is None:
        raise DesignError("spec has no recorded standardization; build the design first")
    return ((rows - np.array(spec.column_means)[:, None])
            / np.array(spec.column_sds)[:, None])


def _design_rows(w: np.ndarray, day_labels, spec: DesignSpec) -> np.ndarray:
    """Prediction rows at the points w under a spec returned by build_design."""
    return np.ascontiguousarray(_standardized(_columns(w, day_labels, spec), spec).T)


def build_design(w, day_labels, spec: DesignSpec) -> tuple[np.ndarray, DesignSpec]:
    """Build the design matrix and record any standardization.

    Columns: intercept, w^1..w^p, then six dummies for Tuesday..Sunday
    (Monday is the baseline).  With ``spec.standardize`` every
    non-constant column is centered and scaled by the sample sd
    (divisor n-1); a zero-variance polynomial column is an error since
    it cannot be scaled.
    """
    # One row per column, so each column's mean and sd reduce a
    # contiguous row, as they would reduce the column on its own.
    rows = _columns(np.asarray(w, dtype=np.float64), day_labels, spec)
    means = np.zeros(rows.shape[0])
    sds = np.ones(rows.shape[0])
    if spec.standardize:
        sd = rows[1:].std(axis=1, ddof=1)
        flat = np.flatnonzero(sd == 0.0) + 1
        if flat.size and flat[0] <= spec.poly_order:
            raise DesignError(
                f"polynomial column w^{flat[0]} has zero variance; cannot standardize")
        # A constant dummy is left as-is; rank problems surface at fit.
        scaled = sd != 0.0
        means[1:] = np.where(scaled, rows[1:].mean(axis=1), 0.0)
        sds[1:] = np.where(scaled, sd, 1.0)
    out_spec = replace(spec, column_means=tuple(means), column_sds=tuple(sds))
    return np.ascontiguousarray(_standardized(rows, out_spec).T), out_spec


def _design_subset(X: np.ndarray, spec: DesignSpec, poly_order: int,
                   include_day_factor: bool) -> tuple[np.ndarray, DesignSpec]:
    """The design and spec build_design gives for (poly_order,
    include_day_factor), taken bit for bit from the X and spec it returned
    for a design of order at least poly_order with the day factor.

    Each column and its standardization depend on no other column.  The
    subset is copied C-contiguous, as build_design returns it, so that
    the fit's matrix products see the same layout.
    """
    if poly_order < 0:
        raise DesignError(f"poly_order must be >= 0, got {poly_order}")
    cols = list(range(poly_order + 1))
    if include_day_factor:
        cols += range(spec.poly_order + 1, spec.poly_order + 7)
    sub = replace(spec, poly_order=poly_order, include_day_factor=include_day_factor,
                  column_means=tuple(np.array(spec.column_means)[cols]),
                  column_sds=tuple(np.array(spec.column_sds)[cols]))
    return np.ascontiguousarray(X[:, cols]), sub


def design_row(w0: float, day_label, spec: DesignSpec) -> np.ndarray:
    """One prediction row under a spec returned by build_design; at a
    training w and day label it is that row of X, bit for bit."""
    labels = None if day_label is None else [day_label]
    return _design_rows(np.array([float(w0)]), labels, spec)[0]


def _linear_predictor(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    eta = X @ theta
    if (eta > _EXP_LIMIT).any():
        raise DivergenceError(
            f"linear predictor above {_EXP_LIMIT:g} overflows exp: the data or "
            "an extrapolation give a rate too large for float64")
    return eta


def _log_factorial_terms(y: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v + 1.0) for v in y])


@functools.cache
def _log_factorial_table() -> np.ndarray:
    """ln k! = math.lgamma(k + 1) for k < _LOG_FACTORIAL_CAP, built on first use."""
    return np.array([math.lgamma(k + 1) for k in range(_LOG_FACTORIAL_CAP)])


def _count_log_factorials(y: np.ndarray) -> np.ndarray:
    """_log_factorial_terms(y) for nonnegative integer counts y (floats).

    Read from the table of the same lgamma values when every count is
    below _LOG_FACTORIAL_CAP.
    """
    k = y.astype(np.int64)
    if int(k.max(initial=0)) < _LOG_FACTORIAL_CAP:
        return _log_factorial_table()[k]
    return _log_factorial_terms(y)


def _loglik(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
            lfact: np.ndarray) -> tuple[float, np.ndarray]:
    """Log likelihood and the rates exp(X theta) it was evaluated at."""
    eta = _linear_predictor(theta, X)
    rates = np.exp(eta)
    return float((y * eta - rates - lfact).sum()), rates


def loglik(theta, X, y) -> float:
    """Poisson log likelihood including the factorial term."""
    theta = np.asarray(theta, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _loglik(theta, X, y, _log_factorial_terms(y))[0]


def score(theta, X, y) -> np.ndarray:
    """Score vector sum x_i (y_i - exp(x_i theta))."""
    theta = np.asarray(theta, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    eta = _linear_predictor(theta, X)
    return X.T @ (y - np.exp(eta))


def observed_info(theta, X, y=None) -> np.ndarray:
    """Observed information; equals expected information for this link."""
    return expected_info(theta, X)


def expected_info(theta, X) -> np.ndarray:
    """Expected information sum x_i x_i' exp(x_i theta)."""
    theta = np.asarray(theta, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    return _information(X, np.exp(_linear_predictor(theta, X)))


def _information(X: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """sum x_i x_i' rate_i."""
    return (X * rates[:, None]).T @ X


def _orthonormal_basis(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = QR; SingularityError when X is rank-deficient by R's diagonal."""
    Q, R = np.linalg.qr(X)
    diag = np.abs(R.diagonal())
    if (X.shape[0] < X.shape[1] or not np.isfinite(R).all()
            or diag.min() <= max(X.shape) * _EPS * diag.max()):
        raise SingularityError("design matrix is rank-deficient")
    return Q, R


def fit(X, y, design: DesignSpec | None = None) -> GlmFit:
    """Newton-Raphson maximum likelihood in the design's orthonormal basis.

    Newton runs on b = R theta, X = QR, from the least-squares fit of
    log(y + 0.5) on Q, where the information is well conditioned however
    collinear the columns of X are.  It stops on one rule: once the Newton
    decrement g' I^-1 g is at most 1e-10 (|loglik| + 1) it takes that last
    full step and returns theta = R^-1 b, every field in the caller's basis.
    Other steps are halved up to 30 times until the log likelihood improves;
    failing that, or after 100 iterations, NonConvergenceError carries the
    last iterate.  A rank-deficient X, or an information matrix made
    singular by vanishing rates, raises SingularityError.  All-zero
    counts on an X that spans the constant column have no MLE (the fit
    would drive every rate to 0) and raise NonConvergenceError.
    """
    X = np.asarray(X, dtype=np.float64)
    y_arr = np.asarray(y)
    if X.ndim != 2:
        raise DesignError("X must be a 2-d matrix")
    n, k = X.shape
    if y_arr.shape != (n,):
        raise DesignError("y length does not match X")
    if (y_arr < 0).any() or (y_arr != np.floor(y_arr)).any():
        raise DomainError("y must be nonnegative integers")
    if n < k:
        raise DesignError(f"need at least as many observations ({n}) as parameters ({k})")
    y_f = y_arr.astype(np.float64)
    # ln y! does not depend on theta: computed once, not per line-search step.
    lfact = _count_log_factorials(y_f)
    Q, R = _orthonormal_basis(X)
    if not y_f.any():
        ones = np.ones(n)
        if np.max(np.abs(ones - Q @ (Q.T @ ones))) <= 1e-8:
            raise NonConvergenceError("all counts are zero: the MLE does not exist",
                                      iterations=0)

    b = Q.T @ np.log(y_f + 0.5)
    ll, rates = _loglik(b, Q, y_f, lfact)
    halvings = 0
    for iterations in range(1, _MAX_ITER + 1):
        g = Q.T @ (y_f - rates)
        try:
            step = np.linalg.solve(_information(Q, rates), g)
        except np.linalg.LinAlgError as exc:
            raise SingularityError("information is singular: fitted rates vanish") from exc
        decrement = float(g @ step)
        if decrement <= 1e-10 * (abs(ll) + 1.0):
            b = b + step
            break
        for _ in range(31):
            try:
                cand_ll, cand_rates = _loglik(b + step, Q, y_f, lfact)
            except DivergenceError:
                cand_ll = -np.inf
            if cand_ll > ll:
                break
            step = 0.5 * step
            halvings += 1
        else:
            raise NonConvergenceError("no improving Newton step found",
                                      theta=np.linalg.solve(R, b), iterations=iterations)
        b, ll, rates = b + step, cand_ll, cand_rates
    else:
        raise NonConvergenceError(
            f"Newton-Raphson did not converge in {_MAX_ITER} iterations",
            theta=np.linalg.solve(R, b), iterations=iterations)

    theta = np.linalg.solve(R, b)
    ll, rates = _loglik(theta, X, y_f, lfact)
    return GlmFit(
        theta=theta,
        info_observed=_information(X, rates),
        loglik=ll,
        aic=-2.0 * ll + 2.0 * k,
        fitted_rates=rates,
        residuals=(y_f - rates) / np.sqrt(rates),
        design=design,
        converged=True,
        iterations=iterations,
        X=X,
        y=y_arr.astype(np.int64),
        decrement=decrement,
        halvings=halvings,
        qr=(Q, R),
    )


def _predicted_rate(theta: np.ndarray, x0) -> tuple[np.ndarray, float]:
    """The row x0 as a float array and the rate exp(x0 theta) there.

    A row whose length differs from theta's raises DesignError; a
    linear predictor past the exp limit raises DivergenceError.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != theta.shape:
        raise DesignError(
            f"prediction row has shape {x0.shape}; the fit has {theta.size} parameters")
    eta0 = float(x0 @ theta)
    if eta0 > _EXP_LIMIT:
        raise DivergenceError("prediction point overflows exp")
    return x0, math.exp(eta0)


def _fit_basis(fit_: GlmFit) -> tuple[np.ndarray, np.ndarray]:
    """The fit's X = QR; DesignError for a GlmFit built without one."""
    if fit_.qr is None:
        raise DesignError("the fit carries no QR basis; fit the design with glm.fit")
    return fit_.qr


def rate_and_variance(fit_: GlmFit, x0) -> tuple[float, float]:
    """Predicted rate exp(x0 theta) and its pivotal variance factor.

    The factor is 1 + rate * x0' I(theta)^-1 x0; for an intercept-only
    design it reduces to 1 + 1/n.  The form is |L^-1 R^-T x0|^2 in the
    fit's basis X = QR, with LL' = Q' diag(rates) Q factored once per fit:
    nonnegative, and SingularityError where that factorization or solve
    fails.  A fit without that basis raises DesignError.
    """
    x0, lam0 = _predicted_rate(fit_.theta, x0)
    _, R = _fit_basis(fit_)
    try:
        v = np.linalg.solve(fit_._info_cholesky, np.linalg.solve(R.T, x0))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "information matrix is singular (rank-deficient design)") from exc
    return lam0, 1.0 + lam0 * float(v @ v)


def region_regression(fit_: GlmFit, x0, alpha: float, variant: str,
                      u: float = 0.0) -> PredictionRegion:
    """Prediction region for a new count at covariate row x0.

    ``normal`` and ``sqrt`` account for parameter uncertainty through
    the pivotal variance factor; ``smallest-plugin`` enumerates the
    plug-in pmf at the predicted rate and ignores that factor.  ``realize``
    applies the uniform draw u, which must lie in [0, 1] for every variant.
    """
    _check_alpha(alpha)
    lam0, vhat = rate_and_variance(fit_, x0)
    return realize(_variant_region(lam0, vhat, alpha, variant), u)


def _variant_region(lam0: float, vhat: float, alpha: float,
                    variant: str) -> PredictionRegion:
    """One region_regression variant at rate lam0 and variance factor vhat.

    A smallest-plugin region comes before its uniform draw.
    """
    if variant == "normal":
        return _interval_region(_normal_bounds(lam0, lam0 * vhat, alpha), alpha)
    if variant == "sqrt":
        return _interval_region(_sqrt_bounds(lam0, vhat, alpha), alpha)
    if variant == "smallest-plugin":
        if lam0 > _ENUM_LIMIT:
            return _interval_region(_normal_bounds(lam0, lam0, alpha), alpha)
        return build_smallest(pmf_poisson(lam0), alpha)
    raise DomainError(f"unknown region variant: {variant!r}")


def residual_diagnostics(fit_: GlmFit, n_bins: int = 6) -> ResidualDiagnostics:
    """Chi-square test of residual sign against index block.

    Observations are split, in order, into ``n_bins`` blocks whose right
    edges are ceil(j*n/n_bins); each block contributes a (nonpositive,
    positive) residual count.  Independence is tested by Pearson
    chi-square with n_bins - 1 degrees of freedom.
    """
    if n_bins < 2:
        raise DomainError(f"n_bins must be >= 2, got {n_bins}")
    res = fit_.residuals
    n = res.size
    if n < n_bins:
        raise DiagnosticsError(f"cannot split {n} residuals into {n_bins} bins")
    edges = [math.ceil(j * n / n_bins) for j in range(1, n_bins + 1)]
    table = np.zeros((n_bins, 2), dtype=np.int64)
    start = 0
    for b, end in enumerate(edges):
        block = res[start:end]
        table[b, 0] = int(np.sum(block <= 0))
        table[b, 1] = int(np.sum(block > 0))
        start = end
    row_tot = table.sum(axis=1)
    col_tot = table.sum(axis=0)
    if np.any(row_tot == 0) or np.any(col_tot == 0):
        raise DiagnosticsError("a margin of the residual-sign table is empty")
    expected = np.outer(row_tot, col_tot) / n
    statistic = float(np.sum((table - expected) ** 2 / expected))
    df = n_bins - 1
    return ResidualDiagnostics(
        table=table,
        statistic=statistic,
        df=df,
        p_value=chisq_sf(statistic, df),
        bin_edges=tuple(edges),
    )
