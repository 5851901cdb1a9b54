"""Gamma-frailty over-dispersed Poisson regression.

A latent unit-mean gamma multiplier with variance 1/xi inflates the
Poisson variance to lambda * (1 + (1 + lambda)/xi).  Estimation is two
stage: the rate parameters come from the plain Poisson fit (the first
estimating equation), then xi solves the second moment equation, which
is linear in 1/xi and so has a closed form.  The joint sandwich
covariance of (theta, xi) feeds the prediction interval, which widens
the plain normal interval by the frailty variance and the
parameter-uncertainty term.  Its factors are assembled and inverted in
the orthonormal basis of the design's QR factorization and mapped back
to the caller's basis, so the interval does not depend on how well the
polynomial columns are conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, SingularityError
from .glm import GlmFit, _fit_basis, _predicted_rate, rate_and_variance
from .regions import PredictionRegion, _check_alpha, _interval_region, _normal_bounds

__all__ = [
    "OverdispersedFit",
    "overdispersed_moments",
    "estimate_xi",
    "sandwich_covariance",
    "fit_overdispersed",
    "region_overdispersed",
    "gen_frailty_counts",
]


@dataclass(frozen=True)
class OverdispersedFit:
    """Stage-2 result. ``xi`` is math.inf when the data are not over-dispersed.

    ``sandwich`` is the joint covariance estimate for (theta, xi); its
    leading theta-block drives the prediction interval.  ``sigma_hat``
    and ``omega_hat`` are the two factors it was assembled from.  All
    are None for the infinite-xi sentinel.
    """

    theta: np.ndarray
    xi: float
    sandwich: np.ndarray | None
    sigma_hat: np.ndarray | None
    omega_hat: np.ndarray | None
    base_fit: GlmFit


def overdispersed_moments(lam: float, xi: float) -> tuple[float, float]:
    """Mean and variance of a count with rate lam and frailty precision xi."""
    if lam <= 0:
        raise DomainError(f"overdispersed_moments requires lam > 0, got {lam}")
    if xi <= 0:
        raise DomainError(f"overdispersed_moments requires xi > 0, got {xi}")
    if math.isinf(xi):
        return lam, lam
    return lam, lam * (1.0 + (1.0 + lam) / xi)


def estimate_xi(base_fit: GlmFit) -> float:
    """Solve the second moment equation for xi in closed form.

    The equation sum((y - rate)^2 - rate * (1 + (1 + rate)/xi)) = 0 is
    linear in 1/xi, giving xi = sum(rate * (1 + rate)) over
    sum((y - rate)^2 - rate).  A nonpositive denominator means the data
    show no excess variance; math.inf is returned and callers fall back
    to the plain Poisson machinery.
    """
    rates = base_fit.fitted_rates
    y = base_fit.y.astype(np.float64)
    denom = float(np.sum((y - rates) ** 2 - rates))
    if denom <= 0.0:
        return math.inf
    return float(np.sum(rates * (1.0 + rates))) / denom


def _assemble_factors(theta, xi, X, y):
    """Sigma (outer-product) and Omega (derivative) estimates at (theta, xi)."""
    n, k = X.shape
    rates = np.exp(X @ theta)
    resid = y - rates
    disp = 1.0 + (1.0 + rates) / xi

    u_theta = X * resid[:, None]                       # n x k
    u_xi = resid ** 2 - rates * disp                   # n
    u_all = np.hstack([u_theta, u_xi[:, None]])        # n x (k+1)
    sigma = (u_all.T @ u_all) / n

    omega = np.zeros((k + 1, k + 1))
    omega[:k, :k] = -(X * rates[:, None]).T @ X / n
    omega[k, :k] = -(rates * (2.0 * resid + disp + rates / xi)) @ X / n
    omega[k, k] = float(np.sum(rates * (1.0 + rates))) / (n * xi * xi)
    return sigma, omega


def sandwich_covariance(base_fit: GlmFit, xi: float) -> np.ndarray:
    """Joint covariance estimate of (theta, xi) from the estimating equations.

    Assembles the outer-product estimate Sigma of the estimating
    function and the derivative matrix Omega (whose theta-block is the
    negative mean information, whose (theta, xi) block is zero, and
    whose xi-row follows from differentiating the moment equation),
    then returns Omega^-1 Sigma Omega^-T.

    Both factors are assembled and Omega inverted in the orthonormal
    basis Q of the fit's X = QR, at (R theta, xi), where the information is well
    conditioned even when the columns of X are nearly collinear.  The
    sandwich is equivariant under theta -> R theta, so mapping back
    with T = diag(R^-1, 1) gives the same estimator in the caller's
    basis, T (Omega_Q^-1 Sigma_Q Omega_Q^-T) T'.  A fit without that
    basis raises DesignError.
    """
    if not math.isfinite(xi) or xi <= 0:
        raise DomainError(f"sandwich_covariance requires finite xi > 0, got {xi}")
    k = base_fit.theta.size
    Q, R = _fit_basis(base_fit)
    T = np.eye(k + 1)
    T[:k, :k] = np.linalg.solve(R, np.eye(k))
    sigma, omega = _assemble_factors(R @ base_fit.theta, xi, Q,
                                     base_fit.y.astype(np.float64))
    try:
        omega_inv = T @ np.linalg.inv(omega)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("derivative matrix of the estimating equations "
                               "is singular") from exc
    return omega_inv @ sigma @ omega_inv.T


def fit_overdispersed(base_fit: GlmFit) -> OverdispersedFit:
    """Estimate xi on top of a Poisson fit and assemble the sandwich.

    ``sigma_hat`` and ``omega_hat`` are the factors in the caller's
    basis; ``sandwich`` comes from sandwich_covariance.
    """
    xi = estimate_xi(base_fit)
    if math.isinf(xi):
        return OverdispersedFit(theta=base_fit.theta, xi=xi, sandwich=None,
                                sigma_hat=None, omega_hat=None, base_fit=base_fit)
    sigma, omega = _assemble_factors(base_fit.theta, xi, base_fit.X,
                                     base_fit.y.astype(np.float64))
    return OverdispersedFit(theta=base_fit.theta, xi=xi,
                            sandwich=sandwich_covariance(base_fit, xi),
                            sigma_hat=sigma, omega_hat=omega, base_fit=base_fit)


def _rate_and_count_variance(fit_, x0) -> tuple[float, float]:
    """Predicted rate exp(x0 theta) and the variance of a new count there.

    For a Poisson ``GlmFit``, or the infinite-xi sentinel, that is the
    rate times rate_and_variance's pivotal factor.  Under finite xi it
    is the inflated count variance plus the parameter uncertainty
    carried by the theta-block of the sandwich.  A prediction point that
    overflows exp, or a frailty variance that comes out negative or not
    finite, raises DivergenceError.
    """
    if isinstance(fit_, OverdispersedFit) and math.isinf(fit_.xi):
        fit_ = fit_.base_fit
    if isinstance(fit_, GlmFit):
        lam0, vhat = rate_and_variance(fit_, x0)
        return lam0, lam0 * vhat
    x0, lam0 = _predicted_rate(fit_.theta, x0)
    n = fit_.base_fit.X.shape[0]
    k = x0.size
    xi11 = fit_.sandwich[:k, :k]
    var = (lam0 * (1.0 + lam0) / fit_.xi + lam0
           + lam0 * lam0 * float(x0 @ xi11 @ x0) / n)
    if not 0.0 <= var < math.inf:
        raise DivergenceError(f"prediction variance is negative or not finite: {var}")
    return lam0, var


def region_overdispersed(fit_: OverdispersedFit, x0, alpha: float) -> PredictionRegion:
    """Prediction interval for a new count under the frailty model.

    The normal interval at _rate_and_count_variance: under the
    infinite-xi sentinel, the plain normal region of the Poisson fit.
    """
    _check_alpha(alpha)
    return _interval_region(_normal_bounds(*_rate_and_count_variance(fit_, x0), alpha), alpha)


def gen_frailty_counts(rates, xi: float, rng: np.random.Generator) -> np.ndarray:
    """Draw counts as floor(z * y*) with y* Poisson and z gamma(xi, 1/xi)."""
    rates = np.asarray(rates, dtype=np.float64)
    if np.any(rates <= 0):
        raise DomainError("gen_frailty_counts requires positive rates")
    if xi <= 0:
        raise DomainError(f"gen_frailty_counts requires xi > 0, got {xi}")
    z = rng.gamma(shape=xi, scale=1.0 / xi, size=rates.shape)
    ystar = rng.poisson(rates)
    return np.floor(z * ystar).astype(np.int64)
