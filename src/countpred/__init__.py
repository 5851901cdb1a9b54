"""Prediction regions and forecasting for Poisson-family count models."""

__version__ = "0.1.0"

from .errors import (
    AdjustmentError,
    CountpredError,
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
from .regions import (
    EstimatedPmf,
    PredictionRegion,
    exact_region_properties,
    exact_region_properties_batch,
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
    region_smallest,
    region_sqrt_known,
)
from .glm import (
    DesignSpec,
    GlmFit,
    ResidualDiagnostics,
    build_design,
    design_row,
    expected_info,
    fit,
    loglik,
    observed_info,
    rate_and_variance,
    region_regression,
    residual_diagnostics,
    score,
)
from .overdispersion import (
    OverdispersedFit,
    estimate_xi,
    fit_overdispersed,
    gen_frailty_counts,
    overdispersed_moments,
    region_overdispersed,
    sandwich_covariance,
)
from .data import (
    DailyRecord,
    DailySeries,
    date_of_daynum,
    daynum_of_date,
    load_adjustments,
    parse_ecdc_csv,
    weekday_of_daynum,
)
from .forecast import (
    ForecastResult,
    alpha_star,
    cumulative_forecast,
    reallocate_adjustments,
    sensitivity_sweep,
)
from .simulate import (
    SimConfig,
    SimResult,
    poisson_sampler,
    run_intercept_experiment,
    run_regression_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
