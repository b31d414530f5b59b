"""evtrisk: small-sample tail risk estimation with a Generalized Pareto model.

The package estimates the *extremal upper-semideviation* of a random cost
-- the expected exceedance above the mean restricted to the worst
``alpha`` fraction of outcomes -- from a handful of i.i.d. samples.  It
fits a peaks-over-threshold tail model by probability-weighted moments and
evaluates the target functional on the model in closed form, alongside the
plain empirical estimator and the oracles needed to benchmark both.

Typical use::

    from evtrisk import evt_estimate
    report = evt_estimate(data, alpha=0.01)
    print(report.rho_evt, report.rho_typical, report.assumptions)
"""

from .benchmark import (
    DEFAULT_M_VALUES,
    ExperimentConfig,
    SeriesSummary,
    TrialRecord,
    ground_truth_value,
    run_experiment,
    run_trial,
    trial_seed,
)
from .cli import InputDataset, load_config, load_csv
from .data import synthetic_overflow_path
from .distributions import (
    BETA12,
    DISTRIBUTIONS,
    EXPONENTIAL1,
    GUMBEL,
    PARETO2,
    TSTUDENT5,
    UNIFORM01,
    Distribution,
    get_distribution,
)
from .estimators import (
    AssumptionChecks,
    EstimateReport,
    evt_estimate,
    monte_carlo_semideviation,
    semideviation_by_quadrature,
    tail_approximation_error,
    typical_semideviation,
)
from .fitting import (
    FitError,
    FitReport,
    SortedSample,
    pwm_fit,
    select_threshold,
    sort_and_summarize,
)
from .rng import RandomStream, derive_seed
from .tail_model import (
    AssumptionViolation,
    SupportInterval,
    TailParams,
    cvar,
    extremal_semideviation,
    gpd_survival,
    tail_cdf,
    tail_quantile,
    value_at_risk,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionChecks",
    "AssumptionViolation",
    "BETA12",
    "DEFAULT_M_VALUES",
    "DISTRIBUTIONS",
    "Distribution",
    "EstimateReport",
    "ExperimentConfig",
    "EXPONENTIAL1",
    "FitError",
    "FitReport",
    "GUMBEL",
    "InputDataset",
    "PARETO2",
    "RandomStream",
    "SeriesSummary",
    "SortedSample",
    "SupportInterval",
    "TSTUDENT5",
    "TailParams",
    "TrialRecord",
    "UNIFORM01",
    "cvar",
    "derive_seed",
    "evt_estimate",
    "extremal_semideviation",
    "get_distribution",
    "gpd_survival",
    "ground_truth_value",
    "load_config",
    "load_csv",
    "monte_carlo_semideviation",
    "pwm_fit",
    "run_experiment",
    "run_trial",
    "select_threshold",
    "semideviation_by_quadrature",
    "sort_and_summarize",
    "synthetic_overflow_path",
    "tail_approximation_error",
    "tail_cdf",
    "tail_quantile",
    "trial_seed",
    "typical_semideviation",
    "value_at_risk",
]
