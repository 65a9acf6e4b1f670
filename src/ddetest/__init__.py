"""Entropy-gap (DDE) goodness-of-fit testing for parametric families.

Fit a null family by maximum likelihood, compare its implied differential
entropy against a kernel-density entropy estimate, and calibrate the gap by
parametric bootstrap.
"""
from .bandwidth import (
    BandwidthSpec, Regime, ShapeStats, select_bandwidth, shape_multiplier,
    small_sample_inflation,
)
from .dde import (
    BootstrapDistribution, DdeResult, bootstrap_null, critical_interval, p_value,
    run_test,
)
from .datasets import Dataset, load_dataset
from .entropy import de_kde, kde_smoothing_bias, ml_entropy_bias
from .errors import (
    DataError, DdeError, DegenerateDataError, FitError, InvalidParameterError,
    NumericError, QuadratureError, SupportError, UsageError,
)
from .families import (
    Family, FamilyId, FittedModel, Support, TESTABLE_NULLS, closed_form_entropy,
    fit_mle, get_family, log_pdf, null_kurtosis, sample,
)
from .montecarlo import (
    ExperimentSpec, NULL_MEMBERS, SimCell, SimReport, dgp_moments, run_experiment,
    table4_alternatives, table4_campaign,
)
from .quadrature import Scale
from .streams import stable_seed, substream

__version__ = "0.1.0"

__all__ = [
    "BandwidthSpec", "BootstrapDistribution", "DataError", "Dataset", "DdeError",
    "DdeResult", "DegenerateDataError", "ExperimentSpec", "Family", "FamilyId",
    "FitError", "FittedModel", "InvalidParameterError", "NULL_MEMBERS", "NumericError",
    "QuadratureError", "Regime", "Scale", "ShapeStats", "SimCell", "SimReport",
    "Support", "SupportError", "TESTABLE_NULLS", "UsageError", "bootstrap_null",
    "closed_form_entropy", "critical_interval", "de_kde", "dgp_moments", "fit_mle",
    "get_family", "kde_smoothing_bias", "load_dataset", "log_pdf", "ml_entropy_bias",
    "null_kurtosis", "p_value", "run_test", "run_experiment", "sample",
    "select_bandwidth", "shape_multiplier", "small_sample_inflation", "stable_seed",
    "substream", "table4_alternatives", "table4_campaign", "__version__",
]
