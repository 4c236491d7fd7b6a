"""tailfit: fit, discriminate and simulate power-law and lognormal models
of inter-event durations, including the binning/rescaling operations that
deform one into an apparent instance of the other.
"""
from .binning import Histogram, bin_linear, bin_log, expected_counts, quantize, rescale
from .distributions import LognormalModel, PowerLawModel
from .estimation import (
    BootstrapResult,
    ComparisonReport,
    DegenerateSampleError,
    FitConvergenceError,
    FitReport,
    bootstrap_pvalue,
    compare_families,
    fit_binned,
    fit_lognormal,
    fit_powerlaw_tail,
    ks_distance,
)
from .ingestion import EventBatch, IngestSummary, interevent_durations, parse_events
from .sample import DurationSample
from .synthesis import (
    GibratProcess,
    SeededGenerator,
    run_gibrat,
    sample_exp_of_exponential,
    sample_lognormal,
    sample_powerlaw,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapResult",
    "ComparisonReport",
    "DegenerateSampleError",
    "DurationSample",
    "EventBatch",
    "FitConvergenceError",
    "FitReport",
    "GibratProcess",
    "Histogram",
    "IngestSummary",
    "LognormalModel",
    "PowerLawModel",
    "SeededGenerator",
    "bin_linear",
    "bin_log",
    "bootstrap_pvalue",
    "compare_families",
    "expected_counts",
    "fit_binned",
    "fit_lognormal",
    "fit_powerlaw_tail",
    "interevent_durations",
    "ks_distance",
    "parse_events",
    "quantize",
    "rescale",
    "run_gibrat",
    "sample_exp_of_exponential",
    "sample_lognormal",
    "sample_powerlaw",
]
