"""Exact second-order structure of long-range dependent processes.

Spectral densities, autocovariances and variance-time functions for
fractionally differenced and fractional Gaussian noise models, plus the
aggregation maps, asymptotic probes and exact path sampling built on top
of them.
"""

from .asymptotics_lab import (
    BrittlenessExperiment,
    BrittlenessResult,
    ClosenessReport,
    acvf_gap_profile,
    builtin_experiment,
    closeness_report,
    ctf_convergence_slope,
    run_brittleness,
    spectral_gap_profile,
    vtf_offset,
)
from .covariance_engine import (
    AcvfTable,
    GCoeffs,
    Route,
    acvf,
    acvf_via_convolution,
    acvf_via_subtraction,
    farima00_acvf,
    fgn_acvf,
    g_fourier_coeffs,
)
from .errors import ConvergenceError, CoverageError, DomainError
from .kernel_special import HurstParam, Tolerance, c_of_H, fgn_lattice_sum, frac_diff_coeffs
from .process_model import (
    Arma,
    Fexp,
    Fgn,
    FracDiff,
    ProcessSpec,
    Sum,
    WhiteNoise,
    matched_fgn,
    spec_from_json,
    spec_to_json,
    spectrum,
)
from .sampler import SamplePath, empirical_acvf, sample, sample_many
from .vtf_aggregation import (
    AggregatedVtf,
    VtfView,
    aggregate_ctf,
    aggregate_vtf,
    vtf,
)

__version__ = "0.1.0"

__all__ = [
    "AcvfTable",
    "AggregatedVtf",
    "Arma",
    "BrittlenessExperiment",
    "BrittlenessResult",
    "ClosenessReport",
    "ConvergenceError",
    "CoverageError",
    "DomainError",
    "Fexp",
    "Fgn",
    "FracDiff",
    "GCoeffs",
    "HurstParam",
    "ProcessSpec",
    "Route",
    "SamplePath",
    "Sum",
    "Tolerance",
    "VtfView",
    "WhiteNoise",
    "acvf",
    "acvf_gap_profile",
    "acvf_via_convolution",
    "acvf_via_subtraction",
    "aggregate_ctf",
    "aggregate_vtf",
    "builtin_experiment",
    "c_of_H",
    "closeness_report",
    "ctf_convergence_slope",
    "empirical_acvf",
    "farima00_acvf",
    "fgn_acvf",
    "fgn_lattice_sum",
    "frac_diff_coeffs",
    "g_fourier_coeffs",
    "matched_fgn",
    "run_brittleness",
    "sample",
    "sample_many",
    "spec_from_json",
    "spec_to_json",
    "spectral_gap_profile",
    "spectrum",
    "vtf",
    "vtf_offset",
    "__version__",
]
