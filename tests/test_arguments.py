"""Contracts shared by every module: integer arguments and exported names.

Every size, lag, level, count and seed goes through one validator, so a
bool, a fraction or a value below the parameter's minimum is refused the
same way everywhere: a DomainError that names the parameter.  Integral
floats and numpy integers are integers.
"""

import argparse
import importlib
import pkgutil
import re

import numpy as np
import pytest

import lrdlab
from lrdlab import cli
from lrdlab.asymptotics_lab import (
    BrittlenessExperiment,
    acvf_gap_profile,
    builtin_experiment,
    ctf_convergence_slope,
    vtf_offset,
)
from lrdlab.covariance_engine import (
    acvf,
    acvf_via_convolution,
    acvf_via_subtraction,
    farima00_acvf,
    fgn_acvf,
    g_fourier_coeffs,
)
from lrdlab.errors import DomainError
from lrdlab.kernel_special import HurstParam, Tolerance, frac_diff_coeffs
from lrdlab.process_model import Fgn, FracDiff, WhiteNoise
from lrdlab.sampler import empirical_acvf, sample, sample_many
from lrdlab.vtf_aggregation import AggregatedVtf, aggregate_ctf, aggregate_vtf, vtf

FGN08 = Fgn(HurstParam(0.8), 1.0)
WHITE = Fgn(HurstParam(0.5), 1.0)
FARIMA03 = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
LEVELS = (1, 10, 100, 1000)


def _table_gamma(n):
    return acvf(FGN08, 4).gamma(n)


def _coefficient(j):
    return g_fourier_coeffs(0.8, WhiteNoise(1.0), 8).G(j)


def _lag_estimate(k):
    return empirical_acvf(sample_many(WHITE, 8, 1, 2), [k])


# (parameter named in the message, its minimum or None for any sign, an
# accepted value, the call).
INTEGER_PARAMETERS = {
    "acvf": ("n_max", 0, 3, lambda v: acvf(FGN08, v)),
    "acvf_via_subtraction": ("n_max", 0, 3, lambda v: acvf_via_subtraction(FARIMA03, v)),
    "acvf_via_convolution": ("n_max", 0, 3, lambda v: acvf_via_convolution(0.8, WhiteNoise(1.0), v, J_max=8)),
    "fgn_acvf": ("lag n", 0, 3, lambda v: fgn_acvf(0.8, 1.0, v)),
    "farima00_acvf": ("lag n", 0, 3, lambda v: farima00_acvf(0.3, 1.0, v)),
    "g_fourier_coeffs": ("J_max", 8, 8, lambda v: g_fourier_coeffs(0.8, WhiteNoise(1.0), v)),
    "AcvfTable.gamma": ("lag n", None, -3, _table_gamma),
    "GCoeffs.G": ("coefficient index j", None, -3, _coefficient),
    "frac_diff_coeffs": ("n_max", 0, 3, lambda v: frac_diff_coeffs(0.3, v)),
    "Tolerance": ("max_terms", 1, 3, lambda v: Tolerance(max_terms=v)),
    "AggregatedVtf": ("aggregation level m", 1, 3, lambda v: AggregatedVtf(vtf(FGN08), v)),
    "aggregate_vtf": ("aggregation level m", 1, 3, lambda v: aggregate_vtf(vtf(FGN08), v).omega([1, 2])),
    "aggregate_ctf": ("aggregation level m", 1, 3, lambda v: aggregate_ctf(vtf(FGN08), v, [1, 2])),
    "vtf_offset": ("n_probe", 1, 3, lambda v: vtf_offset(vtf(FGN08), (v, 200))),
    "acvf_gap_profile": ("n_grid", 0, 3, lambda v: acvf_gap_profile(FGN08, [v, 4])),
    "BrittlenessExperiment": (
        "levels", 1, 3, lambda v: BrittlenessExperiment(FGN08, WHITE, 0.1, levels=(v,), lags=(1,))
    ),
    "ctf_convergence_slope": ("lag n", 1, 3, lambda v: ctf_convergence_slope(vtf(FGN08), v, LEVELS)),
    "builtin_experiment": ("experiment index", None, 1, builtin_experiment),
    "sample": ("N", 2, 3, lambda v: sample(WHITE, v, 1)),
    "sample_many N": ("N", 2, 3, lambda v: sample_many(WHITE, v, 1, 2)),
    "sample_many count": ("count", 1, 3, lambda v: sample_many(WHITE, 8, 1, v)),
    "seed": ("seed", 0, 3, lambda v: sample(WHITE, 8, v)),
    "empirical_acvf": ("lag", 0, 3, _lag_estimate),
    "cli": ("--nmax", 2, 3, lambda v: cli._positive_int(argparse.Namespace(nmax=v), "nmax", 2)),
}


@pytest.mark.parametrize("where", sorted(INTEGER_PARAMETERS))
def test_integer_arguments_are_validated_one_way(where):
    name, minimum, good, call = INTEGER_PARAMETERS[where]
    bad_values = [2.5, True] + ([] if minimum is None else [minimum - 1])
    for bad in bad_values:
        with pytest.raises(DomainError, match=re.escape(name)):
            call(bad)
    call(float(good))
    call(np.int64(good))


def _modules():
    yield lrdlab
    for info in pkgutil.iter_modules(lrdlab.__path__):
        yield importlib.import_module(f"lrdlab.{info.name}")


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
