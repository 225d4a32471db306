"""Contracts shared by every module: integer, real and frequency arguments,
and exported names.

Every size, lag, level, count and seed goes through one validator, so a
bool, a fraction or a value below the parameter's minimum is refused the
same way everywhere: a DomainError that names the parameter.  Integral
floats and numpy integers are integers.  Every real scalar (Hurst
exponents, variances, weights, coefficients, tolerances) goes through
another: a bool, a string, None or a non-finite value is refused, and so
is a non-positive value where the parameter must be positive.  Frequency
arrays must have a numeric dtype and finite entries in [-1/2, 1/2], and
lag arrays a numeric dtype and whole-number entries.
"""

import argparse
import importlib
import json
import math
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
from lrdlab.kernel_special import HurstParam, Tolerance, fgn_lattice_sum, frac_diff_coeffs
from lrdlab.process_model import Arma, Fexp, Fgn, FracDiff, Sum, WhiteNoise, driver_density, spec_from_json, spectrum
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


# (parameter the message starts with, whether it must be positive, an
# accepted value (an int where the domain holds one), the call).
REAL_PARAMETERS = {
    "HurstParam": ("Hurst exponent", True, 1, HurstParam),
    "Fgn H": ("Hurst exponent", True, 1, lambda v: Fgn(v, 1.0)),
    "Fgn V": ("V", True, 2, lambda v: Fgn(0.8, v)),
    "WhiteNoise": ("variance", True, 2, WhiteNoise),
    "Arma ar": ("ar coefficient", False, 0, lambda v: Arma((v,))),
    "Arma ma": ("ma coefficient", False, 0, lambda v: Arma((), (v,))),
    "Arma innovation_variance": ("innovation_variance", True, 2, lambda v: Arma((0.5,), (), v)),
    "Fexp": ("theta coefficient", False, 1, lambda v: Fexp((0.5, v))),
    "Sum weight": ("component weight", True, 2, lambda v: Sum(((FGN08, 1.0), (WHITE, v)))),
    "spec JSON H": ("field 'H' of fgn spec", False, 1, lambda v: spec_from_json({"type": "fgn", "H": v, "V": 1})),
    "spec JSON V": ("field 'V' of fgn spec", False, 2, lambda v: spec_from_json({"type": "fgn", "H": 0.8, "V": v})),
    "fgn_acvf H": ("Hurst exponent", True, 1, lambda v: fgn_acvf(v, 1.0, 3)),
    "fgn_acvf V": ("V", True, 2, lambda v: fgn_acvf(0.8, v, 3)),
    "farima00_acvf d": ("d", True, 0.3, lambda v: farima00_acvf(v, 1.0, 3)),
    "farima00_acvf sigma2": ("sigma2", True, 2, lambda v: farima00_acvf(0.3, v, 3)),
    "frac_diff_coeffs": ("fractional order", False, 0, lambda v: frac_diff_coeffs(v, 3)),
    "Tolerance abs_tol": ("abs_tol", True, 1, lambda v: Tolerance(abs_tol=v)),
    "Tolerance rel_tol": ("rel_tol", True, 1, lambda v: Tolerance(rel_tol=v)),
    "BrittlenessExperiment": ("weight", True, 1, lambda v: BrittlenessExperiment(FGN08, WHITE, v, lags=(1,))),
}


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("where", sorted(REAL_PARAMETERS))
def test_real_arguments_are_validated_one_way(where):
    name, positive, good, call = REAL_PARAMETERS[where]
    bad_values = [True, "0.5", math.nan, math.inf, -math.inf, None] + ([0, -1] if positive else [])
    for bad in bad_values:
        with pytest.raises(DomainError, match="^" + re.escape(name) + " "):
            call(bad)
    expected = call(good)
    assert _same(call(float(good)), expected)
    assert _same(call(np.float64(good)), expected)


@pytest.mark.parametrize("call", [
    lambda x: spectrum(FGN08, x),
    lambda x: driver_density(WhiteNoise(1.0), x),
    lambda x: fgn_lattice_sum(x, 0.8),
], ids=["spectrum", "driver_density", "fgn_lattice_sum"])
def test_frequency_arrays_are_validated_one_way(call):
    for bad in ("0.1", np.array([True]), np.array([0.1], dtype=object), np.array([0.1, math.nan]), [0.6], [False, 0.1]):
        with pytest.raises(DomainError, match="frequency"):
            call(bad)
    assert _same(call(np.array([0.1, 0.5])), np.array([call(0.1), call(0.5)]))


@pytest.mark.parametrize("call", [
    lambda n: vtf(FGN08).omega(n),
    lambda n: vtf(FARIMA03).offset(n),
    lambda n: aggregate_vtf(vtf(FGN08), 2).omega(n),
    lambda n: aggregate_ctf(vtf(FGN08), 2, n),
], ids=["omega", "offset", "AggregatedVtf.omega", "aggregate_ctf"])
def test_lag_arrays_are_validated_one_way(call):
    bad_values = (True, "3", object(), None, np.array([True]), [False, 2], 2.5, [1, math.nan], np.array(["1"]))
    for bad in bad_values:
        with pytest.raises(DomainError, match="^lags must be integers, got "):
            call(bad)
    assert _same(call(np.array([1, 3])), np.array([call(1), call(3.0)]))


@pytest.mark.parametrize(
    "component", [(FGN08,), (FGN08, 1.0, 2.0), FGN08, 5], ids=["single", "triple", "bare spec", "number"]
)
def test_sum_components_must_be_pairs(component):
    with pytest.raises(DomainError, match=r"^Sum component 1 must be a \(spec, weight\) pair, got "):
        Sum(((WHITE, 1.0), component))


ARMA_SPEC = {"type": "fracdiff", "H": 0.8, "driver": {"type": "arma", "ar": [0.3]}}


@pytest.mark.parametrize("field, config", [
    ("ar", {**ARMA_SPEC, "driver": {"type": "arma", "ar": "05"}}),
    ("ar", {**ARMA_SPEC, "driver": {"type": "arma", "ar": ["0.3"]}}),
    ("theta", {"type": "fexp", "theta": [True]}),
    ("weight", {"base": ARMA_SPEC, "noise": {"type": "fgn", "H": 0.5, "V": 1.0}, "weight": "0.1"}),
], ids=["ar string", "ar string entry", "theta bool entry", "experiment weight string"])
def test_cli_refuses_malformed_reals(tmp_path, capsys, field, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    command = ["brittle", "--spec"] if "weight" in config else ["acvf", "--spec"]
    assert cli.main([*command, str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_cli_refuses_non_finite_tolerance(tmp_path, capsys, tol):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(ARMA_SPEC))
    assert cli.main(["acvf", "--spec", str(path), "--tol", tol]) == 2
    assert "--tol" in capsys.readouterr().err


def _modules():
    yield lrdlab
    for info in pkgutil.iter_modules(lrdlab.__path__):
        yield importlib.import_module(f"lrdlab.{info.name}")


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
