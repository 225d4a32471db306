"""Acceptance gate: one test per promised numerical target.

Each test asserts exactly the published tolerance for its target; run
with -v to get one pass/fail line per criterion.  Criterion 5 checks the
variance-time offset of FARIMA(0,d,0) against its exact closed form
(Hosking's autocovariance telescopes in the double sum), so the gate
rests on an independent reference rather than on a Cauchy-style
stopping test.
"""

import numpy as np
import pytest
from helpers import f_alpha, farima00_offset_constants

from lrdlab.asymptotics_lab import (
    acvf_gap_profile,
    builtin_experiment,
    ctf_convergence_slope,
    run_brittleness,
    spectral_gap_profile,
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
from lrdlab.kernel_special import HurstParam
from lrdlab.process_model import Arma, Fgn, FracDiff, WhiteNoise
from lrdlab.sampler import empirical_acvf, sample_many
from lrdlab.vtf_aggregation import (
    aggregate_ctf,
    conv_double_int_identity_check,
    vtf,
)

FARIMA03 = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
ARMA_31_7 = Arma((0.3,), (0.7,), 1.0)
LEVELS = tuple(2**k for k in range(11))


def test_criterion_01_fixed_point_exactness():
    """|rho^(m)(n) - n^(2H)| <= 1e-10 for all m <= 100, n <= 10."""
    worst = 0.0
    for h in (0.6, 0.8, 0.95):
        spec = Fgn(HurstParam(h), 1.3)
        view = vtf(spec)
        for m in range(1, 101):
            for n in range(1, 11):
                gap = abs(aggregate_ctf(view, m, n) - float(n) ** (2 * h))
                worst = max(worst, gap)
    assert worst <= 1e-10, f"worst fixed-point deviation {worst:.3e} exceeds 1e-10"


def test_criterion_02_route_equivalence():
    """Closed form vs quadrature (1e-8, lags 0..200); convolution vs quadrature (1e-6, lags 0..50)."""
    quad = acvf_via_subtraction(FracDiff(HurstParam(0.8), Arma((), (), 1.0)), 200)
    exact = np.array([farima00_acvf(0.3, 1.0, n) for n in range(201)])
    gap_white = np.abs(quad.values - exact).max()
    assert gap_white <= 1e-8, f"closed form vs quadrature max gap {gap_white:.3e}"

    conv = acvf_via_convolution(HurstParam(0.8), ARMA_31_7, 50)
    spectral = acvf_via_subtraction(FracDiff(HurstParam(0.8), ARMA_31_7), 50)
    gap_arma = np.abs(conv.values - spectral.values).max()
    assert gap_arma <= 1e-6, f"convolution vs quadrature max gap {gap_arma:.3e}"


def test_criterion_03_g_coefficient_structure():
    """Coefficients sum to 1 +- 1e-8; j^3 |G_j| envelope within a factor 10 on [100, 2000]."""
    gc = g_fourier_coeffs(HurstParam(0.8), WhiteNoise(1.0), J_max=2048)
    total = gc.coefficient_sum()
    assert abs(total - 1.0) <= 1e-8, f"coefficient sum {total!r} off unity"
    j = np.arange(100, 2001)
    envelope = j.astype(np.float64) ** 3 * np.abs([gc.G(int(k)) for k in j])
    spread = envelope.max() / envelope.min()
    assert spread <= 10.0, f"j^3 envelope spread {spread:.3f} exceeds 10"


def test_criterion_04_double_sum_convolution_identity():
    """Identity residual <= 1e-12 on 100 random pairs with support <= 17."""
    # Small-integer draws keep every intermediate exactly representable,
    # so any surviving residual is structural rather than roundoff.
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        a = rng.integers(-3, 4, rng.integers(1, 18)).astype(np.float64)
        b = rng.integers(-3, 4, rng.integers(1, 18)).astype(np.float64)
        worst = max(worst, conv_double_int_identity_check(a, b))
    assert worst <= 1e-12, f"worst identity residual {worst:.3e}"


def test_criterion_05_offset_stabilisation_and_candidate_match():
    """Offset stabilises within 1e-3 |D| at probes 1e3/1e4, is positive, and one closed form matches.

    The exact offset of unit-variance FARIMA(0,d,0) is
    omega(n) - V n^(2H) = D + c n^(2H-2) + O(n^(2H-4)) with
    D = d gamma(0)/(1+2d) > 0 and c = -V d(1+d)(1+2d)/6; for d = 0.3,
    D = +0.2468355116 and c = -0.1237635.  The raw offset cannot be the
    measure of stabilisation: its n^(-0.4) transient moves it by
    1.93e-2 |D| between n = 1e3 and 1e4, and raw decade probes first meet
    the 1e-3 window at 1e7/1e8, where rounding in omega swamps the gap.
    So the window, the sign and the 1e-4 candidate rule are applied to
    the transient-corrected offsets and to the fitted limit.  The raw
    movement is still checked, against the exact c.
    """
    exact_d, exact_c = farima00_offset_constants(FARIMA03.H.H - 0.5)
    _, evidence = vtf_offset(vtf(FARIMA03), (1000, 2000, 5000, 10000))
    exponent = 2.0 * FARIMA03.H.H - 2.0
    corrected = [
        off - evidence.rate_coefficient * n**exponent
        for n, off in zip(evidence.probes, evidence.offsets)
    ]
    limit = evidence.limit_fitted

    unmet = []
    # (a) Stabilisation of the transient-corrected offsets at 1e3 and 1e4.
    delta = abs(corrected[-1] - corrected[0])
    if not delta < 1e-3 * abs(exact_d):
        unmet.append(
            f"stabilisation: corrected |offset(1e4) - offset(1e3)| = {delta:.6g} "
            f"= {delta / abs(exact_d):.3g} * |D|, target < 1e-3 * |D|"
        )
    # (b) Sign and value of the limit, measured and closed form.
    for name, value in (("fitted limit", limit), ("signed closed form", evidence.D_formula_signed)):
        if not (value > 0 and abs(value - exact_d) <= 1e-4 * abs(exact_d)):
            unmet.append(
                f"value: {name} = {value:+.10g}, exact D = {exact_d:+.10g}, "
                "target positive and within 1e-4 relative"
            )
    # (c) The 1e-4 matching rule on the fitted limit names one candidate.
    candidates = (("signed", evidence.D_formula_signed), ("absolute", evidence.D_formula_abs))
    matched = [name for name, value in candidates if abs(value - limit) <= 1e-4 * abs(limit)]
    if matched != ["signed"]:
        unmet.append(
            f"candidate: fitted limit {limit:+.7g} matches {matched} "
            f"(signed {evidence.D_formula_signed:+.7g}, absolute {evidence.D_formula_abs:+.7g}), "
            "target the signed form only"
        )
    # The raw movement is the exact transient c (1e3^(2H-2) - 1e4^(2H-2)).
    raw = abs(evidence.offsets[-1] - evidence.offsets[0])
    predicted = abs(exact_c) * (1000.0**exponent - 10000.0**exponent)
    if not abs(raw - predicted) <= 1e-3 * predicted:
        unmet.append(
            f"transient: raw |offset(1e4) - offset(1e3)| = {raw:.6g}, "
            f"exact {predicted:.6g}, target within 1e-3 relative"
        )
    assert not unmet, "; ".join(unmet)


def test_criterion_06_aggregation_convergence_slopes():
    """Gap decay slopes: base -1.6 +- 0.05; white-perturbed -0.6 +- 0.1; weaker-memory-perturbed -0.2 +- 0.1."""
    targets = (
        (builtin_experiment(1).base, -1.6, 0.05),
        (builtin_experiment(1).perturbed(), -0.6, 0.1),
        (builtin_experiment(3).perturbed(), -0.2, 0.1),
    )
    for spec, centre, width in targets:
        slope = ctf_convergence_slope(vtf(spec), 2, LEVELS).slope_hat
        assert centre - width <= slope <= centre + width, (
            f"slope {slope:.4f} outside {centre} +- {width} for {spec!r}"
        )


def test_criterion_07_acvf_gap_envelope_flat():
    """n^(4-2H) |d_n| varies by less than 10% over n in [1e3, 1e4]."""
    grid = np.unique(np.round(np.geomspace(1000, 10000, 41)).astype(int))
    profile = acvf_gap_profile(FARIMA03, grid)
    assert profile.envelope_variation is not None
    assert profile.envelope_variation < 0.10, (
        f"envelope variation {profile.envelope_variation:.4f} not under 10%"
    )


def test_criterion_08_spectral_gap_near_origin():
    """log-log slope of phi equals 1.4 +- 0.1; phi(1e-6) <= 1e-6 and phi >= 0 on the grid."""
    profile = spectral_gap_profile(FARIMA03, np.geomspace(1e-6, 0.5, 61))
    assert 1.3 <= profile.slope_near_zero <= 1.5, f"slope {profile.slope_near_zero:.4f}"
    assert profile.nonnegative_on_grid
    assert 0.0 <= profile.phi[0] <= 1e-6, f"phi(1e-6) = {profile.phi[0]:.3e}"


def test_criterion_09_brittleness_reproduction():
    """All experiments: base at m=100 within 0.01 of 1 and closer than perturbed; unaggregated crossover in experiment 2."""
    for index in (1, 2, 3):
        result = run_brittleness(builtin_experiment(index))
        for lag in range(1, 11):
            base = result.ratio("base", 100, lag)
            pert = result.ratio("perturbed", 100, lag)
            assert abs(base - 1.0) <= 0.01, (
                f"experiment {index}: base ratio at lag {lag} is {base:.5f}"
            )
            assert abs(pert - 1.0) > abs(base - 1.0), (
                f"experiment {index}: perturbed no farther at lag {lag}"
            )
    crossover = run_brittleness(builtin_experiment(2))
    closer = [
        n
        for n in range(1, 11)
        if abs(crossover.ratio("perturbed", 1, n) - 1.0) < abs(crossover.ratio("base", 1, n) - 1.0)
    ]
    assert closer, "experiment 2 shows no unaggregated crossover"


def test_criterion_10_kernel_bound_grids():
    """Positivity/monotonicity and envelope bound hold with zero violations at 1e5 points."""
    points_per_curve = 100_000 // 9
    for alpha in (1.1, 1.6, 1.9):
        for y in (0.5, 1.0, 2.0):
            x = np.geomspace(y + 1e-3, 1e3, points_per_curve)
            f = f_alpha(alpha, x, y)
            assert np.all(f > 0), f"positivity fails for alpha={alpha}, y={y}"
            assert np.all(np.diff(f) < 0), f"monotonicity fails for alpha={alpha}, y={y}"
    for alpha in (-0.5, -1.5, -2.5):
        for y in (0.5, 1.0, 2.0):
            x = np.geomspace(y + 1e-3, 1e3, points_per_curve)
            f = f_alpha(alpha, x, y)
            bound = 2.0 * alpha * (alpha - 1.0) * y * y * (x - y) ** (alpha - 2.0)
            assert np.all(f > 0), f"positivity fails for alpha={alpha}, y={y}"
            assert np.all(f < bound), f"envelope fails for alpha={alpha}, y={y}"


def test_criterion_11_sampler_matches_exact_acvf():
    """Empirical ACVF of 500 paths (N = 8192) within 4 standard errors at lags 0..5."""
    specs = []
    for index in (1, 2, 3):
        experiment = builtin_experiment(index)
        for candidate in (experiment.base, experiment.perturbed()):
            if candidate not in specs:
                specs.append(candidate)
    lags = range(6)
    for offset, spec in enumerate(specs):
        exact = np.array([acvf(spec, 5).gamma(n) for n in lags])
        paths = sample_many(spec, 8192, 20260816 + offset, 500)
        means, errors = empirical_acvf(paths, lags)
        misses = np.abs(means - exact) / errors
        assert np.all(misses <= 4.0), (
            f"{spec!r}: worst deviation {misses.max():.2f} standard errors"
        )


def test_criterion_12_taylor_series_matches_closed_form():
    """30-term expansion reproduces the exact ACVF within 1e-12 for n in [2, 100]."""
    for h in (0.6, 0.8, 0.95):
        a = 2.0 * h
        worst = 0.0
        for n in range(2, 101):
            coeff = 1.0
            total = 0.0
            for j in range(1, 31):
                coeff *= (a - (2 * j - 2)) * (a - (2 * j - 1)) / ((2 * j - 1) * (2 * j))
                total += coeff * float(n) ** (-2 * j)
            series = float(n) ** a * total
            worst = max(worst, abs(series - fgn_acvf(h, 1.0, n)))
        assert worst <= 1e-12, f"H={h}: worst series gap {worst:.3e}"
