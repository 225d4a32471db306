"""Covariance routes against frozen oracles and against each other.

fGn values were frozen from a 60-digit evaluation of the closed form
(including n = 10^6, where double-precision direct differencing fails);
G coefficients were frozen from two independent measurements (FFT grid
quadrature and adaptive integration of g(x) cos(2 pi j x)).  Route
agreement tests treat the closed forms and mpmath as oracles for the
driver convolution of ``acvf`` and for the quadrature and G-coefficient
cross-checks.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from lrdlab.asymptotics_lab import builtin_experiment
from lrdlab.errors import ConvergenceError, CoverageError, DomainError
from lrdlab.kernel_special import HurstParam, Tolerance
from lrdlab import covariance_engine
from lrdlab.covariance_engine import (
    AcvfTable,
    GCoeffs,
    Route,
    _GRID_CAP,
    acvf,
    acvf_via_convolution,
    acvf_via_subtraction,
    farima00_acvf,
    fgn_acvf,
    g_fourier_coeffs,
)
from lrdlab.process_model import Arma, Fexp, Fgn, FracDiff, Sum, WhiteNoise, driver_density, matched_fgn, spectrum

FGN_ORACLE = {
    (0.8, 1): 0.51571656651039808235,
    (0.8, 2): 0.36833993437684796259,
    (0.8, 10): 0.19118086146520978965,
    (0.8, 100): 0.076075228263865405553,
    (0.8, 1000): 0.030285953948394112038,
    (0.8, 10_000): 0.012057054876872610155,
    (0.8, 1_000_000): 0.0019109144186568759797,
    (0.6, 1): 0.1486983549970350068,
    (0.95, 7): 0.70394367514323290196,
}

# FARIMA(0, 0.3, 0), sigma2 = 1, frozen from the gamma closed form.
FARIMA03_GAMMA0 = 1.3164560621300047185
FARIMA03_GAMMA1 = 0.56419545519857345081
FARIMA03_GAMMA5 = 0.2998961563905657125
FARIMA03_TAIL_CONST = 0.57121624762026400029  # gamma(1-2d)/(gamma(d) gamma(1-d))

# G_j for FARIMA(0, 0.3, 0) matched to its fGn; two independent routes
# agreed to ~1e-12.
G_ORACLE = {
    0: 1.223711814366188,
    1: -0.119646665672950,
    2: 0.009203209924214,
    3: -0.001219171472086,
}

FARIMA11_DRIVER = Arma(ar=(0.3,), ma=(0.7,), innovation_variance=1.0)


def test_fgn_acvf_matches_high_precision_oracle():
    for (h, n), want in FGN_ORACLE.items():
        assert fgn_acvf(h, 1.0, n) == pytest.approx(want, rel=1e-10)
    # V scales linearly; lag 0 is the variance.
    assert fgn_acvf(0.8, 2.5, 10) == pytest.approx(2.5 * FGN_ORACLE[(0.8, 10)], rel=1e-12)
    assert fgn_acvf(0.8, 2.5, 0) == 2.5


def test_fgn_acvf_white_and_degenerate():
    for n in (1, 2, 7, 1000, 4096):
        assert fgn_acvf(0.5, 1.0, n) == pytest.approx(0.0, abs=1e-14)
    # H = 1 is perfectly correlated: gamma(n) = V at every lag.
    for n in (0, 1, 999, 1001, 10**6):
        assert fgn_acvf(1.0, 3.0, n) == pytest.approx(3.0, rel=1e-12)


def test_fgn_acvf_series_matches_fsum_at_crossover():
    # The series agrees with the direct difference around its lag-16/17
    # switch and where the direct difference still keeps 1e-9 (lag ~1000).
    for h in (0.6, 0.8, 0.95):
        a = 2.0 * h
        for n in (15, 16, 17, 18, 999, 1000, 1001, 1002):
            direct = 0.5 * math.fsum(((n + 1.0) ** a, (n - 1.0) ** a, -float(n) ** a, -float(n) ** a))
            assert fgn_acvf(h, 1.0, n) == pytest.approx(direct, rel=1e-9)


def test_fgn_acvf_within_tolerance_of_mpmath():
    # Every lag to 2000 within max(abs_tol, rel_tol |gamma|) of a 40-digit
    # evaluation of the closed form.
    tol = Tolerance()
    lags = range(2001)
    with mpmath.workdps(40):
        for h in (0.55, 0.66, 0.8, 0.95):
            got = acvf(Fgn(HurstParam(h), 1.0), 2000).values
            a = mpmath.mpf(2 * h)
            ref = np.array(
                [float(((n + 1) ** a + abs(n - 1) ** a - 2 * mpmath.mpf(n) ** a) / 2) for n in lags]
            )
            allowance = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(ref))
            worst = float(np.max(np.abs(got - ref) / allowance))
            assert worst <= 1.0, f"H={h}: worst error {worst:.3g} allowances"


def test_fgn_acvf_domain():
    with pytest.raises(DomainError):
        fgn_acvf(0.8, 0.0, 1)
    with pytest.raises(DomainError):
        fgn_acvf(0.8, 1.0, -1)
    with pytest.raises(DomainError):
        fgn_acvf(1.2, 1.0, 1)


def test_farima00_acvf_closed_form():
    assert farima00_acvf(0.3, 1.0, 0) == pytest.approx(FARIMA03_GAMMA0, rel=1e-13)
    assert farima00_acvf(0.3, 1.0, 1) == pytest.approx(FARIMA03_GAMMA1, rel=1e-13)
    assert farima00_acvf(0.3, 1.0, 5) == pytest.approx(FARIMA03_GAMMA5, rel=1e-13)
    ratio = farima00_acvf(0.3, 1.0, 1) / farima00_acvf(0.3, 1.0, 0)
    assert ratio == pytest.approx(3.0 / 7.0, rel=1e-14)
    assert farima00_acvf(0.3, 2.0, 3) == pytest.approx(2.0 * farima00_acvf(0.3, 1.0, 3), rel=1e-14)


def test_farima00_recursion_within_1e_14_of_mpmath():
    # The ratio recursion keeps its relative error at rounding level over
    # long tables: gamma(n) = Gamma(1-2d) Gamma(n+d) / (Gamma(d) Gamma(1-d) Gamma(n+1-d)).
    d = 0.3
    table = acvf(FracDiff(HurstParam(0.5 + d), WhiteNoise(1.0)), 10_000).values
    lags = np.unique(np.round(np.geomspace(1, 10_000, 40)).astype(int))
    with mpmath.workdps(40):
        dd = mpmath.mpf(0.5 + d) - mpmath.mpf(0.5)
        for n in lags:
            want = mpmath.gammaprod([1 - 2 * dd, int(n) + dd], [dd, 1 - dd, int(n) + 1 - dd])
            assert abs(table[n] / float(want) - 1.0) <= 1e-14, f"lag {n}"


def test_farima00_white_noise_limit():
    # gamma(1)/gamma(0) = d/(1-d) -> 0 as d -> 0+.
    ratio = farima00_acvf(1e-8, 1.0, 1) / farima00_acvf(1e-8, 1.0, 0)
    assert ratio == pytest.approx(1e-8, rel=1e-6)


def test_farima00_tail_power_law():
    # gamma(n) n^(2-2H) settles to the positive tail constant.
    lags = [1000, 2154, 4642, 10_000]
    scaled = [farima00_acvf(0.3, 1.0, n) * n**0.4 for n in lags]
    assert all(s > 0.0 for s in scaled)
    assert max(scaled) / min(scaled) - 1.0 < 0.02
    assert scaled[-1] == pytest.approx(FARIMA03_TAIL_CONST, rel=0.01)


def test_farima00_domain():
    for bad_d in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(DomainError):
            farima00_acvf(bad_d, 1.0, 1)
    with pytest.raises(DomainError):
        farima00_acvf(0.3, 0.0, 1)
    with pytest.raises(DomainError):
        farima00_acvf(0.3, 1.0, -2)


def test_g_coeffs_match_frozen_oracle():
    gc = g_fourier_coeffs(0.8, WhiteNoise(1.0), J_max=10_000)
    for j, want in G_ORACLE.items():
        assert gc.G(j) == pytest.approx(want, abs=1e-9)
        assert gc.G(-j) == gc.G(j)


def test_g_coeffs_sum_and_tail():
    gc = g_fourier_coeffs(0.8, WhiteNoise(1.0), J_max=10_000)
    eps = gc.tail_bound + 1e-8
    assert abs(gc.coefficient_sum() - 1.0) <= eps
    assert gc.tail_bound < 1e-10
    # Cubic decay envelope: sup/inf of j^3 |G_j| over [100, 2000] within 10x.
    j = np.arange(100, 2001)
    env = j.astype(float) ** 3 * np.abs(gc.values[100:2001])
    assert float(env.max() / env.min()) <= 10.0


def test_g_coeffs_tail_bound_needs_a_measured_envelope():
    # The j^3 |G_j| envelope is measured from j = 100 on: a shorter range
    # states no bound, a longer one dominates the two-sided tail beyond J
    # (measured here from a J = 10000 run).
    for drv in (WhiteNoise(1.0), Arma((0.9,), ())):
        for J in (8, 64, 99):
            assert g_fourier_coeffs(0.8, drv, J_max=J).tail_bound == math.inf
        ref = g_fourier_coeffs(0.8, drv, J_max=10_000).values
        for J in (100, 2048):
            tail = 2.0 * math.fsum(np.abs(ref[J + 1 :]))
            assert g_fourier_coeffs(0.8, drv, J_max=J).tail_bound >= tail, f"{drv}, J = {J}"


def test_g_coeffs_degenerate_near_half():
    gc = g_fourier_coeffs(0.5 + 1e-6, WhiteNoise(1.0), J_max=64)
    assert gc.G(0) == pytest.approx(1.0, abs=1e-4)
    assert np.all(np.abs(gc.values[1:]) <= 1e-4)


def test_g_coeffs_domain_and_coverage():
    with pytest.raises(DomainError):
        g_fourier_coeffs(0.5, WhiteNoise(1.0))
    with pytest.raises(DomainError):
        g_fourier_coeffs(0.8, WhiteNoise(1.0), J_max=4)
    gc = g_fourier_coeffs(0.8, WhiteNoise(1.0), J_max=64)
    with pytest.raises(CoverageError):
        gc.G(65)
    with pytest.raises(DomainError, match="integer"):
        gc.G(2.5)


def test_route_selection():
    # One route per spec type: every FracDiff, whatever its driver and H,
    # antipersistent ARMA drivers included, is a driver convolution.
    assert acvf(Fgn(HurstParam(0.8), 1.0), 4).route is Route.CLOSED_FORM
    for spec in (
        FracDiff(HurstParam(0.8), WhiteNoise(1.0)),
        FracDiff(HurstParam(0.8), Fexp(())),
        FracDiff(HurstParam(0.5), FARIMA11_DRIVER),
        FracDiff(HurstParam(0.4), FARIMA11_DRIVER),
    ):
        assert acvf(spec, 4).route is Route.DRIVER_CONVOLUTION
    z = Sum(((Fgn(HurstParam(0.8), 1.0), 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1)))
    assert acvf(z, 4).route is Route.SUM_OF_COMPONENTS
    with pytest.raises(DomainError):
        acvf(Fgn(HurstParam(0.8), 1.0), -1)
    with pytest.raises(DomainError):
        acvf(FracDiff(HurstParam(1.0), WhiteNoise(1.0)), 4)


@pytest.mark.parametrize(
    "request_table",
    [
        lambda n: acvf(Fgn(HurstParam(0.8), 1.0), n),
        lambda n: acvf(FracDiff(HurstParam(0.8), FARIMA11_DRIVER), n),
        lambda n: farima00_acvf(0.3, 1.0, n),
        lambda n: acvf_via_subtraction(FracDiff(HurstParam(0.8), WhiteNoise(1.0)), n),
        lambda n: acvf_via_convolution(0.8, WhiteNoise(1.0), n),
    ],
    ids=["acvf_fgn", "acvf_fracdiff", "farima00_acvf", "subtraction", "convolution"],
)
def test_oversized_tables_raise_domain_error(request_table):
    # 2^40 lags would need terabytes: refused by the array limit before any
    # array, any G coefficient or any grid is built.
    with pytest.raises(DomainError, match=r"1099511627776 is beyond the array limit 2\^28 = 268435456"):
        request_table(2**40)


def test_acvf_never_integrates(monkeypatch):
    # The driver route reads the driver density only; the subtraction route
    # samples the spectrum of the spec and its matched fGn.
    calls = []
    evaluate = covariance_engine.spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(covariance_engine, "spectrum", counted)
    spec = FracDiff(HurstParam(0.8), FARIMA11_DRIVER)
    acvf(spec, 128)
    assert calls == []
    acvf_via_subtraction(spec, 8)
    assert len(calls) >= 1


def test_periodic_coefficient_grids_count_against_max_terms():
    # Every FFT-grid route counts grid points against the work budget, and
    # the error names the residual it reached.
    budget = Tolerance(max_terms=1)
    with pytest.raises(ConvergenceError, match="grid points: no grid was evaluated"):
        acvf(FracDiff(HurstParam(0.5), Arma((0.95,), ())), 5000, budget)
    with pytest.raises(ConvergenceError, match="grid points: no grid was evaluated"):
        acvf(FracDiff(HurstParam(0.8), Arma((0.3,), (0.7,))), 10, budget)
    with pytest.raises(ConvergenceError, match="grid points: no grid was evaluated"):
        g_fourier_coeffs(0.8, Arma((0.3,), (0.7,)), 64, budget)
    spec = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
    with pytest.raises(ConvergenceError, match="grid points: only the 128-point grid was evaluated"):
        acvf_via_subtraction(spec, 10, Tolerance(max_terms=128))
    residual = r"grid points: the 16384-point grid moved coefficients by \S+ against abs_tol 1e-30 and rounding floor"
    with pytest.raises(ConvergenceError, match=residual):
        acvf_via_subtraction(spec, 10, Tolerance(abs_tol=1e-30, max_terms=1 << 14))


def _fresh_grid_coeffs(density, at_zero, hi, tol, cusp_orders=()):
    # The engine before nested refinement, kept as the bit-for-bit reference:
    # every grid samples the density afresh at k/N, k = 1..N/2, from the
    # smallest power of two N >= 8 (hi + 1).  Returns the coefficients and
    # the size of the grid they were read off.
    orders = sorted(set(cusp_orders))
    n_grid = 1 << int(math.ceil(math.log2(8 * (hi + 1))))
    prev = []
    while True:
        half = np.concatenate(([at_zero], density(np.arange(1, n_grid // 2 + 1, dtype=np.float64) / n_grid)))
        coeff = np.fft.rfft(np.concatenate((half, half[-2:0:-1]))).real / n_grid
        row = [coeff[: hi + 1]]
        for k, p in enumerate(orders[: len(prev)]):
            row.append(row[k] + (row[k] - prev[k]) / (2.0**p - 1.0))
        if prev:
            k = len(prev) - 1
            floor = np.finfo(np.float64).eps * math.log2(n_grid) * float(np.abs(half).mean())
            if k == len(orders) and float(np.max(np.abs(row[k] - prev[k]))) <= max(tol.abs_tol, floor):
                return row[k], n_grid
        prev = row
        n_grid *= 2


def _ratio_case(h):
    spec = FracDiff(HurstParam(h), FARIMA11_DRIVER)
    star = matched_fgn(spec)
    return (lambda x: spectrum(spec, x) / spectrum(star, x)), 1.0, ()


def _driver_case(driver):
    return (lambda x: driver_density(driver, x)), driver_density(driver, 0.0), ()


def _gap_case(spec):
    star = matched_fgn(spec)
    phi0, orders = covariance_engine._gap_at_zero(spec, star.H.H, Tolerance())
    return (lambda x: spectrum(spec, x) - spectrum(star, x)), phi0, orders


# (density on (0, 1/2], its value at 0, cusp orders) and the highest
# coefficient.  The grids start at the smallest power of two >= 8 (hi + 1),
# and each run refines its first grid, the smooth FEXP density once, the
# others two to eight times.
GRID_CASES = {
    "G ratio H=0.55": (lambda: _ratio_case(0.55), 8),
    "G ratio H=0.8": (lambda: _ratio_case(0.8), 8),
    "G ratio H=0.95": (lambda: _ratio_case(0.95), 8),
    "ARMA driver": (lambda: _driver_case(Arma((0.9,), (0.4,))), 16),
    "FEXP driver": (lambda: _driver_case(Fexp((0.5, -0.2))), 16),
    "gap AR(0.9)": (lambda: _gap_case(FracDiff(HurstParam(0.8), Arma((0.9,), ()))), 32),
    "gap with an antipersistent part": (lambda: _gap_case(
        Sum(((FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 1.0), (FracDiff(HurstParam(0.4), WhiteNoise(1.0)), 0.2)))
    ), 32),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_periodic_coeffs_evaluate_each_grid_point_once(case):
    # Each doubling keeps the previous samples and evaluates only the new
    # odd points, so a run ending on an N-point grid asks the density for
    # N/2 points in all, each once; the FFT sees the same doubles as with
    # fresh grids, so the coefficients are bit-identical.
    make, hi = GRID_CASES[case]
    density, at_zero, orders = make()
    asked = []

    def counting(x):
        asked.append(x.copy())
        return density(x)

    tol = Tolerance()
    got = covariance_engine._periodic_coeffs(counting, at_zero, hi, tol, case, orders)
    want, n_final = _fresh_grid_coeffs(density, at_zero, hi, tol, orders)
    assert got.tobytes() == want.tobytes()
    assert len(asked) >= 2, "the run should refine its first grid"
    points = np.sort(np.concatenate(asked))
    assert np.array_equal(points, np.arange(1, n_final // 2 + 1) / n_final)


def test_public_routes_read_the_engine():
    # g_fourier_coeffs and acvf_via_subtraction hand the engine the same
    # densities as the grid cases above.
    density, at_zero, orders = _ratio_case(0.8)
    want, _ = _fresh_grid_coeffs(density, at_zero, 64, Tolerance(), orders)
    assert g_fourier_coeffs(0.8, FARIMA11_DRIVER, 64).values.tobytes() == want.tobytes()
    spec = FracDiff(HurstParam(0.8), Arma((0.9,), ()))
    density, at_zero, orders = _gap_case(spec)
    gap, _ = _fresh_grid_coeffs(density, at_zero, 32, Tolerance(), orders)
    star = matched_fgn(spec)
    want = covariance_engine._fgn_block(star.H.H, star.V, np.arange(33)) + gap
    assert acvf_via_subtraction(spec, 32).values.tobytes() == want.tobytes()


def _density_acvf(spec, n, dps=25, breakpoints=()):
    # gamma(n) = 2 * integral over (0, 1/2] of f(x) cos(2 pi n x) dx, split
    # every half period of the cosine and at the extra breakpoints.
    phi, = spec.driver.ar
    d = mpmath.mpf(spec.H.H) - mpmath.mpf(0.5)
    with mpmath.workdps(dps):
        def f(x):
            h = 1 / abs(1 - phi * mpmath.expjpi(2 * x)) ** 2
            return h * abs(2 * mpmath.sinpi(x)) ** (-2 * d) * mpmath.cospi(2 * n * x)

        nodes = [mpmath.mpf(k) / (2 * n) for k in range(n + 1)] if n else [0, mpmath.mpf(0.5)]
        nodes = sorted(set(nodes) | set(breakpoints))
        return float(2 * mpmath.quad(f, nodes))


def test_antipersistent_arma_driver_against_mpmath_quadrature():
    spec = FracDiff(HurstParam(0.3), Arma((0.5,), ()))
    table = acvf(spec, 100)
    for n in (0, 1, 10, 100):
        want = _density_acvf(spec, n)
        assert table.gamma(n) == pytest.approx(want, rel=1e-14, abs=1e-15)
    assert table.gamma(1) > 0.0 > table.gamma(100)


def test_near_unit_root_driver_against_exact_sum():
    # AR(1) with phi = 0.99: gamma_h(k) = phi^|k| / (1 - phi^2), convolved
    # with the unit FARIMA(0,d,0) autocovariance; phi^6000 < 1e-26.  The
    # driver truncation keeps every lag well inside the budget.
    phi, d, k_top = 0.99, 0.3, 6000
    tol = Tolerance()
    table = acvf(FracDiff(HurstParam(0.5 + d), Arma((phi,), ())), 200)
    with mpmath.workdps(30):
        dd = mpmath.mpf(0.5 + d) - mpmath.mpf(0.5)
        g_f = [mpmath.gamma(1 - 2 * dd) / mpmath.gamma(1 - dd) ** 2]
        for m in range(1, k_top + 201):
            g_f.append(g_f[-1] * (m - 1 + dd) / (m - dd))
        g_h = [mpmath.mpf(phi) ** k / (1 - mpmath.mpf(phi) ** 2) for k in range(k_top + 1)]
        for n in (0, 1, 10, 200):
            want = float(mpmath.fsum(g_h[abs(k)] * g_f[abs(n - k)] for k in range(-k_top, k_top + 1)))
            allowance = max(tol.abs_tol, tol.rel_tol * abs(want))
            assert abs(table.gamma(n) - want) <= 1e-2 * allowance, f"lag {n}"


def test_driver_grid_cap_is_named():
    # |x|^(-1/2) has a singularity at x = 0 that no Richardson step removes,
    # so its coefficients move by about N^(-1/2) at every doubling and the
    # grid never settles before the cap.
    residual = (
        rf"not resolved within {_GRID_CAP} grid points: the {_GRID_CAP}-point grid moved "
        r"coefficients by \S+ against abs_tol 1e-12"
    )
    with pytest.raises(ConvergenceError, match=residual):
        covariance_engine._periodic_coeffs(lambda x: x**-0.5, 0.0, 10, Tolerance(), "singular density")


def test_subtraction_route_scales_with_the_density():
    # The grid stops at the FFT's rounding floor when that exceeds abs_tol,
    # so an innovation variance of 1e6 resolves, scales the unit table and
    # matches the driver convolution to rounding in gamma(0).
    unit = FracDiff(HurstParam(0.8), Arma((0.3,), (0.7,)))
    big = FracDiff(HurstParam(0.8), Arma((0.3,), (0.7,), 1e6))
    got = acvf_via_subtraction(big, 10).values
    np.testing.assert_allclose(got, 1e6 * acvf_via_subtraction(unit, 10).values, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got, acvf(big, 10).values, rtol=0.0, atol=1e-14 * got[0])


def test_driver_autocovariance_scales_with_the_driver():
    # The driver grid stops on a relative test, so scaling the innovation
    # variance by 1e6 scales the table and nothing else.
    unit = acvf(FracDiff(HurstParam(0.8), Arma((0.3,), (0.7,))), 200).values
    big = acvf(FracDiff(HurstParam(0.8), Arma((0.3,), (0.7,), 1e6)), 200).values
    np.testing.assert_allclose(big, 1e6 * unit, rtol=1e-15, atol=0.0)


def _fexp_acvf_oracle(theta, k_top, terms=400):
    # h = |a(e^(2 pi i x))|^2 with a(z) = exp(sum_j theta_j z^j / 2), whose
    # Wold weights obey k a_k = sum_j j theta_j a_(k-j) / 2, and
    # gamma_h(k) = sum_m a_m a_(m+k).
    with mpmath.workdps(40):
        a = [mpmath.mpf(1)]
        for k in range(1, terms):
            a.append(mpmath.fsum(j * mpmath.mpf(t) * a[k - j] for j, t in enumerate(theta, 1) if j <= k) / (2 * k))
        return np.array([float(mpmath.fsum(a[m] * a[m + k] for m in range(terms - k))) for k in range(k_top + 1)])


@pytest.mark.parametrize("theta", [(20.0,), (10.0, -10.0, 10.0)])
def test_wide_fexp_driver_against_wold_weights(theta):
    # Densities spanning e^(+-20) resolve on one grid; every kept lag is
    # within 1e-15 gamma_h(0) of the 40-digit Wold-weight sum.
    gh = covariance_engine._driver_acvf(Fexp(theta), Tolerance())
    want = _fexp_acvf_oracle(theta, len(gh) - 1)
    assert np.max(np.abs(gh - want)) <= 1e-15 * want[0]


def test_near_unit_root_driver_autocovariance_against_closed_form():
    # AR(1) with phi = 0.999: gamma_h(k) = phi^k / (1 - phi^2).  The polyval
    # cancellation of the density near x = 0 leaves about 1e-14 gamma_h(0).
    phi = 0.999
    gh = covariance_engine._driver_acvf(Arma((phi,), ()), Tolerance())
    with mpmath.workdps(40):
        p = mpmath.mpf(phi)
        want = np.array([float(p**k / (1 - p * p)) for k in range(len(gh))])
    assert np.max(np.abs(gh - want)) <= 2e-14 * want[0]


def test_driver_grid_evaluates_each_size_once(monkeypatch):
    # One grid per size from 256 up, nothing restarted: AR(0.99) needs
    # K = 2732 and stops on the 16384-point grid.
    asked = []
    density = covariance_engine.driver_density

    def counting(driver, x):
        asked.append(np.size(x))
        return density(driver, x)

    monkeypatch.setattr(covariance_engine, "driver_density", counting)
    covariance_engine._driver_acvf(Arma((0.99,), ()), Tolerance())
    assert sum(asked) <= 32_768


def test_driver_grid_counts_against_max_terms():
    with pytest.raises(ConvergenceError, match="not resolved within 4096 grid points: the 4096-point grid left"):
        acvf(FracDiff(HurstParam(0.8), Arma((0.99,), ())), 10, Tolerance(max_terms=4096))


def test_subtraction_route_against_closed_form():
    # Fexp with no coefficients is the unit white driver; the closed form
    # is the oracle of the quadrature.
    for H in (0.55, 0.8, 0.95):
        table = acvf_via_subtraction(FracDiff(HurstParam(H), Fexp(())), 1024)
        assert table.route is Route.SPECTRAL_SUBTRACTION
        ref = acvf(FracDiff(HurstParam(H), WhiteNoise(1.0)), 1024).values  # the FARIMA(0,d,0) closed form
        assert float(np.max(np.abs(table.values - ref))) <= 1e-12, f"H = {H}"


def test_subtraction_route_against_mpmath_quadrature():
    # AR(0.9) puts a sharp driver peak on top of the x^(-0.6) pole; the
    # plain trapezoid rule on the density gap does not settle below the grid
    # cap, the Richardson step for its |x|^2.4 cusp does.
    spec = FracDiff(HurstParam(0.8), Arma((0.9,), ()))
    table = acvf_via_subtraction(spec, 10)
    breakpoints = [mpmath.mpf(10) ** -k for k in range(1, 16)]
    for n in (0, 1, 10):
        assert abs(table.gamma(n) - _density_acvf(spec, n, dps=30, breakpoints=breakpoints)) <= 1e-12, f"lag {n}"


@pytest.mark.parametrize(
    "noise",
    [Fgn(HurstParam(0.5), 1.0), FracDiff(HurstParam(0.4), WhiteNoise(1.0)), Fgn(HurstParam(0.3), 1.0)],
    ids=["white", "fd04", "fgn03"],
)
def test_subtraction_route_with_weaker_components(noise):
    # A short-memory component keeps its density at x = 0 in the gap; an
    # antipersistent one adds its own cusp there.
    weight = 0.1 if noise.H.H == 0.5 else 0.2
    spec = Sum(((FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 1.0), (noise, weight)))
    sub = acvf_via_subtraction(spec, 200)
    assert float(np.max(np.abs(sub.values - acvf(spec, 200).values))) <= 1e-12


def test_subtraction_route_rejects_an_unbounded_gap(monkeypatch):
    # A weaker long-memory component leaves phi = f - f* unbounded at 0; the
    # error names it (index and H) before any grid is evaluated.
    def unreachable(*args, **kwargs):
        raise AssertionError("a grid was evaluated")

    monkeypatch.setattr(covariance_engine, "_periodic_coeffs", unreachable)
    message = r"component 1 has weaker long memory \(H = 0\.7\) than the dominating H = 0\.8: .*f - f\* is unbounded at x = 0"
    with pytest.raises(DomainError, match=message):
        acvf_via_subtraction(builtin_experiment(3).perturbed(), 10)
    nested = Sum(((FracDiff(HurstParam(0.8), WhiteNoise()), 1.0), (builtin_experiment(3).perturbed(), 0.5)))
    with pytest.raises(DomainError, match=r"component 1\.1 has weaker long memory \(H = 0\.7\)"):
        acvf_via_subtraction(nested, 10)


def test_convolution_route_against_subtraction():
    # Two independent routes for the same spec are each other's oracle.
    cases = [
        (FARIMA11_DRIVER, 50, 10_000),
        (Arma(ar=(0.5,), ma=(-0.2,), innovation_variance=1.3), 50, 10_000),
    ]
    for drv, n_max, J_max in cases:
        sub = acvf_via_subtraction(FracDiff(HurstParam(0.8), drv), n_max)
        conv = acvf_via_convolution(0.8, drv, n_max, J_max=J_max)
        assert conv.route is Route.CONVOLUTION
        assert float(np.max(np.abs(sub.values - conv.values))) <= 1e-6


def test_convolution_table_extend():
    # A shorter G table passed in by the caller still meets the subtraction route.
    gc = g_fourier_coeffs(0.8, FARIMA11_DRIVER, J_max=2000)
    conv = acvf_via_convolution(0.8, FARIMA11_DRIVER, 30, coeffs=gc)
    sub = acvf_via_subtraction(FracDiff(HurstParam(0.8), FARIMA11_DRIVER), 30)
    assert float(np.max(np.abs(conv.values - sub.values))) <= 1e-6


def test_white_driver_closed_form_dispatch():
    # d = 0 degenerates to white noise, negative d is antipersistent.
    tab = acvf(FracDiff(HurstParam(0.5), WhiteNoise(2.0)), 5)
    assert tab.values[0] == 2.0 and np.all(tab.values[1:] == 0.0)
    anti = acvf(FracDiff(HurstParam(0.4), WhiteNoise(1.0)), 5)
    assert anti.values[0] > 0.0 and anti.values[1] < 0.0
    lrd = acvf(FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 5)
    assert np.allclose(lrd.values, [farima00_acvf(0.3, 1.0, n) for n in range(6)], rtol=1e-14)


def test_srd_arma_against_recursion():
    # ARMA(1,1) autocovariance closed form: gamma_0, gamma_1, then the AR
    # recursion gamma_k = phi gamma_(k-1).
    phi, theta, s2 = 0.3, 0.7, 1.0
    table = acvf(FracDiff(HurstParam(0.5), FARIMA11_DRIVER), 20)
    ref = [s2 * (1 + 2 * phi * theta + theta**2) / (1 - phi**2)]
    ref.append(s2 * (1 + phi * theta) * (phi + theta) / (1 - phi**2))
    for _ in range(2, 21):
        ref.append(phi * ref[-1])
    assert np.allclose(table.values, ref, atol=1e-10)


def test_sum_additivity():
    x1 = FracDiff(HurstParam(0.8), WhiteNoise(0.7596151734696079))
    w = Fgn(HurstParam(0.5), 1.0)
    z1 = Sum(((x1, 1.0), (w, 0.1)))
    t_z = acvf(z1, 30)
    t_x = acvf(x1, 30)
    want = t_x.values.copy()
    want[0] += 0.1
    assert np.allclose(t_z.values, want, rtol=1e-14, atol=1e-16)


def test_sum_table_weights_components_built_once(monkeypatch):
    z = Sum(((FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1)))
    want = acvf(z.components[0][0], 50).values + 0.1 * acvf(z.components[1][0], 50).values
    calls = []
    build = covariance_engine.acvf

    def counted(spec, n_max, tol=Tolerance()):
        calls.append((spec, n_max))
        return build(spec, n_max, tol)

    monkeypatch.setattr(covariance_engine, "acvf", counted)
    tab = covariance_engine.acvf(z, 50)
    assert calls == [(z, 50)] + [(c, 50) for c, _ in z.components]
    assert tab.route is Route.SUM_OF_COMPONENTS
    assert np.array_equal(tab.values, want)


def test_inner_spectrum_tolerance_keeps_the_callers_budget(monkeypatch):
    # The engine hands spectrum the caller's Tolerance unchanged.
    seen = []
    evaluate = covariance_engine.spectrum

    def spy(spec, x, tol):
        seen.append(tol)
        return evaluate(spec, x, tol)

    monkeypatch.setattr(covariance_engine, "spectrum", spy)
    budget = Tolerance(max_terms=1_000_000)
    g_fourier_coeffs(0.8, FARIMA11_DRIVER, J_max=64, tol=budget)
    acvf_via_subtraction(FracDiff(HurstParam(0.8), FARIMA11_DRIVER), 4, budget)
    assert seen
    assert all(t is budget for t in seen)


def test_positive_semidefinite_at_desk_scale():
    specs = [
        Fgn(HurstParam(0.8), 1.0),
        FracDiff(HurstParam(0.8), WhiteNoise(1.0)),
        FracDiff(HurstParam(0.8), FARIMA11_DRIVER),
        FracDiff(HurstParam(0.5), FARIMA11_DRIVER),
        Sum(((FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1))),
    ]
    for spec in specs:
        vals = acvf(spec, 63).values
        eigen = scipy.linalg.eigvalsh(scipy.linalg.toeplitz(vals))
        assert float(eigen.min()) >= -1e-8 * vals[0]


def test_lrd_positivity_of_lags():
    for tab in (acvf(Fgn(HurstParam(0.8), 1.0), 100), acvf(FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 100)):
        assert np.all(tab.values > 0.0)
        assert np.all(np.abs(tab.values[1:]) <= tab.values[0])


def test_difference_to_matched_fgn_decays_like_power():
    # |gamma_H(n) - gamma*_H(n)| shrinks like n^(2H-4): the scaled gap is
    # flat to 10% across a decade.
    star = matched_fgn(FracDiff(HurstParam(0.8), WhiteNoise(1.0)))
    scaled = []
    for n in (1000, 2154, 4642, 10_000):
        gap = farima00_acvf(0.3, 1.0, n) - fgn_acvf(star.H, star.V, n)
        scaled.append(n**2.4 * abs(gap))
    assert max(scaled) / min(scaled) - 1.0 < 0.10


def test_taylor_series_reproduces_fgn_acvf():
    # gamma(n) = V sum_j c_j n^(2H - 2j), c_j the even binomial(2H, 2j)
    # weights; 30 terms reach 1e-12 down to n = 2.
    h, v = 0.8, 1.0
    a = 2.0 * h
    coeffs = []
    for j in range(1, 31):
        prod = 1.0
        for i in range(2 * j):
            prod *= a - i
        coeffs.append(prod / math.factorial(2 * j))
    for n in range(2, 101):
        total = math.fsum(cj * float(n) ** (a - 2 * j) for j, cj in enumerate(coeffs, start=1))
        assert v * total == pytest.approx(fgn_acvf(h, v, n), abs=1e-12)


def test_table_symmetry_and_coverage():
    tab = acvf(Fgn(HurstParam(0.8), 1.0), 16)
    assert tab.n_max == 16
    assert tab.gamma(-7) == tab.gamma(7)
    with pytest.raises(CoverageError, match="17"):
        tab.gamma(17)
    with pytest.raises(DomainError, match="integer"):
        tab.gamma(2.5)
    with pytest.raises(ValueError):
        tab.values[0] = 0.0  # read-only cache


def test_convolution_matches_term_by_term_sum():
    # gamma(n) = sum over |j| <= J of G_j gamma*(n - j), summed in a loop;
    # the vectorised route may differ by rounding in its summation order.
    gc = g_fourier_coeffs(0.8, FARIMA11_DRIVER, J_max=64)
    conv = acvf_via_convolution(0.8, FARIMA11_DRIVER, 30, coeffs=gc)
    star = matched_fgn(FracDiff(HurstParam(0.8), FARIMA11_DRIVER))
    for n in range(31):
        terms = [gc.G(j) * fgn_acvf(star.H, star.V, abs(n - j)) for j in range(-64, 65)]
        bound = len(terms) * np.finfo(float).eps * math.fsum(abs(t) for t in terms)
        assert abs(conv.gamma(n) - math.fsum(terms)) <= bound
