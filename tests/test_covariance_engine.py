"""Covariance routes against frozen oracles and against each other.

fGn values were frozen from a 60-digit evaluation of the closed form
(including n = 10^6, where double-precision direct differencing fails);
G coefficients were frozen from two independent measurements (FFT grid
quadrature and adaptive integration of g(x) cos(2 pi j x)).  Route
agreement tests treat the closed forms as oracles for the quadrature and
convolution paths.
"""

import concurrent.futures
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from lrdlab.errors import ConvergenceError, CoverageError, DomainError
from lrdlab.kernel_special import HurstParam, Tolerance
from lrdlab import covariance_engine
from lrdlab.covariance_engine import (
    AcvfTable,
    GCoeffs,
    Route,
    acvf,
    acvf_via_convolution,
    farima00_acvf,
    fgn_acvf,
    g_fourier_coeffs,
)
from lrdlab.process_model import Arma, Fexp, Fgn, FracDiff, Sum, WhiteNoise, matched_fgn

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


def test_route_selection():
    assert acvf(Fgn(HurstParam(0.8), 1.0), 4).route is Route.CLOSED_FORM
    assert acvf(FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 4).route is Route.CLOSED_FORM
    assert acvf(FracDiff(HurstParam(0.8), Fexp(())), 4).route is Route.SPECTRAL_SUBTRACTION
    assert acvf(FracDiff(HurstParam(0.5), FARIMA11_DRIVER), 4).route is Route.SPECTRAL_SUBTRACTION
    z = Sum(((Fgn(HurstParam(0.8), 1.0), 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1)))
    assert acvf(z, 4).route is Route.SUM_OF_COMPONENTS
    with pytest.raises(DomainError):
        acvf(FracDiff(HurstParam(0.4), FARIMA11_DRIVER), 4)
    with pytest.raises(DomainError):
        acvf(Fgn(HurstParam(0.8), 1.0), -1)


def test_periodic_coefficient_grids_count_against_max_terms():
    # Both FFT-grid routes count grid points against the work budget.
    budget = Tolerance(max_terms=1)
    with pytest.raises(ConvergenceError, match="grid points"):
        acvf(FracDiff(HurstParam(0.5), Arma((0.95,), ())), 5000, budget)
    with pytest.raises(ConvergenceError, match="grid points"):
        g_fourier_coeffs(0.8, Arma((0.3,), (0.7,)), 64, budget)


def test_subtraction_route_against_closed_form():
    # Fexp with no coefficients is the unit white driver, but dispatches to
    # the quadrature route; the closed form is its oracle.
    table = acvf(FracDiff(HurstParam(0.8), Fexp(())), 200)
    assert table.route is Route.SPECTRAL_SUBTRACTION
    ref = np.array([farima00_acvf(0.3, 1.0, n) for n in range(201)])
    assert float(np.max(np.abs(table.values - ref))) <= 1e-8


def test_convolution_route_against_subtraction():
    # Two independent routes for the same spec are each other's oracle.
    drivers = [FARIMA11_DRIVER, Arma(ar=(0.5,), ma=(-0.2,), innovation_variance=1.3)]
    for drv in drivers:
        sub = acvf(FracDiff(HurstParam(0.8), drv), 50)
        conv = acvf_via_convolution(0.8, drv, 50)
        assert conv.route is Route.CONVOLUTION
        assert float(np.max(np.abs(sub.values - conv.values))) <= 1e-6


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


def test_sum_extend_grows_its_component_tables(monkeypatch):
    z = Sum(((FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1)))
    tab = acvf(z, 20)
    parts = tab.components
    assert [p.spec for p in parts] == [c for c, _ in z.components]
    assert all(p.n_max == 20 for p in parts)

    def no_rebuild(*args, **kwargs):
        raise AssertionError("extend must not rebuild a component table")

    monkeypatch.setattr(covariance_engine, "acvf", no_rebuild)
    tab.extend(50)
    assert tab.components is parts
    assert all(p.n_max == 50 for p in parts)
    assert np.array_equal(tab.values, parts[0].values + 0.1 * parts[1].values)
    assert acvf(FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 5).components == ()


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
    with pytest.raises(ValueError):
        tab.values[0] = 0.0  # read-only cache


def test_table_extend_preserves_prefix():
    for spec in (Fgn(HurstParam(0.8), 1.0), FracDiff(HurstParam(0.8), Fexp((0.2,)))):
        tab = acvf(spec, 40)
        before = tab.values.copy()
        assert tab.extend(80) is tab
        assert tab.n_max == 80
        assert np.array_equal(tab.values[:41], before)
        fresh = acvf(spec, 80)
        assert np.allclose(tab.values, fresh.values, rtol=0.0, atol=1e-12)
        # Shrinking is a no-op.
        tab.extend(10)
        assert tab.n_max == 80


def test_table_concurrent_extend_and_read():
    tab = acvf(FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 64)
    targets = [128, 256, 192, 512, 384]

    def grow(n):
        tab.extend(n)
        return tab.gamma(min(n, 64))

    with concurrent.futures.ThreadPoolExecutor(max_workers=5) as pool:
        list(pool.map(grow, targets))
    assert tab.n_max == 512
    ref = acvf(FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 512)
    assert np.array_equal(tab.values, ref.values)


def test_convolution_matches_term_by_term_sum():
    # gamma(n) = sum over |j| <= J of G_j gamma*(n - j), summed in a loop;
    # the vectorised route may differ by rounding in its summation order.
    gc = g_fourier_coeffs(0.8, FARIMA11_DRIVER, J_max=64)
    conv = acvf_via_convolution(0.8, FARIMA11_DRIVER, 10, coeffs=gc).extend(30)
    star = matched_fgn(FracDiff(HurstParam(0.8), FARIMA11_DRIVER))
    for n in range(31):
        terms = [gc.G(j) * fgn_acvf(star.H, star.V, abs(n - j)) for j in range(-64, 65)]
        bound = len(terms) * np.finfo(float).eps * math.fsum(abs(t) for t in terms)
        assert abs(conv.gamma(n) - math.fsum(terms)) <= bound


def test_convolution_table_extend():
    gc = g_fourier_coeffs(0.8, FARIMA11_DRIVER, J_max=2000)
    conv = acvf_via_convolution(0.8, FARIMA11_DRIVER, 10, coeffs=gc)
    conv.extend(30)
    sub = acvf(FracDiff(HurstParam(0.8), FARIMA11_DRIVER), 30)
    assert float(np.max(np.abs(conv.values - sub.values))) <= 1e-6
