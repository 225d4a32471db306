"""Kernel-level special functions against frozen high-precision values.

Oracle values were computed with mpmath at 40 decimal digits (log-gamma,
the spectral constant, fractional differencing weights via the gamma-ratio
closed form, and the lattice sum via Hurwitz zeta) and frozen here.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from helpers import ulp_error
from lrdlab.errors import ConvergenceError, DomainError
from lrdlab.kernel_special import (
    HurstParam,
    Tolerance,
    _gamma_ratio,
    _lattice_tail_bound,
    _lattice_tail_coeffs,
    _trigamma,
    c_of_H,
    fgn_lattice_sum,
    frac_diff_coeffs,
)

C_ORACLE = {
    0.6: 0.16677471495612405693,
    0.75: 0.14960335515053725423,
    0.8: 0.13373984546548752074,
    0.9: 0.082452469409151362449,
}

# psi_j = Gamma(j - d) / (Gamma(-d) Gamma(j + 1)), the (1 - B)^d weights
PSI_ORACLE = {
    (-0.3, 1): 0.3,
    (-0.3, 2): 0.195,
    (-0.3, 5): 0.10607025,
    (-0.3, 50): 0.021572911058049805461,
    (-0.3, 100): 0.013293663028481409014,
    (-0.3, 400): 0.0050413280910318061043,
    (-0.3, 768): 0.0031936604656905491151,
    (-0.3, 1000): 0.0026549440522692217025,
    (0.3, 1): -0.3,
    (0.3, 2): -0.105,
    (0.3, 5): -0.02972025,
    (0.3, 50): -0.0014350593720515521903,
    (0.3, 100): -0.00058167069881579957474,
    (0.3, 400): -0.000095799208320459581944,
    (0.3, 768): -0.000041017460768735451659,
    (0.3, 1000): -0.000029101324728067146643,
}

# S(x) = (2 pi)^(-s) (zeta(s, x) + zeta(s, 1 - x)), s = 2H + 1
LATTICE_ORACLE = {
    (0.25, 0.8): 0.33695839488634343918,
    (0.5, 0.8): 0.11115481691346673201,
    (0.0001, 0.8): 211218688.81264464125,
    (0.5, 0.6): 0.1879545343476045878,
    (0.037, 0.9): 59.461828778470051379,
    (0.31, 0.51): 0.35770470565100334607,
}


def test_c_of_h_matches_oracle():
    for h, want in C_ORACLE.items():
        assert c_of_H(h) == pytest.approx(want, rel=1e-14)
        assert c_of_H(HurstParam(h)) == pytest.approx(want, rel=1e-14)
    # Closed form at the white-noise point.
    assert c_of_H(0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)


def test_gamma_ratios_within_1_ulp_of_mpmath():
    # The ratios behind gamma(0), V and C(H), with arguments formed in
    # extended precision as the library forms them.
    with mpmath.workdps(40):
        for d in np.linspace(-0.49, 0.49, 197):
            dl, dm = np.longdouble(d), mpmath.mpf(float(d))
            g0 = _gamma_ratio([1 - 2 * dl], [1 - dl, 1 - dl])
            assert ulp_error(g0, mpmath.gamma(1 - 2 * dm) / mpmath.gamma(1 - dm) ** 2) <= 1.0, d
            v = _gamma_ratio([1 - 2 * dl], [1 + dl, 1 - dl])
            assert ulp_error(v, mpmath.gamma(1 - 2 * dm) / (mpmath.gamma(1 + dm) * mpmath.gamma(1 - dm))) <= 1.0, d
        for h in np.linspace(0.005, 0.995, 199):
            hm = mpmath.mpf(float(h))
            assert ulp_error(_gamma_ratio([2.0 * h], []), mpmath.gamma(2 * hm)) <= 1.0, h
            assert ulp_error(_gamma_ratio([], [2.0 * h]), 1 / mpmath.gamma(2 * hm)) <= 1.0, h
            want = mpmath.gamma(2 * hm) * mpmath.sinpi(hm) * hm / mpmath.pi
            assert ulp_error(c_of_H(float(h)), want) <= 1.0, h


def test_trigamma_within_1_ulp_of_mpmath():
    # 2049 = J + 1 for the G-sum tail; the others exercise the recurrence.
    with mpmath.workdps(40):
        for x in (2049, 2048.5, 20, 19.75, 3.7, 1, 0.5, 1e-3):
            assert ulp_error(_trigamma(x), mpmath.psi(1, mpmath.mpf(x))) <= 1.0, x


def test_c_of_h_positive_and_continuous():
    for h in np.linspace(1e-3, 1.0 - 1e-6, 53):
        assert c_of_H(float(h)) > 0.0
    for h in np.linspace(0.55, 0.95, 41):
        assert abs(c_of_H(float(h) + 1e-6) - c_of_H(float(h))) <= 1e-4


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.8, math.nan])
def test_c_of_h_domain(bad):
    with pytest.raises(DomainError):
        c_of_H(bad)


@pytest.mark.parametrize("bad", [0.0, 1.5, -0.8, math.nan])
def test_hurst_param_domain(bad):
    with pytest.raises(DomainError):
        HurstParam(bad)


def test_hurst_param_band_and_d():
    assert HurstParam(0.8).d == pytest.approx(0.3, abs=1e-15)
    assert HurstParam(0.8).is_lrd
    # Boundary values are representable; long-range dependence is a flag.
    assert not HurstParam(0.5).is_lrd
    assert HurstParam(1.0).H == 1.0


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(abs_tol=0.0)
    with pytest.raises(DomainError):
        Tolerance(rel_tol=-1e-9)
    with pytest.raises(DomainError):
        Tolerance(max_terms=0)


def test_frac_diff_coeffs_matches_gamma_ratio():
    # Frozen 40-digit gamma-ratio values at lags up to 1000: the recursion
    # must track the closed form to 1e-12 relative across the whole range.
    for d in (0.3, -0.3):
        psi = frac_diff_coeffs(d, 1000)
        assert psi[0] == 1.0
        for (dd, j), want in PSI_ORACLE.items():
            if dd == d:
                assert psi[j] == pytest.approx(want, rel=1e-12)
    # Float-precision gamma-ratio route for d < 0 as a dense cross-check
    # (the gammaln difference itself carries a few e-13 of noise).
    d = -0.3
    psi = frac_diff_coeffs(d, 1000)
    j = np.arange(1, 1001, dtype=np.float64)
    want = np.exp(
        scipy.special.gammaln(j - d) - scipy.special.gammaln(-d) - scipy.special.gammaln(j + 1)
    )
    assert np.allclose(psi[1:], want, rtol=5e-12, atol=0.0)


def test_frac_diff_coeffs_degenerate_and_signs():
    psi = frac_diff_coeffs(0.0, 10)
    assert psi[0] == 1.0
    assert np.all(psi[1:] == 0.0)
    # (1-B)^d with d > 0 differences: psi_j < 0 for j >= 1; with d < 0 it
    # integrates: all weights positive.
    assert np.all(frac_diff_coeffs(0.3, 50)[1:] < 0.0)
    assert np.all(frac_diff_coeffs(-0.3, 50) > 0.0)


@pytest.mark.parametrize("bad_d", [0.5, -1.0, 0.7, math.nan])
def test_frac_diff_coeffs_domain(bad_d):
    with pytest.raises(DomainError):
        frac_diff_coeffs(bad_d, 5)


def test_frac_diff_coeffs_negative_length():
    with pytest.raises(DomainError):
        frac_diff_coeffs(0.3, -1)


def test_frac_diff_coeffs_oversized_length():
    # Refused before the 8 TiB array is allocated.
    with pytest.raises(DomainError, match=r"n_max 1099511627776 is beyond the array limit 2\^28"):
        frac_diff_coeffs(0.3, 2**40)


def test_lattice_sum_matches_hurwitz_oracle():
    for (x, h), want in LATTICE_ORACLE.items():
        got = fgn_lattice_sum(x, h, Tolerance(abs_tol=1e-14))
        assert got == pytest.approx(want, rel=2e-14)
        assert fgn_lattice_sum(-x, h) == pytest.approx(want, rel=2e-14)


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(abs_tol=1e-14)])
def test_lattice_sum_within_2e14_of_mpmath_hurwitz_zeta(tol):
    # (2 pi)^(-s) (zeta(s, |x|) + zeta(s, 1 - |x|)) at 40 digits, over the
    # whole Hurst range and x from the singularity out to the edge.
    xs = np.concatenate((np.geomspace(1e-6, 0.5, 25), [-0.5, -0.01]))
    with mpmath.workdps(40):
        for h in (0.02, 0.1, 0.3, 0.5, 0.55, 0.75, 0.9, 1.0):
            s = mpmath.mpf(2.0 * h + 1.0)
            got = fgn_lattice_sum(xs, h, tol)
            for x, g in zip(xs, got):
                a = mpmath.mpf(abs(float(x)))
                want = (2 * mpmath.pi) ** (-s) * (mpmath.zeta(s, a) + mpmath.zeta(s, 1 - a))
                assert abs(g - want) <= 2e-14 * want, (h, x)


def test_lattice_sum_against_scipy_hurwitz_zeta():
    # Independent route: zeta(s, x) + zeta(s, 1 - x), scaled.
    for h in (0.6, 0.8, 0.95):
        s = 2.0 * h + 1.0
        for x in (0.01, 0.125, 0.5):
            want = (2.0 * math.pi) ** (-s) * (
                scipy.special.zeta(s, x) + scipy.special.zeta(s, 1.0 - x)
            )
            assert fgn_lattice_sum(x, h) == pytest.approx(want, rel=1e-12)


def test_lattice_sum_against_brute_force_partial_sum():
    # Raw truncated sum with a crude integral tail; agreement to the tail's
    # own accuracy confirms the accelerated version sums the same series.
    h, x = 0.8, 0.2
    s = 2.0 * h + 1.0
    j = np.arange(1, 200_001, dtype=np.float64)
    brute = abs(x) ** (-s) + np.sum((j + x) ** (-s) + (j - x) ** (-s))
    brute += 2.0 * 200_001.0 ** (1.0 - s) / (s - 1.0)
    brute *= (2.0 * math.pi) ** (-s)
    assert fgn_lattice_sum(x, h) == pytest.approx(brute, rel=1e-8)


def test_lattice_sum_closed_form_at_half():
    # s = 2 gives sum_j (j + x)^(-2) = pi^2 / sin^2(pi x), so the scaled sum
    # collapses to 1 / (4 sin^2(pi x)).
    for x in (0.08, 0.25, 0.41, 0.5):
        want = 0.25 / math.sin(math.pi * x) ** 2
        assert fgn_lattice_sum(x, 0.5, Tolerance(abs_tol=1e-13)) == pytest.approx(want, rel=1e-12)


def test_lattice_sum_array_and_scalar_agree():
    xs = np.array([-0.5, -0.1, 0.003, 0.25, 0.5])
    arr = fgn_lattice_sum(xs, 0.8)
    assert isinstance(arr, np.ndarray) and arr.shape == xs.shape
    for xi, vi in zip(xs, arr):
        assert fgn_lattice_sum(float(xi), 0.8) == float(vi)
    assert isinstance(fgn_lattice_sum(0.25, 0.8), float)
    # J = 16 here, where a one-point broadcast used to be summed pairwise.
    tight = Tolerance(abs_tol=1e-14)
    xs = np.linspace(0.01, 0.5, 50)
    arr = fgn_lattice_sum(xs, 0.1, tight)
    assert [fgn_lattice_sum(float(xi), 0.1, tight) for xi in xs] == arr.tolist()


def _broadcast_lattice_sum(xa, h, tol):
    # The lattice sum as one (J - 1) x n broadcast, summed over j by numpy
    # and followed by the same tails; kept as the bit-for-bit reference.
    s = 2.0 * h + 1.0
    pref = (2.0 * math.pi) ** (-s)
    J = 8
    while pref * _lattice_tail_bound(float(J), s) > tol.abs_tol:
        J *= 2
    tail = _lattice_tail_coeffs(s)[5::-1]
    j = np.arange(1, J, dtype=np.float64)[:, None]
    core = np.abs(xa) ** (-s) + np.sum((j + xa) ** (-s) + (j - xa) ** (-s), axis=0)
    for c in (xa, -xa):
        base = J + c
        u = 1.0 / (base * base)
        poly = tail[0]
        for a in tail[1:]:
            poly = poly * u + a
        core = core + base ** (-s) * (base / (s - 1.0) + 0.5 + poly / base)
    return pref * core


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(abs_tol=1e-14)], ids=["default", "1e-14"])
def test_lattice_sum_bit_identical_to_the_broadcast_sum(tol):
    # Summing the pairs in place, in the same order, changes no bit.  numpy
    # reduces a (J - 1) x n array over its rows one row at a time when
    # n >= 2, so the reference runs on arrays of two points and more.
    rng = np.random.default_rng(16)
    for h in (0.02, 0.21, 0.5, 0.55, 0.8, 0.95, 1.0):
        for n in (2, 7, 1000, 4097):
            xs = rng.uniform(-0.5, 0.5, n)
            xs[:2] = (0.5, -0.5)
            got = fgn_lattice_sum(xs, h, tol)
            assert got.tobytes() == _broadcast_lattice_sum(xs, h, tol).tobytes(), (h, n)


def test_lattice_sum_domain_and_budget():
    with pytest.raises(DomainError):
        fgn_lattice_sum(0.0, 0.8)
    with pytest.raises(DomainError):
        fgn_lattice_sum(0.6, 0.8)
    with pytest.raises(ConvergenceError):
        fgn_lattice_sum(0.25, 0.51, Tolerance(abs_tol=1e-30, max_terms=16))
