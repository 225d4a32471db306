"""Process specs, spectral densities, prefactors and fGn matching.

Closed-form oracles are restated inline (polynomial evaluation at z = 1,
exact exponent identities, gamma-function variance of the fractionally
differenced white noise); the spectral convention is pinned by integrating
densities back to their known variances with adaptive quadrature.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from helpers import ulp_error
from lrdlab.errors import DomainError
from lrdlab.kernel_special import HurstParam, Tolerance
from lrdlab.process_model import (
    Arma,
    Fexp,
    Fgn,
    FracDiff,
    Sum,
    WhiteNoise,
    dominating_hurst,
    driver_density,
    matched_fgn,
    prefactor,
    spec_from_json,
    spec_to_json,
    spectrum,
)

# Driver variance making FARIMA(0, 0.3, 0) have unit variance:
# gamma(0) = sigma^2 Gamma(1 - 2d) / Gamma(1 - d)^2 with d = 0.3.
UNIT_FARIMA03_SIGMA2 = math.gamma(0.7) ** 2 / math.gamma(0.4)


def test_white_noise_density_flat():
    for x in (-0.5, -0.123, 0.0, 0.25, 0.5):
        assert driver_density(WhiteNoise(1.0), x) == 1.0
    assert driver_density(WhiteNoise(2.5), 0.3) == 2.5


def test_arma_density_at_zero():
    s = Arma(ar=(0.3,), ma=(0.7,), innovation_variance=1.0)
    want = (1.0 + 0.7) ** 2 / (1.0 - 0.3) ** 2
    assert driver_density(s, 0.0) == pytest.approx(want, rel=1e-14)


def test_arma_density_matches_direct_complex_evaluation():
    s = Arma(ar=(0.5, -0.2), ma=(0.4,), innovation_variance=1.7)
    for x in (-0.4, -0.01, 0.07, 0.33, 0.5):
        z = complex(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x))
        num = 1.0 + 0.4 * z
        den = 1.0 - 0.5 * z + 0.2 * z * z
        want = 1.7 * abs(num) ** 2 / abs(den) ** 2
        assert driver_density(s, x) == pytest.approx(want, rel=1e-13)


def test_fexp_density():
    for x in (-0.5, 0.0, 0.11, 0.5):
        assert driver_density(Fexp(()), x) == 1.0
        assert driver_density(Fexp((0.0,)), x) == pytest.approx(1.0, abs=1e-15)
        want = math.exp(0.5 * math.cos(2 * math.pi * x) - 0.2 * math.cos(4 * math.pi * x))
        assert driver_density(Fexp((0.5, -0.2)), x) == pytest.approx(want, rel=1e-14)


def test_arma_root_conditions():
    with pytest.raises(DomainError):
        Arma(ar=(1.0,))  # unit root
    with pytest.raises(DomainError):
        Arma(ar=(1.5,))  # explosive
    with pytest.raises(DomainError):
        Arma(ma=(-1.0,))  # non-invertible
    with pytest.raises(DomainError):
        Arma(ar=(1.0 / (1.0 + 5e-10),))  # inside the 1e-9 margin
    # Just outside the margin is accepted.
    Arma(ar=(1.0 / 1.001,), ma=(0.999,))
    # Complex root pair with modulus sqrt(1/0.85) > 1.
    Arma(ar=(1.4, -0.85))


def test_driver_validation():
    with pytest.raises(DomainError):
        WhiteNoise(0.0)
    with pytest.raises(DomainError):
        WhiteNoise(-1.0)
    with pytest.raises(DomainError):
        Arma(innovation_variance=0.0)
    with pytest.raises(DomainError):
        Fexp((math.inf,))
    with pytest.raises(DomainError):
        driver_density(WhiteNoise(1.0), 0.6)


def test_fgn_half_is_white():
    spec = Fgn(HurstParam(0.5), 1.0)
    for x in (0.0, 1e-4, 0.1, 0.25, 0.5):
        assert spectrum(spec, x) == pytest.approx(1.0, abs=1e-10)


def test_fracdiff_white_closed_form():
    spec = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
    assert spectrum(spec, 0.25) == pytest.approx(2.0 ** (-0.3), rel=1e-13)
    # |2 sin(pi x)|^(-0.6) at a second point.
    x = 0.1
    assert spectrum(spec, x) == pytest.approx(abs(2 * math.sin(math.pi * x)) ** (-0.6), rel=1e-13)


def test_sum_additivity_pointwise():
    x1 = FracDiff(HurstParam(0.8), WhiteNoise(UNIT_FARIMA03_SIGMA2))
    w = Fgn(HurstParam(0.5), 1.0)
    z1 = Sum(((x1, 1.0), (w, 0.1)))
    for x in (-0.47, -0.2, 1e-3, 0.25, 0.5):
        want = spectrum(x1, x) + 0.1 * spectrum(w, x)
        assert spectrum(z1, x) == pytest.approx(want, rel=1e-12)


def test_spectrum_even_positive_random_points():
    rng = np.random.default_rng(20260816)
    xs = rng.uniform(1e-6, 0.5, size=100)
    specs = [
        Fgn(HurstParam(0.8), 1.3),
        FracDiff(HurstParam(0.7), Arma(ar=(0.3,), ma=(0.7,))),
        FracDiff(HurstParam(0.9), Fexp((0.4, 0.1))),
        Sum(((Fgn(HurstParam(0.8), 1.0), 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1))),
    ]
    for spec in specs:
        fp = spectrum(spec, xs)
        fm = spectrum(spec, -xs)
        assert np.all(fp > 0.0)
        assert np.allclose(fp, fm, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("h", [0.55, 0.8, 0.95])
def test_fgn_spectrum_within_2e14_of_mpmath(h):
    # The fGn density in cycles, f(x) = V sin(pi H) Gamma(2H+1) 4 sin^2(pi x)
    # sum_j |2 pi (j + x)|^(-2H-1) (Sinai 1976), with the lattice sum as two
    # Hurwitz zetas, at 40 digits on the CLI's default grid.
    v = 2.5
    xs = np.geomspace(1e-4, 0.5, 200)
    got = spectrum(Fgn(HurstParam(h), v), xs)
    with mpmath.workdps(40):
        hm = mpmath.mpf(h)
        s = 2 * hm + 1
        c = v * mpmath.sin(mpmath.pi * hm) * mpmath.gamma(s) * 4 * (2 * mpmath.pi) ** (-s)
        for x, g in zip(xs, got):
            xm = mpmath.mpf(float(x))
            want = c * mpmath.sin(mpmath.pi * xm) ** 2 * (mpmath.zeta(s, xm) + mpmath.zeta(s, 1 - xm))
            assert abs(g - want) <= 2e-14 * want, x


def test_spectrum_domain_errors():
    lrd = Fgn(HurstParam(0.8), 1.0)
    with pytest.raises(DomainError):
        spectrum(lrd, 0.0)
    with pytest.raises(DomainError):
        spectrum(FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 0.0)
    with pytest.raises(DomainError):
        spectrum(lrd, 0.51)
    # Short-range specs evaluate at 0.
    assert spectrum(FracDiff(HurstParam(0.5), WhiteNoise(2.0)), 0.0) == 2.0


def test_spectrum_integrates_to_variance():
    # Pins the frequency convention: integral of f over [-1/2, 1/2] is the
    # variance.  Endpoint singularity x^(1 - 2H) is integrable; QUADPACK
    # extrapolation handles it.
    star = Fgn(HurstParam(0.8), 1.7)
    val, err = scipy.integrate.quad(lambda x: spectrum(star, x, Tolerance(abs_tol=1e-13)), 0.0, 0.5, limit=400)
    assert 2.0 * val == pytest.approx(1.7, rel=1e-8)

    fd = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
    val, _ = scipy.integrate.quad(lambda x: spectrum(fd, x), 0.0, 0.5, limit=400)
    want = math.gamma(0.4) / math.gamma(0.7) ** 2
    assert 2.0 * val == pytest.approx(want, rel=1e-8)


def test_prefactor_fgn_closed_form():
    # c_f* = V (2 pi)^(2 - 2H) C(H), C(0.8) frozen from a 40-digit run.
    want = 1.0 * (2 * math.pi) ** 0.4 * 0.13373984546548752074
    assert prefactor(Fgn(HurstParam(0.8), 1.0)) == pytest.approx(want, rel=1e-13)


def test_prefactor_is_the_low_frequency_limit():
    spec = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
    x = 1e-6
    limit = x**0.6 * spectrum(spec, x)
    assert prefactor(spec) == pytest.approx(limit, rel=1e-4)
    # Same limit for the matched fGn (that is the point of matching).
    star = matched_fgn(spec)
    assert x**0.6 * spectrum(star, x) == pytest.approx(prefactor(spec), rel=1e-4)


def test_prefactor_sum_ignores_dominated_components():
    x1 = FracDiff(HurstParam(0.8), WhiteNoise(UNIT_FARIMA03_SIGMA2))
    z1 = Sum(((x1, 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1)))
    assert prefactor(z1) == pytest.approx(prefactor(x1), rel=1e-14)
    # Weight scales the prefactor of the dominating component.
    z2 = Sum(((x1, 2.0),))
    assert prefactor(z2) == pytest.approx(2.0 * prefactor(x1), rel=1e-14)
    with pytest.raises(DomainError):
        prefactor(Fgn(HurstParam(0.5), 1.0))


def test_matched_fgn_idempotent_and_srd_rejected():
    g = Fgn(HurstParam(0.8), 1.23)
    assert matched_fgn(g) is g
    with pytest.raises(DomainError):
        matched_fgn(Fgn(HurstParam(0.5), 1.0))
    with pytest.raises(DomainError):
        matched_fgn(FracDiff(HurstParam(0.5), WhiteNoise(1.0)))


def test_matched_fgn_density_ratio_tends_to_one():
    spec = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
    star = matched_fgn(spec)
    assert star.H.H == 0.8
    g_vals = [spectrum(spec, x) / spectrum(star, x) for x in (1e-3, 1e-4, 1e-5)]
    # Monotone approach to 1 and the pinned closeness at 1e-5.
    assert abs(g_vals[2] - 1.0) <= 1e-3
    assert abs(g_vals[2] - 1.0) < abs(g_vals[1] - 1.0) < abs(g_vals[0] - 1.0)


def test_matched_fgn_shared_fixed_point():
    # Adding a white perturbation must not move the matched fGn.
    x1 = FracDiff(HurstParam(0.8), WhiteNoise(UNIT_FARIMA03_SIGMA2))
    z1 = Sum(((x1, 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1)))
    a, b = matched_fgn(x1), matched_fgn(z1)
    assert a.H == b.H
    assert a.V == b.V


def test_matched_v_within_1_ulp_of_exact():
    # V = h(0) / (2 pi C(H)), C(H) = Gamma(2H) sin(pi H) H / pi, at the
    # stored H and h(0).
    drivers = (WhiteNoise(1.0), WhiteNoise(2.5), Arma((0.5,), (0.3,)), Fexp((0.4, -0.2)))
    with mpmath.workdps(40):
        for h in np.linspace(0.505, 0.995, 99):
            hm = mpmath.mpf(float(h))
            c = mpmath.gamma(2 * hm) * mpmath.sinpi(hm) * hm / mpmath.pi
            for drv in drivers:
                want = mpmath.mpf(driver_density(drv, 0.0)) / (2 * mpmath.pi * c)
                assert ulp_error(matched_fgn(FracDiff(HurstParam(h), drv)).V, want) <= 1.0, (h, drv)


def test_matched_v_keeps_fgn_component_v():
    top = Fgn(HurstParam(0.8), 1.23)
    z = Sum(((top, 1.0), (FracDiff(HurstParam(0.6), WhiteNoise(1.0)), 0.5)))
    assert matched_fgn(z).V == 1.23
    both = Sum(((top, 2.0), (FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 0.5)))
    assert matched_fgn(both).V == 2.0 * 1.23 + 0.5 * matched_fgn(FracDiff(HurstParam(0.8), WhiteNoise(1.0))).V


def test_dominating_hurst():
    assert dominating_hurst(Fgn(HurstParam(0.8), 1.0)) == 0.8
    assert dominating_hurst(FracDiff(HurstParam(0.5), WhiteNoise(1.0))) == 0.5
    z = Sum(
        (
            (FracDiff(HurstParam(0.7), WhiteNoise(1.0)), 1.0),
            (Fgn(HurstParam(0.9), 1.0), 0.5),
        )
    )
    assert dominating_hurst(z) == 0.9


def test_sum_validation():
    with pytest.raises(DomainError):
        Sum(())
    with pytest.raises(DomainError):
        Sum(((Fgn(HurstParam(0.8), 1.0), 0.0),))


def test_json_round_trip():
    specs = [
        Fgn(HurstParam(0.8), 1.0),
        FracDiff(HurstParam(0.8), Arma(ar=(0.3,), ma=(0.7,), innovation_variance=1.0)),
        FracDiff(HurstParam(0.6), Fexp((0.4, -0.1))),
        Sum(
            (
                (FracDiff(HurstParam(0.8), WhiteNoise(UNIT_FARIMA03_SIGMA2)), 1.0),
                (Fgn(HurstParam(0.5), 1.0), 0.1),
            )
        ),
    ]
    for spec in specs:
        assert spec_from_json(spec_to_json(spec)) == spec


def test_json_examples_parse():
    assert spec_from_json({"type": "fgn", "H": 0.8, "V": 1.0}) == Fgn(HurstParam(0.8), 1.0)
    got = spec_from_json(
        {
            "type": "fracdiff",
            "H": 0.8,
            "driver": {"type": "arma", "ar": [0.3], "ma": [0.7], "sigma2": 1.0},
        }
    )
    assert got == FracDiff(HurstParam(0.8), Arma(ar=(0.3,), ma=(0.7,), innovation_variance=1.0))
    # Bare fexp is short-range by default; an explicit H wraps it.
    assert spec_from_json({"type": "fexp", "theta": [0.2]}) == FracDiff(HurstParam(0.5), Fexp((0.2,)))
    assert spec_from_json({"type": "fexp", "theta": [0.2], "H": 0.8}) == FracDiff(
        HurstParam(0.8), Fexp((0.2,))
    )
    got = spec_from_json(
        {
            "type": "sum",
            "components": [
                {"spec": {"type": "fgn", "H": 0.8, "V": 1.0}, "weight": 1.0},
                {"spec": {"type": "fgn", "H": 0.5, "V": 1.0}, "weight": 0.1},
            ],
        }
    )
    assert isinstance(got, Sum) and len(got.components) == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"type": "fgn", "H": 0.8, "V": 1.0, "extra": 1},
        {"type": "fgn", "H": 0.8},
        {"type": "fgn", "H": "0.8", "V": 1.0},
        {"type": "fracdiff", "H": 0.8, "driver": {"type": "white", "sigma2": 1.0, "x": 2}},
        {"type": "fracdiff", "H": 0.8, "driver": {"type": "laplace"}},
        {"type": "sum", "components": []},
        {"type": "sum", "components": [{"weight": 1.0}]},
        {"type": "nonsense"},
        {"no_type": 1},
        {"type": "fgn", "H": 1.2, "V": 1.0},
        {"type": "fgn", "H": 0.8, "V": -1.0},
    ],
)
def test_json_rejects_malformed(bad):
    with pytest.raises(DomainError):
        spec_from_json(bad)


def test_spectrum_eval_is_callable_and_pure():
    spec = Fgn(HurstParam(0.8), 1.0)
    assert spectrum(spec, 0.25) == spectrum(Fgn(HurstParam(0.8), 1.0), 0.25)
    arr = spectrum(spec, np.array([0.1, 0.2]))
    assert arr.shape == (2,)
