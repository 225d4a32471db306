"""Autocovariances of every process spec, one mechanism per spec type.

Fractional Gaussian noise has a closed form.  A fractionally differenced
spec has density h(x) |2 sin(pi x)|^(-2d), a product, so its
autocovariance is the driver's autocovariance (read off an FFT grid)
convolved with the closed-form FARIMA(0,d,0) one.  Sums add their
components.  Two independent cross-checks stay available by name:
:func:`acvf_via_subtraction` adds the Fourier coefficients of the density
minus its matched fGn, and :func:`acvf_via_convolution` convolves the fGn
autocovariance with the Fourier coefficients G_j of g = f / f*.  One
periodic FFT-grid loop yields G_j and the density gap's coefficients; the
driver autocovariance is read off one grid stopped by its truncation rule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, CoverageError, DomainError
from .kernel_special import HurstParam, Tolerance, _as_hurst, _as_int, _as_length, _as_real, _gamma_ratio
from .process_model import (
    Fgn,
    FracDiff,
    ProcessSpec,
    ShortMemorySpec,
    Sum,
    WhiteNoise,
    driver_density,
    matched_fgn,
    spectrum,
)

__all__ = [
    "Route",
    "AcvfTable",
    "GCoeffs",
    "fgn_acvf",
    "farima00_acvf",
    "g_fourier_coeffs",
    "acvf",
    "acvf_via_convolution",
    "acvf_via_subtraction",
]

_DIRECT_CUTOFF = 16
_GRID_CAP = 1 << 22


class Route(enum.Enum):
    CLOSED_FORM = "ClosedForm"
    DRIVER_CONVOLUTION = "DriverConvolution"
    SPECTRAL_SUBTRACTION = "SpectralSubtraction"
    CONVOLUTION = "Convolution"
    SUM_OF_COMPONENTS = "SumOfComponents"


def _fgn_block(h: float, V: float, lags: np.ndarray) -> np.ndarray:
    """gamma(n) = V/2 ((n+1)^2H + |n-1|^2H - 2 n^2H) for each n in lags."""
    a = 2.0 * h
    n = lags.astype(np.float64)
    out = np.empty(n.shape)
    # Direct difference up to n = 16: its rounding is a few ulps of
    # (n+1)^a <= 17^2, about 1e-13 absolute at worst.
    small = lags <= _DIRECT_CUTOFF
    m = n[small]
    out[small] = 0.5 * V * ((m + 1.0) ** a + np.abs(m - 1.0) ** a - 2.0 * m**a)
    # Series regime: gamma(n) = V n^a sum_{m>=1} binom(a, 2m) n^(-2m); the
    # seventh term is down by n^(-12) < 2e-15 from n = 17 on, so six terms
    # leave a relative error at rounding level.
    big = ~small
    nb = n[big]
    u2 = 1.0 / (nb * nb)
    coeffs = []
    c = a * (a - 1.0) / 2.0
    coeffs.append(c)
    for k in range(2, 7):
        c *= (a - (2 * k - 2)) * (a - (2 * k - 1)) / ((2 * k - 1) * (2 * k))
        coeffs.append(c)
    acc = np.full(u2.shape, coeffs[-1])
    for ck in reversed(coeffs[:-1]):
        acc = acc * u2 + ck
    out[big] = V * nb**a * u2 * acc
    return out


def fgn_acvf(H: float | HurstParam, V: float, n: int) -> float:
    """Exact fGn autocovariance at lag n for variance V.

    Uses the direct difference up to lag 16 and the 1/n^2 series beyond,
    so values stay within a few ulps of gamma(n) even where the direct
    difference of large powers would cancel catastrophically.
    """
    h, V = _as_hurst(H), _as_real(V, "V", positive=True)
    return float(_fgn_block(h.H, V, np.asarray([_as_int(n, "lag n")]))[0])


def _farima00_values(d: float, sigma2: float, n_max: int) -> np.ndarray:
    # gamma(0) = sigma^2 Gamma(1-2d)/Gamma(1-d)^2, then the ratio recursion
    # gamma(n) = gamma(n-1) (n-1+d)/(n-d) in extended precision, so rounding
    # does not accumulate; valid on the whole stationary band |d| < 1/2.
    dl = np.longdouble(d)
    g0 = _gamma_ratio([1 - 2 * dl], [1 - dl, 1 - dl], sigma2)
    k = np.arange(1, n_max + 1, dtype=np.longdouble)
    return (g0 * np.concatenate(([1.0], np.cumprod((k - 1.0 + d) / (k - d))))).astype(np.float64)


def farima00_acvf(d: float, sigma2: float, n: int) -> float:
    """Exact autocovariance of fractionally differenced white noise.

    Requires 0 < d < 1/2 (the long-range dependent band); the variance is
    sigma^2 Gamma(1-2d)/Gamma(1-d)^2 and lags follow the stable ratio
    recursion.
    """
    d, sigma2 = _as_real(d, "d"), _as_real(sigma2, "sigma2", positive=True)
    if not 0.0 < d < 0.5:
        raise DomainError(f"d must lie in (0, 1/2), got {d!r}")
    n = _as_length(n, "lag n")
    return float(_farima00_values(d, sigma2, n)[n])


@dataclass(frozen=True)
class GCoeffs:
    """Fourier coefficients of the density ratio g = f / f*.

    ``values`` holds G_0..G_{j_max}; the sequence is even (G_-j = G_j) and
    ``tail_bound`` dominates the sum of |G_j| over |j| > j_max, derived from
    the observed j^-3 decay envelope over j >= max(100, j_max // 2).  It is
    ``math.inf`` for j_max < 100, where no envelope is measured.
    """

    H: HurstParam
    driver: ShortMemorySpec
    values: np.ndarray
    tail_bound: float

    @property
    def j_max(self) -> int:
        return len(self.values) - 1

    def G(self, j: int) -> float:
        k = abs(_as_int(j, "coefficient index j", None))
        if k > self.j_max:
            raise CoverageError(f"coefficient {j} beyond cached j_max {self.j_max}")
        return float(self.values[k])

    def coefficient_sum(self) -> float:
        """sum of G_j over |j| <= j_max; tends to g(0) = 1 after matching."""
        return float(self.values[0] + 2.0 * math.fsum(self.values[1:]))


def _periodic_coeffs(
    density, at_zero: float, hi: int, tol: Tolerance, what: str, cusp_orders: tuple[float, ...] = ()
):
    """Fourier coefficients 0..hi of an even, 1-periodic density.

    ``density(x)`` returns the density at points x in (0, 1/2] and
    ``at_zero`` its value (or limit) at x = 0.  The samples at k/N,
    k = 0..N/2, are mirrored and read off an FFT (trapezoid quadrature is
    exact for smooth periodic functions up to aliasing); N starts at the
    smallest power of two >= 8 (hi + 1) and doubles until the coefficients
    move by at most max(tol.abs_tol, eps log2(N) mean|samples|): the FFT's
    a priori rounding bound stops a density too large for abs_tol.  Each
    doubling keeps the previous samples (the even k) and evaluates the
    density only at the N/4 new odd k (nested trapezoid refinement,
    Numerical Recipes 4.2), so a run ending on an N-point grid evaluates
    N/2 points, each once.  A cusp |x|^(p-1) at x = 0 leaves an aliasing
    error c N^(-p) (generalised Euler-Maclaurin); each order p in
    ``cusp_orders`` is removed by one Richardson step over successive
    grids, and the stop tests the last column.  Grid sizes count against
    tol.max_terms and _GRID_CAP.
    """
    orders = sorted(set(cusp_orders))
    n_grid, top = 1 << (8 * hi + 7).bit_length(), min(_GRID_CAP, tol.max_terms)
    prev: list[np.ndarray] = []  # the previous grid's row of the Richardson table
    residual = "no grid was evaluated"
    while n_grid <= top:
        if prev:  # samples at k/N, k = 0..N/2: the last grid's at the even k
            fine = np.empty(n_grid // 2 + 1)
            fine[::2] = half
            fine[1::2] = density(np.arange(1, n_grid // 2, 2, dtype=np.float64) / n_grid)
            half = fine
        else:
            half = np.concatenate(([at_zero], density(np.arange(1, n_grid // 2 + 1, dtype=np.float64) / n_grid)))
        coeff = np.fft.rfft(np.concatenate((half, half[-2:0:-1]))).real / n_grid
        row = [coeff[: hi + 1]]
        for k, p in enumerate(orders[: len(prev)]):
            row.append(row[k] + (row[k] - prev[k]) / (2.0**p - 1.0))
        residual = f"only the {n_grid}-point grid was evaluated"
        if prev:
            k = len(prev) - 1
            change = float(np.max(np.abs(row[k] - prev[k])))
            floor = np.finfo(np.float64).eps * math.log2(n_grid) * float(np.abs(half).mean())
            if k == len(orders) and change <= max(tol.abs_tol, floor):
                return row[k]
            residual = (
                f"the {n_grid}-point grid moved coefficients by {change:.3g} "
                f"against abs_tol {tol.abs_tol:g} and rounding floor {floor:.3g}"
            )
        prev = row
        n_grid *= 2
    raise ConvergenceError(f"{what} not resolved within {top} grid points: {residual}")


def g_fourier_coeffs(
    H: float | HurstParam,
    driver: ShortMemorySpec,
    J_max: int = 10_000,
    tol: Tolerance = Tolerance(),
) -> GCoeffs:
    """Fourier coefficients of g = f_H / f*_H for a fractionally differenced spec.

    Samples the ratio on a uniform grid and reads coefficients off an FFT
    (trapezoid quadrature is exact for periodic functions up to aliasing),
    doubling the grid until every coefficient with |j| <= J_max is stable
    to tol.abs_tol or to rounding.  The tail bound comes from the measured
    j^3 |G_j| envelope over the upper half of the cached range, from
    j = 100 on (``math.inf`` below J_max = 100).
    """
    h = _as_hurst(H)
    if not h.is_lrd or h.H >= 1.0:
        raise DomainError("coefficients of g need a long-range dependent H in (1/2, 1)")
    J_max = _as_int(J_max, "J_max", 8)
    spec = FracDiff(h, driver)
    star = matched_fgn(spec)

    def ratio(x: np.ndarray) -> np.ndarray:
        return spectrum(spec, x, tol) / spectrum(star, x, tol)

    # g has a removable point at x = 0, filled with its limit g(0) = 1.
    coeff = _periodic_coeffs(ratio, 1.0, J_max, tol, "G coefficient")

    # The envelope is measured from j = 100 on; below that |G_j| j^3 has not
    # settled, so a shorter range has no measured envelope and no bound.
    j = np.arange(max(100, J_max // 2), J_max + 1)
    env3 = float(np.max(j.astype(np.float64) ** 3 * np.abs(coeff[j]))) if j.size else math.inf
    tail_bound = env3 / (J_max * J_max)
    return GCoeffs(H=h, driver=driver, values=coeff, tail_bound=tail_bound)


@dataclass(frozen=True, eq=False)
class AcvfTable:
    """Autocovariances gamma(0..n_max) of one spec, computed once.

    ``values`` is read-only and ``route`` names the mechanism that
    produced it; a longer table is a new :func:`acvf` call.
    """

    spec: ProcessSpec
    route: Route
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.flags.writeable = False

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def gamma(self, n: int) -> float:
        k = abs(_as_int(n, "lag n", None))
        if k > self.n_max:
            raise CoverageError(f"lag {n} beyond cached n_max {self.n_max}")
        return float(self.values[k])


def _driver_acvf(driver: ShortMemorySpec, tol: Tolerance) -> np.ndarray:
    """Driver autocovariances gamma_h(0..K), read off one FFT grid.

    The trapezoid rule on an n-point grid gives c_k = sum_j gamma_h(k + jn),
    the autocovariance aliased by whole multiples of n.  Dropping the lags
    beyond K moves each convolved lag by at most gamma_F(0) * 2 sum_{k>K}
    |gamma_h(k)|, since |gamma_F(m)| <= gamma_F(0).  K is the first lag at
    which that bound is below (2K+1) eps gamma_F(0) sum_k |gamma_h(k)|, the
    a priori rounding bound of the convolution's 2K+1 terms, so the
    truncation stays below the convolution's own rounding floor (gamma_F(0)
    cancels).  ARMA and FEXP autocovariances decay at least geometrically, so
    once K lies below n/4 the aliases, at lags beyond 3n/4, carry less still
    and the grid is accepted; otherwise n doubles from 256.  The test is
    relative, so a driver's scale does not decide it.  Grid sizes count
    against tol.max_terms and _GRID_CAP.
    """
    if isinstance(driver, WhiteNoise):
        return np.array([driver.variance])
    n, top, residual = 256, min(_GRID_CAP, tol.max_terms), "no grid was evaluated"
    while n <= top:
        gh = np.fft.irfft(driver_density(driver, np.arange(n // 2 + 1) / n), n)[: n // 2]
        dropped = 2.0 * np.cumsum(np.abs(gh[:0:-1]))[::-1]  # dropped[k] = 2 sum_{j>k} |gamma_h(j)|
        floor = (2 * np.arange(n // 2 - 1) + 1) * np.finfo(np.float64).eps * (abs(gh[0]) + dropped[0])
        if dropped[n // 4] <= floor[n // 4]:  # dropped falls and floor grows with k
            return gh[: int(np.argmax(dropped <= floor)) + 1]
        residual = f"the {n}-point grid left {dropped[n // 4]:.3g} beyond lag {n // 4} against {floor[n // 4]:.3g}"
        n *= 2
    raise ConvergenceError(f"driver autocovariance not resolved within {top} grid points: {residual}")


def _route_values(spec: ProcessSpec, n_max: int, tol: Tolerance) -> tuple[Route, np.ndarray]:
    """(route, gamma(0..n_max)) of a spec, the route chosen by its type alone."""
    if isinstance(spec, Fgn):
        return Route.CLOSED_FORM, _fgn_block(spec.H.H, spec.V, np.arange(n_max + 1))

    if isinstance(spec, FracDiff):
        d = spec.H.d
        gh = _driver_acvf(spec.driver, tol)
        k_top = len(gh) - 1
        # gamma(n) = sum over |k| <= K of gamma_h(k) gamma_F(n - k); the
        # unit FARIMA(0,d,0) values gamma_F are even in the lag.
        g_f = _farima00_values(d, 1.0, n_max + k_top)[np.abs(np.arange(-k_top, n_max + k_top + 1))]
        return Route.DRIVER_CONVOLUTION, np.convolve(g_f, np.concatenate((gh[:0:-1], gh)), mode="valid")

    if isinstance(spec, Sum):
        total = np.zeros(n_max + 1)
        for comp, weight in spec.components:
            total += weight * acvf(comp, n_max, tol).values
        return Route.SUM_OF_COMPONENTS, total
    raise DomainError(f"unknown process spec {type(spec).__name__}")


def acvf(spec: ProcessSpec, n_max: int, tol: Tolerance = Tolerance()) -> AcvfTable:
    """Autocovariance table gamma(0..n_max), one route per spec type.

    Fgn uses its closed form; FracDiff convolves its driver's
    autocovariance with the FARIMA(0,d,0) closed form, on the whole
    stationary band 0 < H < 1; sums add their components.  The density-gap
    and G-coefficient routes are cross-checks, available separately as
    :func:`acvf_via_subtraction` and :func:`acvf_via_convolution`.
    """
    return AcvfTable(spec, *_route_values(spec, _as_length(n_max, "n_max"), tol))


def _gap_at_zero(spec: ProcessSpec, hd: float, tol: Tolerance, where: str = "") -> tuple[float, tuple[float, ...]]:
    """(phi(0), cusp orders) of phi = f - f* for a spec dominated at Hurst hd.

    A dominating part cancels against f* to |x|^(3 - 2H) at x = 0; any other
    part keeps its density at 0, and one with H' < 1/2 adds a |x|^(1 - 2H')
    cusp.  A cusp |x|^(p - 1) has aliasing order p.  A weaker long-memory
    part leaves phi unbounded at 0 and raises DomainError naming it; ``where``
    is its index in the Sum (dotted for nested Sums).
    """
    if isinstance(spec, Sum):
        value, orders = 0.0, ()
        for i, (comp, weight) in enumerate(spec.components):
            v, o = _gap_at_zero(comp, hd, tol, f"{where}.{i}" if where else str(i))
            value += weight * v
            orders += o
        return value, orders
    h = spec.H.H
    if h == hd:
        return 0.0, (4.0 - 2.0 * h,)
    if h > 0.5:
        raise DomainError(
            f"component {where} has weaker long memory (H = {h}) than the dominating H = {hd}: "
            "the density gap f - f* is unbounded at x = 0, so spectral subtraction does not apply"
        )
    return spectrum(spec, 0.0, tol), (2.0 - 2.0 * h,) if h < 0.5 else ()


def acvf_via_subtraction(spec: ProcessSpec, n_max: int, tol: Tolerance = Tolerance()) -> AcvfTable:
    """Autocovariance of a long-range dependent spec by spectral subtraction.

    gamma(n) = gamma*(n) + the Fourier coefficients of phi = f - f*, with f*
    the matched fGn density.  phi is bounded, with cusps at x = 0, so its
    coefficients are read off the same FFT-grid loop as the G coefficients,
    one Richardson step per cusp order.  Exists as an independent
    cross-check of :func:`acvf`; a weaker long-memory component makes phi
    unbounded and raises :class:`DomainError` naming it, before any grid.
    """
    n_max = _as_length(n_max, "n_max")
    star = matched_fgn(spec)
    phi0, orders = _gap_at_zero(spec, star.H.H, tol)

    def phi(x: np.ndarray) -> np.ndarray:
        return spectrum(spec, x, tol) - spectrum(star, x, tol)

    gap = _periodic_coeffs(phi, phi0, n_max, tol, "density gap", orders)
    values = _fgn_block(star.H.H, star.V, np.arange(n_max + 1)) + gap
    return AcvfTable(spec, Route.SPECTRAL_SUBTRACTION, values)


def acvf_via_convolution(
    H: float | HurstParam,
    driver: ShortMemorySpec,
    n_max: int,
    tol: Tolerance = Tolerance(),
    coeffs: GCoeffs | None = None,
    J_max: int = 10_000,
) -> AcvfTable:
    """Autocovariance of FracDiff(H, driver) through gamma* convolved with G.

    gamma(n) = sum over |j| <= J of G_j gamma*(n - j), the spectral-domain
    multiplication f = g f* read back in lag space.  Exists as an
    independent cross-check of :func:`acvf` and of
    :func:`acvf_via_subtraction`; J is the cached range of ``coeffs``
    (computed here when not supplied).
    """
    n_max = _as_length(n_max, "n_max")
    h = _as_hurst(H)
    gc = coeffs if coeffs is not None else g_fourier_coeffs(h, driver, J_max, tol)
    spec = FracDiff(h, driver)
    star = matched_fgn(spec)
    j_top = gc.j_max
    # gamma*(k) over k = -J..n_max+J (even in k) against G_-J..G_J.
    base = _fgn_block(star.H.H, star.V, np.abs(np.arange(-j_top, n_max + j_top + 1)))
    values = np.convolve(base, np.concatenate((gc.values[:0:-1], gc.values)), mode="valid")
    return AcvfTable(spec, Route.CONVOLUTION, values)
