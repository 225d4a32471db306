"""Autocovariance computation by multiple independent routes.

Closed forms exist for fractional Gaussian noise and for fractionally
differenced white noise; everything else goes through the spectral side,
either by subtracting the matched fGn density (leaving a bounded integrand
for oscillatory quadrature) or by convolving the fGn autocovariance with
the Fourier coefficients G_j of the density ratio g = f / f*.  Routes are
deliberately redundant: their agreement is a test obligation.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._filon import filon_cos_integrals
from .errors import ConvergenceError, CoverageError, DomainError
from .kernel_special import HurstParam, Tolerance, _as_hurst
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
]

_DIRECT_CUTOFF = 16
_GRID_CAP = 1 << 22


class Route(enum.Enum):
    CLOSED_FORM = "ClosedForm"
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
    h = _as_hurst(H)
    if not (V > 0.0) or not math.isfinite(V):
        raise DomainError(f"V must be positive, got {V!r}")
    if n < 0:
        raise DomainError(f"lag must be nonnegative, got {n}")
    return float(_fgn_block(h.H, V, np.asarray([n]))[0])


def _farima00_values(d: float, sigma2: float, n_max: int) -> np.ndarray:
    # gamma(0) = sigma^2 Gamma(1-2d)/Gamma(1-d)^2, then the ratio recursion
    # gamma(n) = gamma(n-1) (n-1+d)/(n-d); valid on the whole stationary
    # band |d| < 1/2.
    g0 = sigma2 * math.exp(gammaln(1.0 - 2.0 * d) - 2.0 * gammaln(1.0 - d))
    if n_max == 0:
        return np.array([g0])
    k = np.arange(1, n_max + 1, dtype=np.float64)
    return g0 * np.concatenate(([1.0], np.cumprod((k - 1.0 + d) / (k - d))))


def farima00_acvf(d: float, sigma2: float, n: int) -> float:
    """Exact autocovariance of fractionally differenced white noise.

    Requires 0 < d < 1/2 (the long-range dependent band); the variance is
    sigma^2 Gamma(1-2d)/Gamma(1-d)^2 and lags follow the stable ratio
    recursion.
    """
    if not (0.0 < d < 0.5) or not math.isfinite(d):
        raise DomainError(f"d must lie in (0, 1/2), got {d!r}")
    if not (sigma2 > 0.0) or not math.isfinite(sigma2):
        raise DomainError(f"sigma2 must be positive, got {sigma2!r}")
    if n < 0:
        raise DomainError(f"lag must be nonnegative, got {n}")
    return float(_farima00_values(d, sigma2, n)[n])


@dataclass(frozen=True)
class GCoeffs:
    """Fourier coefficients of the density ratio g = f / f*.

    ``values`` holds G_0..G_{j_max}; the sequence is even (G_-j = G_j) and
    ``tail_bound`` dominates the sum of |G_j| beyond j_max, derived from
    the observed j^-3 decay envelope.
    """

    H: HurstParam
    driver: ShortMemorySpec
    values: np.ndarray
    tail_bound: float

    @property
    def j_max(self) -> int:
        return len(self.values) - 1

    def G(self, j: int) -> float:
        k = abs(int(j))
        if k > self.j_max:
            raise CoverageError(f"coefficient {j} beyond cached j_max {self.j_max}")
        return float(self.values[k])

    def coefficient_sum(self) -> float:
        """sum of G_j over |j| <= j_max; tends to g(0) = 1 after matching."""
        return float(self.values[0] + 2.0 * math.fsum(self.values[1:]))


def _periodic_coeffs(half_samples, lo: int, hi: int, min_log2: int, tol: Tolerance, cap_message: str):
    """Fourier coefficients lo..hi of an even, smooth, 1-periodic density.

    ``half_samples(N)`` returns the density at k/N for k = 0..N/2; the grid
    is mirrored, read off an FFT (trapezoid quadrature is exact for periodic
    functions up to aliasing) and doubled until the requested coefficients
    move by at most tol.abs_tol.  Grid points count against tol.max_terms.
    """
    n_grid = 1 << max(min_log2, int(math.ceil(math.log2(8 * (hi + 1)))))
    prev = None
    while True:
        if n_grid > _GRID_CAP:
            raise ConvergenceError(cap_message)
        if n_grid > tol.max_terms:
            raise ConvergenceError(
                f"periodic coefficients not stable within {tol.max_terms} grid points"
            )
        half = half_samples(n_grid)
        coeff = np.fft.rfft(np.concatenate((half, half[-2:0:-1]))).real / n_grid
        block = coeff[lo : hi + 1]
        if prev is not None and float(np.max(np.abs(block - prev))) <= tol.abs_tol:
            return block
        prev = block
        n_grid *= 2


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
    to tol.abs_tol.  The tail bound comes from the measured j^3 |G_j|
    envelope over the upper half of the cached range.
    """
    h = _as_hurst(H)
    if not h.is_lrd or h.H >= 1.0:
        raise DomainError("coefficients of g need a long-range dependent H in (1/2, 1)")
    if J_max < 8:
        raise DomainError(f"J_max must be at least 8, got {J_max}")
    spec = FracDiff(h, driver)
    star = matched_fgn(spec)
    inner = Tolerance(abs_tol=min(tol.abs_tol, 1e-13), rel_tol=tol.rel_tol)

    def ratio(n_grid: int) -> np.ndarray:
        # g has a removable point at x = 0, filled with its limit g(0) = 1.
        x = np.arange(1, n_grid // 2 + 1, dtype=np.float64) / n_grid
        return np.concatenate(([1.0], spectrum(spec, x, inner) / spectrum(star, x, inner)))

    coeff = _periodic_coeffs(
        ratio, 0, J_max, 16, tol,
        f"coefficient grid exceeded {_GRID_CAP} points without stabilising",
    )

    j = np.arange(max(100, J_max // 2), J_max + 1)
    env3 = float(np.max(j.astype(np.float64) ** 3 * np.abs(coeff[j]))) if j.size else 0.0
    tail_bound = env3 / (J_max * J_max)
    return GCoeffs(H=h, driver=driver, values=coeff, tail_bound=tail_bound)


class AcvfTable:
    """Cached autocovariances gamma(0..n_max) of one spec.

    Thread-safe to read anywhere; :meth:`extend` appends under an internal
    lock, so a table can be grown while other threads keep reading the
    already published prefix.  ``components`` holds the tables of a Sum's
    components in spec order (empty for other specs); the Sum table grows
    them through their own :meth:`extend`.
    """

    def __init__(self, spec: ProcessSpec, route: Route, tol: Tolerance, builder, n_max: int):
        self.spec = spec
        self.route = route
        self.tol = tol
        self._builder = builder
        self._lock = threading.Lock()
        self.components: tuple[AcvfTable, ...] = ()
        values = np.asarray(builder(0, n_max), dtype=np.float64)
        values.flags.writeable = False
        self._values = values

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_max(self) -> int:
        return len(self._values) - 1

    def gamma(self, n: int) -> float:
        k = abs(int(n))
        values = self._values
        if k >= len(values):
            raise CoverageError(f"lag {n} beyond cached n_max {len(values) - 1}")
        return float(values[k])

    def extend(self, n_max: int) -> "AcvfTable":
        with self._lock:
            if n_max > self.n_max:
                block = np.asarray(self._builder(self.n_max + 1, n_max), dtype=np.float64)
                merged = np.concatenate((self._values, block))
                merged.flags.writeable = False
                self._values = merged
        return self


def _route_for(spec: ProcessSpec) -> Route:
    if isinstance(spec, Fgn):
        return Route.CLOSED_FORM
    if isinstance(spec, FracDiff):
        if isinstance(spec.driver, WhiteNoise):
            return Route.CLOSED_FORM
        if spec.H.H >= 0.5:
            return Route.SPECTRAL_SUBTRACTION
        raise DomainError("autocovariance for antipersistent non-white drivers is not supported")
    if isinstance(spec, Sum):
        return Route.SUM_OF_COMPONENTS
    raise DomainError(f"unknown process spec {type(spec).__name__}")


def _make_builder(spec: ProcessSpec, route: Route, tol: Tolerance, parts: tuple[AcvfTable, ...]):
    if route is Route.CLOSED_FORM and isinstance(spec, Fgn):
        return lambda lo, hi: _fgn_block(spec.H.H, spec.V, np.arange(lo, hi + 1))

    if route is Route.CLOSED_FORM:  # FracDiff over white noise
        d = spec.H.d
        v = spec.driver.variance

        def white_closed(lo: int, hi: int) -> np.ndarray:
            if d == 0.0:
                out = np.zeros(hi - lo + 1)
                if lo == 0:
                    out[0] = v
                return out
            return _farima00_values(d, v, hi)[lo : hi + 1]

        return white_closed

    if route is Route.SPECTRAL_SUBTRACTION:
        if spec.H.H == 0.5:
            # Short-memory spectra are smooth and periodic, so the grid
            # coefficients converge geometrically.
            def density(n_grid: int) -> np.ndarray:
                return driver_density(spec.driver, np.arange(0, n_grid // 2 + 1, dtype=np.float64) / n_grid)

            cap_message = (
                f"driver autocovariance grid exceeded {_GRID_CAP} points; "
                f"n_max up to {_GRID_CAP // 8 - 1} is achievable"
            )
            return lambda lo, hi: _periodic_coeffs(density, lo, hi, 12, tol, cap_message)

        star = matched_fgn(spec)
        inner = Tolerance(abs_tol=min(tol.abs_tol, 1e-13), rel_tol=tol.rel_tol)

        def phi(x: np.ndarray) -> np.ndarray:
            return spectrum(spec, x, inner) - spectrum(star, x, inner)

        def subtraction(lo: int, hi: int) -> np.ndarray:
            lags = np.arange(lo, hi + 1)
            base = _fgn_block(star.H.H, star.V, lags)
            return base + 2.0 * filon_cos_integrals(phi, lags, tol)

        return subtraction

    def summed(lo: int, hi: int) -> np.ndarray:
        acc = np.zeros(hi - lo + 1)
        for table, (_, weight) in zip(parts, spec.components):
            acc += weight * table.extend(hi).values[lo : hi + 1]
        return acc

    return summed


def acvf(spec: ProcessSpec, n_max: int, tol: Tolerance = Tolerance()) -> AcvfTable:
    """Autocovariance table gamma(0..n_max) with automatic route selection.

    Fgn and white-driver FracDiff use closed forms; other fractionally
    differenced specs subtract the matched fGn density and integrate the
    bounded remainder; sums add their components.  The convolution route
    is available separately via :func:`acvf_via_convolution`.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    route = _route_for(spec)
    parts = ()
    if route is Route.SUM_OF_COMPONENTS:
        parts = tuple(acvf(comp, n_max, tol) for comp, _ in spec.components)
    table = AcvfTable(spec, route, tol, _make_builder(spec, route, tol, parts), n_max)
    table.components = parts
    return table


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
    independent cross-check of the subtraction route; J is the cached
    range of ``coeffs`` (computed here when not supplied).
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    h = _as_hurst(H)
    gc = coeffs if coeffs is not None else g_fourier_coeffs(h, driver, J_max, tol)
    spec = FracDiff(h, driver)
    star = matched_fgn(spec)
    j_top = gc.j_max
    g_full = np.concatenate((gc.values[:0:-1], gc.values))

    def convolved(lo: int, hi: int) -> np.ndarray:
        # gamma*(k) over k = lo-J..hi+J (even in k) against G_-J..G_J.
        base = _fgn_block(star.H.H, star.V, np.abs(np.arange(lo - j_top, hi + j_top + 1)))
        return np.convolve(base, g_full, mode="valid")

    return AcvfTable(spec, Route.CONVOLUTION, tol, convolved, n_max)
