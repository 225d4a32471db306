"""Variance-time functions, aggregation maps, and double-integration identities.

The variance-time function omega(n) is the variance of an n-term partial
sum, i.e. the double integration operator applied to the autocovariance.
Every spec has it in closed form, evaluated on whole lag arrays with no
table.  Aggregation at level m is a pure index/scale transform on omega:
omega^(m)(n) = omega(mn) / m^2 for the block-mean process and
rho^(m)(n) = omega(mn) / omega(m) for its correlation-time function.
The compensated prefix sums of :func:`double_integrate` remain as the
independent cross-check of the exchange identity behind the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .covariance_engine import _DIRECT_CUTOFF, _driver_acvf, _fgn_block
from .errors import DomainError
from .kernel_special import _BERNOULLI, Tolerance, _as_int, _as_numeric, _gamma_ratio
from .process_model import Fgn, FracDiff, ProcessSpec, Sum, driver_density

__all__ = [
    "VtfView",
    "AggregatedVtf",
    "vtf",
    "double_integrate",
    "aggregate_vtf",
    "aggregate_ctf",
    "conv_double_int_identity_check",
]

_LAG_LIMIT = 2**53
_BLOCK = 1 << 16  # F points per call, new points per group and values per chunk of a FracDiff's driver sum


def _neumaier_add(total: float, comp: float, x: float) -> tuple[float, float]:
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


class _PrefixState:
    """Compensated running sums A = sum gamma(k), B = sum k gamma(k)."""

    __slots__ = ("a", "a_c", "b", "b_c")

    def __init__(self) -> None:
        self.a = self.a_c = self.b = self.b_c = 0.0

    def absorb(self, k: int, gamma_k: float) -> None:
        self.a, self.a_c = _neumaier_add(self.a, self.a_c, gamma_k)
        self.b, self.b_c = _neumaier_add(self.b, self.b_c, k * gamma_k)

    def omega(self, n: int, gamma0: float) -> float:
        # omega(n) = n gamma(0) + 2 (n A - B), combined in one exact fsum so
        # the cancellation between the n A and B terms costs nothing.
        return math.fsum(
            (n * gamma0, 2.0 * n * self.a, 2.0 * n * self.a_c, -2.0 * self.b, -2.0 * self.b_c)
        )


class _Farima00:
    """omega and offset of FARIMA(0,d,0) with unit innovations, -1/2 < d < 1/2.

    Hosking's (1981) autocovariance telescopes in the double sum:
    omega(m) = V R(m) + D, R(m) = Gamma(m+1+d)/Gamma(m-d),
    V = Gamma(1-2d)/((1+2d) Gamma(1+d) Gamma(1-d)), D = d gamma(0)/(1+2d).
    Up to m = 16, R(m)/R(1) is the product of (k+1+d)/(k-d), k < m, in
    extended precision.  Beyond, R(m) = m^(1+2d) exp(L(m)) with the large-m
    expansion L(m) = sum_{k=2,4,..,12} 2 B_{k+1}(-d)/(k (k+1) m^k) (DLMF
    5.11.13; Tricomi & Erdelyi 1951), so the offset omega(m) - V m^(1+2d)
    is V m^(1+2d) expm1(L(m)) + D, which cancels nothing.
    """

    def __init__(self, d: float):
        self.a = 1.0 + 2.0 * d
        dl = np.longdouble(d)
        gamma0 = _gamma_ratio([1 - 2 * dl], [1 - dl, 1 - dl])
        self.V = _gamma_ratio([1 - 2 * dl], [1 + dl, 1 - dl], 1 / (1 + 2 * dl))
        self.D = _gamma_ratio([1 - 2 * dl], [1 - dl, 1 - dl], dl / (1 + 2 * dl))
        # (1+2d) omega(m)/gamma(0) = (1+d) R(m)/R(1) + d; omega(1) = gamma(0) exactly.
        k = np.arange(1, _DIRECT_CUTOFF, dtype=np.longdouble)
        scaled = (1.0 + d) * np.concatenate(([1.0], np.cumprod((k + 1.0 + d) / (k - d)))) + d
        self._small = np.concatenate(([0.0], (gamma0 * scaled / scaled[0]).astype(np.float64)))
        self._series = []  # coefficients of L in 1/m^2, highest power first
        for k in range(12, 0, -2):
            b_poly = sum(math.comb(k + 1, j) * _BERNOULLI[j] * (-dl) ** (k + 1 - j) for j in range(k + 2))
            self._series.append(float(2 * b_poly / (k * (k + 1))))  # b_poly = B_{k+1}(-d)

    def values(self, m: np.ndarray, offset: bool) -> np.ndarray:
        """omega(m), or offset(m) if ``offset``, for an array of integers m >= 0."""
        out = np.empty(m.shape)
        small = m <= _DIRECT_CUTOFF
        ms = m[small]
        out[small] = self._small[ms] - (self.V * ms.astype(np.float64) ** self.a if offset else 0.0)
        x = m[~small].astype(np.float64)
        u, log_ratio = 1.0 / (x * x), np.zeros(x.shape)
        for c in self._series:
            log_ratio = (log_ratio + c) * u
        ratio = np.expm1(log_ratio) if offset else np.exp(log_ratio)
        out[~small] = self.V * x**self.a * ratio + self.D
        return out


def _lags(n, scale: int = 1) -> np.ndarray:
    """scale |n| as an int64 array of n's shape; non-whole or beyond-2^53 lags raise DomainError."""
    arr = _as_numeric(n)
    if arr is None or arr.dtype.kind == "f" and not np.all(np.mod(arr, 1.0) == 0.0):
        raise DomainError(f"lags must be integers, got {n!r}")
    top = int(scale) * max([1, int(np.max(arr)), -int(np.min(arr))] if arr.size else [1])
    if top > _LAG_LIMIT:
        raise DomainError(f"lag {top} exceeds 2^53 = {_LAG_LIMIT}; lags beyond it are inexact in float64")
    return int(scale) * np.abs(arr).astype(np.int64)


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """terms[:, 0] + terms[:, 1] + ..., added left to right; overwrites terms.

    A running sum, so every row rounds exactly as Python's sum over the
    columns would, which a pairwise reduction does not.
    """
    return np.cumsum(terms, axis=1, out=terms)[:, -1]


class VtfView:
    """Variance-time function omega(n) of a spec, in closed form at any lag.

    ``omega(n)`` and ``offset(n)`` = omega(n) - V |n|^(2H) (not formed as
    that difference) take integers up to 2^53 or arrays of them; both are
    even and vanish at 0.  ``D`` is the offset's exact limit, infinite when
    a Sum component has a smaller H.  ``H`` is the spec's (a Sum's largest)
    Hurst exponent and ``V`` the exact growth constant, which may differ
    from the matched fGn variance in the last digits.  Fgn is V |n|^(2H); a
    FracDiff combines 2K+1 FARIMA(0,d,0) values through the driver
    autocovariance gamma_h(0..K) of :func:`acvf`, evaluating FARIMA(0,d,0)
    once per distinct point of the lags' windows [n-K, n+K] within a group
    of lags (up to 2K points more where two groups' windows meet); a Sum
    weights the views it keeps in ``components`` (empty for other specs).
    """

    def __init__(self, spec: ProcessSpec, tol: Tolerance = Tolerance()):
        self.spec = spec
        self.components: tuple[VtfView, ...] = ()
        if isinstance(spec, Fgn):
            self.H, self.V, self.D = spec.H, spec.V, 0.0
        elif isinstance(spec, FracDiff):
            # By the exchange identity for gamma = gamma_h * gamma_F, omega(n) =
            # sum_{|k|<=K} gamma_h(k) omega_F(|n+k|) - C, C = sum_k gamma_h(k) omega_F(|k|).
            unit, gh = self._unit, self._gh = _Farima00(spec.H.d), _driver_acvf(spec.driver, tol)
            self._c = 2.0 * math.fsum(gh[1:] * unit.values(np.arange(1, len(gh)), False))
            self._kpow = gh[1:] * np.array([k**unit.a for k in range(1, len(gh))])  # gamma_h(k) k^(2H)
            h0 = driver_density(spec.driver, 0.0)  # exact, not the truncated sum of gh
            self.H, self.V, self.D = spec.H, h0 * unit.V, h0 * unit.D - self._c
        elif isinstance(spec, Sum):
            self.components = tuple(VtfView(comp, tol) for comp, _ in spec.components)
            self.H = max((p.H for p in self.components), key=lambda h: h.H)
            top = [(p, w) for p, (_, w) in zip(self.components, spec.components) if p.H == self.H]
            self.V = sum(w * p.V for p, w in top)
            self.D = sum(w * p.D for p, w in top) if len(top) == len(self.components) else math.inf
        else:
            raise DomainError(f"unknown process spec {type(spec).__name__}")

    def _values(self, n: np.ndarray, offset: bool) -> np.ndarray:
        spec = self.spec
        if isinstance(spec, Fgn):
            return np.zeros(n.shape) if offset else spec.V * n.astype(np.float64) ** (2.0 * spec.H.H)
        if isinstance(spec, FracDiff):
            if len(self._gh) == 1:  # K = 0: each window is its lag alone, so F is needed at the lags only
                return self._gh[0] * self._unit.values(n, offset) - self._c
            flat = n.ravel()
            if np.all(flat[1:] >= flat[:-1]):
                out = self._window_sums(flat, offset)
            else:
                order = np.argsort(flat)
                out = np.empty(flat.shape)
                out[order] = self._window_sums(flat[order], offset)
            if offset:
                # Splitting omega_F = V_F m^a + offset_F leaves V_F sum_k
                # gamma_h(k) (|n+k|^a - n^a): k^a times the unit fGn
                # autocovariance at n/k, whose 1/n^2 series cancels nothing.
                out = out + 2.0 * self._unit.V * self._power_sums(flat)
            return out.reshape(n.shape) - self._c
        # A component below the top H contributes its whole omega to the offset.
        parts = zip(self.components, spec.components)
        return sum(w * p._values(n, offset and p.H == self.H) for p, (_, w) in parts)

    def _window_sums(self, s: np.ndarray, offset: bool) -> np.ndarray:
        """sum_{k=-K..K} gamma_h(|k|) F(|n+k|) for ascending lags s, k ascending.

        F is omega_F, or offset_F if ``offset``.  Of the 2K+1 points of a
        window [n-K, n+K], those beyond the previous lag's window are new.
        The lags go in groups: a group's table holds its first lag's whole
        window, then the later lags' new points, up to a block of them, so
        each window ends where its new points do.  A point shared by the
        windows on both sides of a group boundary is evaluated in both
        groups, at most 2K extra points per boundary.  F is evaluated a
        block of points at a time, and the windows are gathered in chunks
        of at most a block of terms (one window when 2K+1 exceeds a block).
        """
        gh, unit = self._gh, self._unit
        k_top = len(gh) - 1
        width = 2 * k_top + 1
        weights = gh[np.abs(np.arange(-k_top, k_top + 1))]
        total = np.cumsum(np.minimum(width, np.diff(s, prepend=s[:1] - width)))  # where each window ends
        rows, out, a = max(1, _BLOCK // width), np.empty(s.shape), 0
        while a < s.size:
            b = int(np.searchsorted(total, total[a] + _BLOCK, side="right"))
            ends = total[a:b] - (total[a] - width)
            points = np.abs(np.repeat(s[a:b] + k_top + 1 - ends, np.diff(ends, prepend=0)) + np.arange(ends[-1]))
            table = np.concatenate([unit.values(points[p : p + _BLOCK], offset) for p in range(0, points.size, _BLOCK)])
            windows, group = sliding_window_view(table, width), out[a:b]
            for c in range(0, b - a, rows):
                terms = windows[ends[c : c + rows] - width]
                terms *= weights
                group[c : c + rows] = _sum_in_order(terms)
            a = b
        return out

    def _power_sums(self, n: np.ndarray) -> np.ndarray:
        """sum_{k=1..K} gamma_h(k) k^(2H) gamma*(n/k) over 1-D lags n, k ascending."""
        k = np.arange(1, len(self._kpow) + 1)
        rows, out = max(1, _BLOCK // k.size), np.empty(n.shape)
        for a in range(0, n.size, rows):
            terms = _fgn_block(self.spec.H.H, 1.0, n[a : a + rows, None] / k)
            terms *= self._kpow
            out[a : a + rows] = _sum_in_order(terms)
        return out

    def _evaluate(self, n, offset: bool):
        lags = np.atleast_1d(_lags(n))
        out = self._values(lags, offset)
        out[lags == 0] = 0.0  # the empty sum, whatever a driver sum rounds to
        return float(out[0]) if np.ndim(n) == 0 else out

    def omega(self, n):
        return self._evaluate(n, False)

    def offset(self, n):
        return self._evaluate(n, True)

    @property
    def variance(self) -> float:
        return self.omega(1)


def vtf(spec: ProcessSpec, tol: Tolerance = Tolerance()) -> VtfView:
    """Variance-time function omega(n) of a spec, evaluated in closed form."""
    return VtfView(spec, tol)


@dataclass(frozen=True)
class AggregatedVtf:
    """Level-m block-mean view: omega^(m)(n) = omega(mn) / m^2."""

    base: VtfView
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _as_int(self.m, "aggregation level m", 1))

    @property
    def variance(self) -> float:
        return self.omega(1)

    def omega(self, n):
        return self.base.omega(_lags(n, self.m)) / (self.m * self.m)


def aggregate_vtf(v: VtfView, m: int) -> AggregatedVtf:
    """Variance-time function of the level-m block-mean process."""
    return AggregatedVtf(v, m)


def aggregate_ctf(v: VtfView, m: int, n):
    """Correlation-time function of the level-m aggregate: omega(mn)/omega(m)."""
    m = _as_int(m, "aggregation level m", 1)
    return v.omega(_lags(n, m)) / v.omega(m)


def double_integrate(a) -> np.ndarray:
    """Double integration of a symmetric sequence given one-sided.

    (I a)(n) = sum_{k=0}^{n-1} sum_{i=-k}^{k} a(|i|), returned for
    n = 0..len(a)-1; this is the variance-of-partial-sums operator applied
    to an arbitrary even sequence.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("sequence must be one-dimensional")
    out = np.empty(arr.shape)
    if arr.size == 0:
        return out
    state = _PrefixState()
    out[0] = 0.0
    for n in range(1, arr.size):
        out[n] = state.omega(n, arr[0])
        state.absorb(n, float(arr[n]))
    return out


def _two_sided(a: np.ndarray) -> np.ndarray:
    return np.concatenate((a[:0:-1], a))


def conv_double_int_identity_check(a, b) -> float:
    """Residual of the convolution/double-integration exchange identity.

    For finitely supported even sequences a and b with c = a * b, checks
    max_n |(I c)(n) - [((I a) * b)(n) - ((I a) * b)(0)]|, which vanishes in
    exact arithmetic.  Returns the maximum over n up to the joint support
    plus a margin.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    p, q = a_arr.size - 1, b_arr.size - 1
    n_top = p + q + 8

    full = np.convolve(_two_sided(a_arr), _two_sided(b_arr))
    c = full[p + q :]  # one-sided view of the symmetric convolution
    c_pad = np.concatenate((c, np.zeros(max(0, n_top + 1 - c.size))))
    ic = double_integrate(c_pad)

    a_pad = np.concatenate((a_arr, np.zeros(n_top + q + 1 - a_arr.size)))
    ia = double_integrate(a_pad)

    j = np.arange(-q, q + 1)
    b_sym = b_arr[np.abs(j)]
    n_idx = np.arange(0, n_top + 1)
    conv_ia = (ia[np.abs(n_idx[:, None] - j[None, :])] * b_sym[None, :]).sum(axis=1)
    return float(np.max(np.abs(ic[: n_top + 1] - (conv_ia - conv_ia[0]))))
