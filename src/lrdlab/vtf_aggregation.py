"""Variance-time functions, aggregation maps, and double-integration identities.

The variance-time function omega(n) is the variance of an n-term partial
sum, i.e. the double integration operator applied to the autocovariance.
Aggregation at level m is a pure index/scale transform on omega:
omega^(m)(n) = omega(mn) / m^2 for the block-mean process and
rho^(m)(n) = omega(mn) / omega(m) for its correlation-time function, so
aggregated views are computed on demand from the base table.  Sums are
compensated throughout: downstream diagnostics read tiny differences of
large omega values.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .covariance_engine import AcvfTable
from .errors import CoverageError, DomainError
from .kernel_special import HurstParam, _as_hurst
from .process_model import ProcessSpec, matched_fgn

__all__ = [
    "VtfView",
    "CtfView",
    "FixedPoint",
    "AggregatedVtf",
    "vtf",
    "double_integrate",
    "aggregate_vtf",
    "aggregate_ctf",
    "conv_double_int_identity_check",
]


def _neumaier_add(total: float, comp: float, x: float) -> tuple[float, float]:
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


class _PrefixState:
    """Compensated running sums A = sum gamma(k), B = sum k gamma(k)."""

    __slots__ = ("a", "a_c", "b", "b_c", "next_k")

    def __init__(self) -> None:
        self.a = self.a_c = self.b = self.b_c = 0.0
        self.next_k = 1

    def absorb(self, k: int, gamma_k: float) -> None:
        self.a, self.a_c = _neumaier_add(self.a, self.a_c, gamma_k)
        self.b, self.b_c = _neumaier_add(self.b, self.b_c, k * gamma_k)
        self.next_k = k + 1

    def omega(self, n: int, gamma0: float) -> float:
        # omega(n) = n gamma(0) + 2 (n A - B), combined in one exact fsum so
        # the cancellation between the n A and B terms costs nothing.
        return math.fsum(
            (n * gamma0, 2.0 * n * self.a, 2.0 * n * self.a_c, -2.0 * self.b, -2.0 * self.b_c)
        )


class VtfView:
    """Cached variance-time function omega(0..n_max) over an AcvfTable.

    omega(n) is even in n and omega(0) = 0.  :meth:`extend` grows the cache
    (extending the underlying autocovariance table as needed) under a lock;
    reads are safe from any thread.
    """

    def __init__(self, acvf: AcvfTable, n_max: int):
        if n_max < 0:
            raise DomainError(f"n_max must be nonnegative, got {n_max}")
        if acvf.n_max < n_max - 1:
            raise CoverageError(
                f"autocovariance table covers lags up to {acvf.n_max}, need {n_max - 1}"
            )
        self.acvf = acvf
        self._lock = threading.Lock()
        self._state = _PrefixState()
        values = self._advance(0, n_max)
        values.flags.writeable = False
        self._values = values

    def _advance(self, lo: int, hi: int) -> np.ndarray:
        # Emit omega(lo..hi), absorbing exactly the gammas up to n - 1 so the
        # prefix state stays resumable for later extension.
        state = self._state
        gamma = self.acvf.values
        out = np.empty(hi - lo + 1)
        for idx, n in enumerate(range(lo, hi + 1)):
            if n == 0:
                out[idx] = 0.0
                continue
            while state.next_k <= n - 1:
                state.absorb(state.next_k, float(gamma[state.next_k]))
            out[idx] = state.omega(n, float(gamma[0]))
        return out

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_max(self) -> int:
        return len(self._values) - 1

    @property
    def variance(self) -> float:
        return self.omega(1)

    def omega(self, n: int) -> float:
        k = abs(int(n))
        values = self._values
        if k >= len(values):
            raise CoverageError(f"lag {n} beyond cached n_max {len(values) - 1}")
        return float(values[k])

    def extend(self, n_max: int) -> "VtfView":
        with self._lock:
            if n_max > self.n_max:
                self.acvf.extend(n_max - 1)
                block = self._advance(self.n_max + 1, n_max)
                merged = np.concatenate((self._values, block))
                merged.flags.writeable = False
                self._values = merged
        return self


def vtf(acvf: AcvfTable, n_max: int) -> VtfView:
    """Variance-time function omega(0..n_max) of a covariance table.

    Uses the O(n) prefix-sum form omega(n) = n gamma(0) +
    2 sum_{k<n} (n - k) gamma(k) with compensated accumulation; requires
    the table to cover lags 0..n_max-1.
    """
    return VtfView(acvf, n_max)


@dataclass(frozen=True)
class CtfView:
    """Correlation-time function rho(n) = omega(n) / omega(1)."""

    vtf: VtfView

    def rho(self, n: int) -> float:
        return self.vtf.omega(n) / self.vtf.variance


@dataclass(frozen=True)
class FixedPoint:
    """Renormalisation fixed point: omega*(m) = V m^(2H), rho*(n) = n^(2H)."""

    H: HurstParam
    V: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "H", _as_hurst(self.H))
        if not (self.V > 0.0) or not math.isfinite(self.V):
            raise DomainError(f"V must be positive, got {self.V!r}")

    @classmethod
    def of_process(cls, spec: ProcessSpec) -> "FixedPoint":
        star = matched_fgn(spec)
        return cls(star.H, star.V)

    def omega(self, m) -> float:
        return self.V * float(np.abs(m)) ** (2.0 * self.H.H)

    def rho(self, n) -> float:
        return float(np.abs(n)) ** (2.0 * self.H.H)


@dataclass(frozen=True)
class AggregatedVtf:
    """Level-m block-mean view: omega^(m)(n) = omega(mn) / m^2."""

    base: VtfView
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"aggregation level must be >= 1, got {self.m}")

    @property
    def n_max(self) -> int:
        return self.base.n_max // self.m

    @property
    def variance(self) -> float:
        return self.omega(1)

    def omega(self, n: int) -> float:
        return self.base.omega(self.m * int(n)) / (self.m * self.m)


def aggregate_vtf(v: VtfView, m: int) -> AggregatedVtf:
    """Variance-time function of the level-m block-mean process."""
    return AggregatedVtf(v, m)


def aggregate_ctf(v: VtfView, m: int, n: int) -> float:
    """Correlation-time function of the level-m aggregate: omega(mn)/omega(m)."""
    if m < 1:
        raise DomainError(f"aggregation level must be >= 1, got {m}")
    return v.omega(m * int(n)) / v.omega(m)


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
