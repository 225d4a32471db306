"""Special-function kernels for long-range dependent second-order structure.

Everything here is deterministic scalar/array math with explicit error
control: log-gamma, the spectral constant C(H), fractional differencing
weights, and the lattice sum that appears in the fractional Gaussian noise
spectral density.  Higher layers build densities, covariances and
variance-time functions out of these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConvergenceError, DomainError

__all__ = [
    "Tolerance",
    "HurstParam",
    "log_gamma",
    "c_of_H",
    "frac_diff_coeffs",
    "fgn_lattice_sum",
]


@dataclass(frozen=True)
class Tolerance:
    """Error budget handed to adaptive routines.

    ``abs_tol`` is the absolute error target, ``rel_tol`` the relative one;
    a routine stops once its remainder bound is below either.  ``max_terms``
    caps the work; exceeding it raises :class:`ConvergenceError` rather than
    returning a silently degraded value.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_terms: int = 10_000_000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


@dataclass(frozen=True)
class HurstParam:
    """Hurst exponent in (0, 1].

    Construction only enforces the self-similarity range; operations that
    need long-range dependence reject H <= 1/2 themselves.  ``d`` is the
    fractional differencing order H - 1/2.
    """

    H: float

    def __post_init__(self) -> None:
        h = float(self.H)
        if not (0.0 < h <= 1.0) or not math.isfinite(h):
            raise DomainError(f"Hurst exponent must lie in (0, 1], got {self.H!r}")
        object.__setattr__(self, "H", h)

    @property
    def d(self) -> float:
        return self.H - 0.5

    @property
    def is_lrd(self) -> bool:
        return self.H > 0.5


def _as_hurst(H: float | HurstParam) -> HurstParam:
    return H if isinstance(H, HurstParam) else HurstParam(float(H))


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Thin domain-checked wrapper; kept as the single gamma entry point so
    every ratio of gamma values in the library goes through log space.
    """
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return float(gammaln(x))


def c_of_H(H: float | HurstParam) -> float:
    """Spectral constant C(H) = Gamma(2H) sin(pi H) H / pi.

    This is the factor linking the variance of a unit fractional Gaussian
    noise to the coefficient of the |x|^(1-2H) singularity of its spectral
    density.  Strictly positive on (0, 1); H = 1 is outside the domain.
    """
    h = _as_hurst(H).H
    if h >= 1.0:
        raise DomainError(f"c_of_H requires H in (0, 1), got {h!r}")
    return math.exp(log_gamma(2.0 * h)) * math.sin(math.pi * h) * h / math.pi


def frac_diff_coeffs(d: float, n_max: int) -> np.ndarray:
    """Series weights of the fractional difference operator (1-B)^d.

    Returns psi_0..psi_{n_max} with psi_j = Gamma(j-d) / (Gamma(-d)
    Gamma(j+1)), computed by the stable ratio recursion psi_0 = 1,
    psi_j = psi_{j-1} (j - 1 - d) / j.  Requires -1 < d < 1/2; d = 0
    degenerates to the identity filter.
    """
    if not (-1.0 < d < 0.5) or not math.isfinite(d):
        raise DomainError(f"fractional order must lie in (-1, 1/2), got {d!r}")
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    psi = np.empty(n_max + 1, dtype=np.float64)
    psi[0] = 1.0
    for j in range(1, n_max + 1):
        psi[j] = psi[j - 1] * (j - 1.0 - d) / j
    return psi


def _lattice_tail_bound(J: float, s: float) -> float:
    # Euler-Maclaurin remainder after the g'(J)/12 term for g(t) = (t+c)^(-s),
    # c in [-1/2, 1/2]; g'''' keeps one sign, so the remainder is bounded by
    # |g'''(J+c)| / 720 per tail.  Worst case c = -1/2, two tails.
    base = J - 0.5
    return 2.0 * s * (s + 1.0) * (s + 2.0) * base ** (-s - 3.0) / 720.0


def fgn_lattice_sum(x, H: float | HurstParam, tol: Tolerance = Tolerance()):
    """Two-sided lattice sum S(x) = sum_j |2 pi (j + x)|^(-(2H+1)).

    This is the periodisation kernel of the fractional Gaussian noise
    spectral density.  ``x`` may be a scalar or an array with entries in
    [-1/2, 1/2] excluding 0; the sum diverges at x = 0.  The tail beyond
    the truncation point is replaced by an Euler-Maclaurin correction whose
    remainder is provably below ``tol.abs_tol``.
    """
    h = _as_hurst(H).H
    s = 2.0 * h + 1.0
    xa = np.asarray(x, dtype=np.float64)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if xa.size and (np.any(np.abs(xa) > 0.5) or np.any(xa == 0.0) or not np.all(np.isfinite(xa))):
        raise DomainError("lattice sum needs x in [-1/2, 1/2], x != 0")

    # The (2 pi)^(-s) prefactor scales the tail bound too, so solve for the
    # smallest J with prefactor * bound(J) <= abs_tol.
    pref = (2.0 * math.pi) ** (-s)
    J = 8
    while pref * _lattice_tail_bound(float(J), s) > tol.abs_tol:
        J *= 2
        if J > tol.max_terms:
            raise ConvergenceError(
                f"lattice sum tail bound not below {tol.abs_tol:g} within {tol.max_terms} terms"
            )

    j = np.arange(1, J, dtype=np.float64)[:, None]
    out = np.empty_like(xa)
    # Chunk the evaluation points so the (J, n_points) intermediate stays small.
    step = max(1, 2_000_000 // max(J, 1))
    for lo in range(0, xa.size, step):
        xc = xa[lo : lo + step]
        core = np.abs(xc) ** (-s)
        core = core + np.sum((j + xc) ** (-s) + (j - xc) ** (-s), axis=0)
        for c in (xc, -xc):
            base = J + c
            core = core + base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** (-s) + s * base ** (-s - 1.0) / 12.0
        out[lo : lo + step] = pref * core
    return float(out[0]) if scalar else out
