"""Special-function kernels for long-range dependent second-order structure.

Everything here is deterministic scalar/array math with explicit error
control: the spectral constant C(H), fractional differencing
weights, and the lattice sum that appears in the fractional Gaussian noise
spectral density.  Higher layers build densities, covariances and
variance-time functions out of these primitives.  The Gamma ratios and the
trigamma tail they need are evaluated here in extended precision
(``np.longdouble``) and rounded to double once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "Tolerance",
    "HurstParam",
    "c_of_H",
    "frac_diff_coeffs",
    "fgn_lattice_sum",
]


@dataclass(frozen=True)
class Tolerance:
    """Error budget handed to adaptive routines.

    ``abs_tol`` is the absolute error target that sizes the adaptive loops
    (lattice-sum tails, FFT grids).  ``rel_tol`` steers no loop: it is the
    relative accuracy the results promise, which the tests check.
    ``max_terms`` caps the work (lattice-sum terms, FFT-grid points and
    the sampler's padded embedding size); exceeding it raises
    :class:`ConvergenceError` rather than returning a silently degraded
    value.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_terms: int = 10_000_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "abs_tol", _as_real(self.abs_tol, "abs_tol", positive=True))
        object.__setattr__(self, "rel_tol", _as_real(self.rel_tol, "rel_tol", positive=True))
        object.__setattr__(self, "max_terms", _as_int(self.max_terms, "max_terms", 1))


@dataclass(frozen=True)
class HurstParam:
    """Hurst exponent in (0, 1].

    Construction only enforces the self-similarity range; operations that
    need long-range dependence reject H <= 1/2 themselves.  ``d`` is the
    fractional differencing order H - 1/2.
    """

    H: float

    def __post_init__(self) -> None:
        h = _as_real(self.H, "Hurst exponent")
        if not 0.0 < h <= 1.0:
            raise DomainError(f"Hurst exponent must lie in (0, 1], got {self.H!r}")
        object.__setattr__(self, "H", h)

    @property
    def d(self) -> float:
        return self.H - 0.5

    @property
    def is_lrd(self) -> bool:
        return self.H > 0.5


def _as_hurst(H: float | HurstParam) -> HurstParam:
    return H if isinstance(H, HurstParam) else HurstParam(H)


def _as_int(value, what: str, minimum: int | None = 0) -> int:
    """``value`` as a plain int, at least ``minimum`` unless that is None.

    Integral floats (3.0) and numpy integers pass; a bool, a fraction, a
    non-finite value or a non-number raises DomainError naming ``what``.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise DomainError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


# Largest array one request may build, in points: 2 GiB of float64.
_MAX_ARRAY = 2**28


def _as_length(value, what: str, minimum: int = 0) -> int:
    """:func:`_as_int`, also refused with a DomainError beyond _MAX_ARRAY, so
    that an oversized request fails before any array of that length exists."""
    n = _as_int(value, what, minimum)
    if n > _MAX_ARRAY:
        raise DomainError(f"{what} {n} is beyond the array limit 2^28 = {_MAX_ARRAY}")
    return n


def _as_real(value, what: str, positive: bool = False) -> float:
    """``value`` as a float; a bool, a non-real, a non-finite value or, when
    ``positive``, a value <= 0 raises DomainError naming ``what``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not real or (positive and not value > 0):
        kind = "a positive finite real" if positive else "a finite real"
        raise DomainError(f"{what} must be {kind}, got {value!r}")
    return float(value)


def _as_numeric(x) -> np.ndarray | None:
    """x as an array of integer or float dtype, else None (also for a list holding a bool)."""
    xa = np.asarray(x)
    mixed = xa.ndim > 0 and not isinstance(x, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat
    )
    return xa if xa.dtype.kind in "iuf" and not mixed else None


def _as_frequencies(x, what: str = "frequency") -> tuple[np.ndarray, bool]:
    """(x as a 1-D float64 array, whether x was a scalar); x needs a numeric dtype
    (:func:`_as_numeric`) and finite entries in [-1/2, 1/2], else DomainError."""
    xa = _as_numeric(x)
    if xa is not None:
        scalar, xa = xa.ndim == 0, np.atleast_1d(xa.astype(np.float64, copy=False))
        if np.all(np.isfinite(xa)) and not np.any(np.abs(xa) > 0.5):
            return xa, scalar
    raise DomainError(f"{what} must be real and lie in [-1/2, 1/2]")


# B_0..B_14 (B_1 = -1/2), each numerator/denominator pair divided once in
# extended precision.
_BERNOULLI = np.array([1, -1, 1, 0, -1, 0, 1, 0, -1, 0, 5, 0, -691, 0, 7], dtype=np.longdouble) / np.array(
    [1, 2, 6, 1, 30, 1, 42, 1, 30, 1, 66, 1, 2730, 1, 6], dtype=np.longdouble
)
# pi in extended precision: the double nearest pi plus its rounding error.
_PI = np.longdouble(math.pi) + np.longdouble(1.2246467991473532e-16)
_HALF_LOG_2PI = np.log(2 * _PI) / 2
# Arguments are shifted up to here before an asymptotic series is summed;
# through B_12 the first omitted term is below 1e-19 relative.
_SERIES_START = 20


def _log_gamma_parts(x) -> tuple[np.longdouble, np.longdouble]:
    """(s, p) with Gamma(x) = exp(s) / p for x > 0, in extended precision.

    Gamma(x) = Gamma(x+n) / (x (x+1) ... (x+n-1)) with x + n >= 20, where
    log Gamma is Stirling's series (z - 1/2) log z - z + log(2 pi)/2 +
    sum_k B_2k / (2k (2k-1) z^(2k-1)), k = 1..6 (DLMF 5.11.1).
    """
    z, p = np.longdouble(x), np.longdouble(1)
    while z < _SERIES_START:
        p, z = p * z, z + 1
    u, series = 1 / (z * z), np.longdouble(0)
    for k in range(6, 0, -1):
        series = (series + _BERNOULLI[2 * k] / (2 * k * (2 * k - 1))) * u
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series * z, p


def _gamma_ratio(num, den, factor=1.0) -> float:
    """factor * prod Gamma(num) / prod Gamma(den), rounded to double once.

    Arguments must be positive.  The Stirling logs are summed and the shift
    products multiplied in ``np.longdouble``, so pass arguments and
    ``factor`` formed in extended precision wherever double would round them.
    """
    log_ratio, scale = np.longdouble(0), np.longdouble(factor)
    for x in num:
        s, p = _log_gamma_parts(x)
        log_ratio, scale = log_ratio + s, scale / p
    for x in den:
        s, p = _log_gamma_parts(x)
        log_ratio, scale = log_ratio - s, scale * p
    return float(scale * np.exp(log_ratio))


def _trigamma(x) -> float:
    """psi'(x) for x > 0, rounded to double once.

    The recurrence psi'(x) = psi'(x+1) + 1/x^2 lifts x to >= 20, where the
    series 1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1), k = 1..6 (DLMF 5.15.8),
    is summed in extended precision.
    """
    z, head = np.longdouble(x), np.longdouble(0)
    while z < _SERIES_START:
        head, z = head + 1 / (z * z), z + 1
    u, series = 1 / (z * z), np.longdouble(0)
    for k in range(6, 0, -1):
        series = (series + _BERNOULLI[2 * k]) * u
    return float(head + (1 + 1 / (2 * z) + series) / z)


def _sin_pi(h: float) -> np.longdouble:
    # sin(pi h) for h in (0, 1]; 1 - h is exact in double for h >= 1/2, so
    # the argument stays accurate relative to the result near h = 1.
    return np.sin(_PI * np.longdouble(min(h, 1.0 - h)))


def c_of_H(H: float | HurstParam) -> float:
    """Spectral constant C(H) = Gamma(2H) sin(pi H) H / pi.

    This is the factor linking the variance of a unit fractional Gaussian
    noise to the coefficient of the |x|^(1-2H) singularity of its spectral
    density.  Strictly positive on (0, 1); H = 1 is outside the domain.
    """
    h = _as_hurst(H).H
    if h >= 1.0:
        raise DomainError(f"c_of_H requires H in (0, 1), got {h!r}")
    return _gamma_ratio([2.0 * h], [], _sin_pi(h) * h / _PI)


def frac_diff_coeffs(d: float, n_max: int) -> np.ndarray:
    """Series weights of the fractional difference operator (1-B)^d.

    Returns psi_0..psi_{n_max} with psi_j = Gamma(j-d) / (Gamma(-d)
    Gamma(j+1)), computed by the stable ratio recursion psi_0 = 1,
    psi_j = psi_{j-1} (j - 1 - d) / j.  Requires -1 < d < 1/2; d = 0
    degenerates to the identity filter.
    """
    d = _as_real(d, "fractional order")
    if not -1.0 < d < 0.5:
        raise DomainError(f"fractional order must lie in (-1, 1/2), got {d!r}")
    n_max = _as_length(n_max, "n_max")
    psi = np.empty(n_max + 1, dtype=np.float64)
    psi[0] = 1.0
    for j in range(1, n_max + 1):
        psi[j] = psi[j - 1] * (j - 1.0 - d) / j
    return psi


def _lattice_tail_coeffs(s: float) -> list[float]:
    # a_k = B_2k / (2k)! * s (s+1) ... (s+2k-2), k = 1..7: the Euler-Maclaurin
    # term -B_2k/(2k)! g^(2k-1)(J) for g(t) = (t+c)^(-s) is a_k b^(-s-2k+1),
    # b = J + c.  a_1..a_6 form the tail, a_7 is the first omitted term.
    coeffs, rising, fact = [], np.longdouble(s), np.longdouble(2)
    for k in range(1, 8):
        coeffs.append(float(_BERNOULLI[2 * k] / fact * rising))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
    return coeffs


def _lattice_tail_bound(J: float, s: float) -> float:
    # g = (t+c)^(-s) has derivatives of alternating sign, so the remainder
    # after the B_12 term has the sign of the first omitted term and is no
    # larger.  Worst case c = -1/2, two tails.
    return 2.0 * abs(_lattice_tail_coeffs(s)[6]) * (J - 0.5) ** (-s - 13.0)


def fgn_lattice_sum(x, H: float | HurstParam, tol: Tolerance = Tolerance()):
    """Two-sided lattice sum S(x) = sum_j |2 pi (j + x)|^(-(2H+1)).

    This is the periodisation kernel of the fractional Gaussian noise
    spectral density.  ``x`` may be a scalar or an array with entries in
    [-1/2, 1/2] excluding 0; the sum diverges at x = 0.

    With s = 2H + 1, the terms |j| < J are summed directly and each tail
    sum_{j>=J} (j +- x)^(-s) is its Euler-Maclaurin expansion through B_12
    (DLMF 2.10.1): the integral b^(1-s)/(s-1), b^(-s)/2 and six derivative
    terms a_k b^(-s-2k+1), b = J +- x, summed as one polynomial in 1/b^2.
    The derivatives of (t +- x)^(-s) alternate in sign, so the remainder is
    bounded by the first omitted (B_14) term; J starts at 8 and doubles until
    that bound, over both tails, is below ``tol.abs_tol``.  J = 8 for every H
    at the default tolerance and at abs_tol = 1e-13, and J = 16 for H <= 0.21
    at abs_tol = 1e-14.  Against 40-digit mpmath Hurwitz zetas the result is
    within 8.9e-15 relative over H in [0.02, 1] and |x| in [1e-6, 1/2] at
    either tolerance.

    The direct pairs (j + x)^(-s) + (j - x)^(-s) are added to one
    accumulator in order j = 1..J-1, and the tails are formed in the same
    buffers, so the work space is a few arrays the size of x and each value
    depends on its own x alone: a scalar and the same x inside an array give
    the same bits.
    """
    h = _as_hurst(H).H
    s = 2.0 * h + 1.0
    xa, scalar = _as_frequencies(x)
    if np.any(xa == 0.0):
        raise DomainError("lattice sum needs x != 0")

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

    tail = _lattice_tail_coeffs(s)[5::-1]  # a_6..a_1, for Horner's rule
    # Every step works in place on buffers the size of x.  The direct terms
    # go pair by pair, (j + x)^(-s) + (j - x)^(-s) for j = 1..J-1, into one
    # accumulator.
    direct, plus, minus = np.zeros_like(xa), np.empty_like(xa), np.empty_like(xa)
    for j in range(1, J):
        np.power(np.add(xa, j, out=plus), -s, out=plus)
        np.power(np.subtract(j, xa, out=minus), -s, out=minus)
        plus += minus
        direct += plus
    out = np.abs(xa) ** (-s) + direct
    # Each tail, at b = J + x and at b = J - x, adds
    # b^(-s) (b/(s-1) + 1/2 + poly/b) with poly the a_k in 1/b^2.
    base, u, poly, term = direct, plus, minus, np.empty_like(xa)  # the buffers reused
    for shift in (np.add, np.subtract):
        shift(float(J), xa, out=base)
        np.divide(1.0, np.multiply(base, base, out=u), out=u)
        poly.fill(tail[0])
        for a in tail[1:]:
            poly *= u
            poly += a
        np.divide(base, s - 1.0, out=term)
        term += 0.5
        poly /= base
        term += poly
        term *= np.power(base, -s, out=base)
        out += term
    out *= pref
    return float(out[0]) if scalar else out
