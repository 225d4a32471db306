"""Exact Gaussian path synthesis by circulant embedding of the ACVF.

The Toeplitz covariance of lags 0..N-1 embeds in a circulant matrix of
any even size m >= 2(N-1) (Davies & Harte 1987; Dietrich & Newsam 1997)
whose eigenvalues are the FFT of its first row; m starts at the smallest
even 5-smooth size, so the FFTs stay fast, and doubles until no
eigenvalue is negative beyond the FFT's rounding bound.  A draw is one
inverse FFT of independent complex normals weighted by the eigenvalue
square roots, so every path returned has exactly the spec's covariance.
The generator is counter-based, so identical (spec, seed, N) reproduce
bit-for-bit and batch seeds expand deterministically into per-path
seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance_engine import acvf
from .errors import ConvergenceError, DomainError
from .kernel_special import _MAX_ARRAY as _MAX_EMBEDDING, Tolerance, _as_int
from .process_model import ProcessSpec

__all__ = ["SamplePath", "sample", "sample_many", "empirical_acvf"]

_SEED_BOUND = 2**64


def _check_seed(seed) -> int:
    s = _as_int(seed, "seed")
    if s >= _SEED_BOUND:
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return s


@dataclass(frozen=True)
class SamplePath:
    """One exact zero-mean Gaussian draw of a spec's covariance."""

    spec: ProcessSpec
    seed: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "seed", _check_seed(self.seed))

    @property
    def n(self) -> int:
        return len(self.values)


def _embedding_size(n: int) -> int:
    """Smallest even 5-smooth m >= 2(n-1) for a path of n >= 2 points.

    Refuses sizes beyond _MAX_EMBEDDING with a DomainError, before any
    array exists.
    """
    half = max(1, n - 1)
    best = 1 << (half - 1).bit_length()  # the power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches half
            best = min(best, p35 << (-(-half // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    if 2 * best > _MAX_EMBEDDING:
        raise DomainError(
            f"N = {n} needs a circulant embedding of {2 * best} points, beyond the "
            f"limit 2^28 = {_MAX_EMBEDDING}"
        )
    return 2 * best


def _embedding(spec: ProcessSpec, N: int, tol: Tolerance) -> tuple[np.ndarray, int]:
    # Eigenvalues of the circulant embedding of N >= 2 points, each size's
    # first row built once from gamma(0..m/2), doubling m until no
    # eigenvalue lies below -eps log2(m) sum|row|, the a priori rounding
    # bound of the FFT; the rounding-level negatives left are set to 0.
    m = _embedding_size(N)
    budget = min(_MAX_EMBEDDING, tol.max_terms)
    while True:
        half = acvf(spec, m // 2, tol).values
        row = np.concatenate((half, half[-2:0:-1]))
        lam = np.fft.rfft(row).real
        if lam.min() >= -np.finfo(np.float64).eps * math.log2(m) * np.abs(row).sum():
            return np.maximum(lam, 0.0), m
        if 1 << m.bit_length() > budget:
            raise ConvergenceError(
                f"embedding spectrum negative at size {m} (min {lam.min():.3e} against max "
                f"{lam.max():.3e}); doubling it would pass the budget of {budget} points "
                f"(max_terms {tol.max_terms}, limit 2^28)"
            )
        m = 1 << m.bit_length()


def _draw(lam: np.ndarray, m: int, n: int, seed: int) -> np.ndarray:
    # Hermitian half-spectrum with E|W_k|^2 = lam_k; the draw consumes
    # exactly m normals in a fixed layout, so it is reproducible.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    z = rng.standard_normal(m)
    k = m // 2
    root = np.sqrt(lam)
    w = np.empty(k + 1, dtype=np.complex128)
    w[0] = root[0] * z[0]
    w[k] = root[k] * z[1]
    w[1:k] = (math.sqrt(0.5) * root[1:k]) * (z[2::2] + 1j * z[3::2])
    return np.fft.irfft(w, n=m)[:n] * math.sqrt(m)


def sample(spec: ProcessSpec, N: int, seed, *, tol: Tolerance = Tolerance()) -> SamplePath:
    """Draw one zero-mean Gaussian path with covariance gamma(0..N-1).

    The embedding starts at the smallest even 5-smooth size m >= 2(N-1),
    at most 2^28 (a larger N raises DomainError before any work).  While
    its spectrum has entries below the FFT's rounding bound, m doubles;
    a size that would pass 2^28 or ``tol.max_terms`` raises
    ConvergenceError instead, so every path returned is exact.
    """
    n = _as_int(N, "N", 2)
    s = _check_seed(seed)
    lam, m = _embedding(spec, n, tol)
    return SamplePath(spec=spec, seed=s, values=_draw(lam, m, n, s))


def sample_many(
    spec: ProcessSpec, N: int, seed, count: int, *, tol: Tolerance = Tolerance()
) -> list[SamplePath]:
    """Draw independent paths; the batch seed expands into per-path seeds.

    Path i uses the i-th state of the seed sequence spawned from ``seed``,
    and each returned path equals sample(spec, N, path.seed) bit-for-bit.
    A batch of more than 2^28 values raises DomainError before any seed or
    table is built.
    """
    c = _as_int(count, "count", 1)
    n = _as_int(N, "N", 2)
    if c * n > _MAX_EMBEDDING:  # before any seed or table is built
        raise DomainError(
            f"{c} paths of N = {n} are {c * n} values, beyond the limit 2^28 = {_MAX_EMBEDDING}"
        )
    seeds = np.random.SeedSequence(_check_seed(seed)).generate_state(c, np.uint64)
    lam, m = _embedding(spec, n, tol)
    return [SamplePath(spec=spec, seed=s, values=_draw(lam, m, n, s)) for s in seeds.tolist()]


def empirical_acvf(paths, lags) -> tuple[np.ndarray, np.ndarray]:
    """Cross-path mean and standard error of the unbiased ACVF estimator.

    Uses the known zero mean: gamma_hat(k) = sum_t x_t x_(t+k) / (N - k)
    per path; the standard error is the cross-path sample deviation of
    those estimates divided by sqrt(number of paths).
    """
    values = [p.values for p in paths]
    if len(values) < 2:
        raise DomainError(f"need at least two paths, got {len(values)}")
    shapes = sorted({v.shape for v in values})
    if len(shapes) > 1 or len(shapes[0]) != 1:
        raise DomainError(f"paths must be one-dimensional and of one length, got shapes {shapes}")
    arr = np.stack(values)
    n = arr.shape[1]
    means = []
    errors = []
    for lag in lags:
        k = _as_int(lag, "lag")
        if k >= n:
            raise DomainError(f"lag must be an integer in [0, {n}), got {lag!r}")
        per_path = np.einsum("ij,ij->i", arr[:, : n - k], arr[:, k:]) / (n - k)
        means.append(float(per_path.mean()))
        errors.append(float(per_path.std(ddof=1) / math.sqrt(arr.shape[0])))
    return np.array(means), np.array(errors)
