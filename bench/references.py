"""Independent references for the benchmark's correctness checks.

Everything here is computed from closed forms with ``math``, ``numpy`` and
``mpmath`` only; nothing imports ``lrdlab``, so a fault in the library
cannot leak into the values it is checked against.

Sources: Hosking (1981, Biometrika 68) for the FARIMA(0,d,0)
autocovariance, whose Gamma ratios telescope in the variance-time double
sum; the textbook ARMA(1,1) autocovariance; and the exact fractional
Gaussian noise (fGn) autocovariance and spectral density (Sinai 1976,
Beran 1994).  Frequencies use x in [-1/2, 1/2] with
gamma(n) = integral of f(x) exp(2 pi i x n) dx.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 30


def _mp(dps: int = DPS):
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


def farima00_acvf(d: float, n_max: int, sigma2: float = 1.0, dps: int = DPS) -> list:
    """Hosking's FARIMA(0,d,0) autocovariance gamma(0..n_max) as mpf values.

    gamma(0) = sigma2 Gamma(1-2d) / Gamma(1-d)^2 and
    gamma(k) = gamma(k-1) (k-1+d) / (k-d), carried at ``dps`` digits.
    d = 0 gives white noise.
    """
    mp = _mp(dps)
    dd = mp.mpf(d)
    g = [mp.mpf(sigma2) * mp.gamma(1 - 2 * dd) / mp.gamma(1 - dd) ** 2]
    for k in range(1, n_max + 1):
        g.append(g[-1] * (k - 1 + dd) / (k - dd))
    return g


def arma11_acvf(phi: float, theta: float, sigma2: float, k_max: int, dps: int = DPS) -> list:
    """Autocovariance gamma(0..k_max) of X_t = phi X_(t-1) + e_t + theta e_(t-1).

    gamma(0) = sigma2 (1 + 2 phi theta + theta^2) / (1 - phi^2),
    gamma(1) = sigma2 (1 + phi theta)(phi + theta) / (1 - phi^2) and
    gamma(k) = phi gamma(k-1) beyond.
    """
    mp = _mp(dps)
    p, t, s = mp.mpf(phi), mp.mpf(theta), mp.mpf(sigma2)
    g = [s * (1 + 2 * p * t + t * t) / (1 - p * p)]
    if k_max >= 1:
        g.append(s * (1 + p * t) * (p + t) / (1 - p * p))
    for _ in range(2, k_max + 1):
        g.append(p * g[-1])
    return g


def arma_farima_acvf(
    d: float, phi: float, theta: float, sigma2: float, n_max: int, K: int = 80, dps: int = DPS
) -> np.ndarray:
    """Autocovariance of FracDiff(d) over an ARMA(1,1) driver, lags 0..n_max.

    The density h(x) |2 sin(pi x)|^(-2d) is a product, so the autocovariance
    is the ARMA autocovariance convolved with the unit FARIMA(0,d,0) one:
    gamma(n) = sum over |k| <= K of gamma_arma(|k|) gamma_fd(|n - k|).
    The ARMA part decays like phi^k, so K = 80 leaves a truncation error
    below 1e-40 for |phi| <= 0.3.
    """
    mp = _mp(dps)
    ga = arma11_acvf(phi, theta, sigma2, K, dps)
    gf = farima00_acvf(d, n_max + K, 1.0, dps)
    out = np.empty(n_max + 1)
    two_sided = [ga[abs(k)] for k in range(-K, K + 1)]
    for n in range(n_max + 1):
        out[n] = float(mp.fdot(two_sided, [gf[abs(n - k)] for k in range(-K, K + 1)]))
    return out


def fgn_acvf(H: float, V: float, lags, dps: int = DPS) -> np.ndarray:
    """Exact fGn autocovariance V/2 ((n+1)^2H + |n-1|^2H - 2 n^2H)."""
    mp = _mp(dps)
    a = 2 * mp.mpf(H)
    out = []
    for n in lags:
        n = mp.mpf(int(n))
        out.append(float(mp.mpf(V) / 2 * ((n + 1) ** a + abs(n - 1) ** a - 2 * n**a)))
    return np.array(out)


def farima00_V(d: float, sigma2: float = 1.0) -> float:
    """V = sigma2 Gamma(1-2d) / (d (1+2d) Gamma(d) Gamma(1-d)), 0 < d < 1/2."""
    mp = _mp()
    dd = mp.mpf(d)
    return float(sigma2 * mp.gamma(1 - 2 * dd) / (dd * (1 + 2 * dd) * mp.gamma(dd) * mp.gamma(1 - dd)))


def farima00_vtf(d: float, ns, sigma2: float = 1.0, dps: int = DPS) -> np.ndarray:
    """Telescoped variance-time function of FARIMA(0,d,0), 0 < d < 1/2.

    omega(n) = V [Gamma(n+1+d)/Gamma(n-d) - Gamma(1+d)/Gamma(-d)], the
    double sum of Hosking's autocovariance in closed form.
    """
    mp = _mp(dps)
    dd = mp.mpf(d)
    v = mp.mpf(sigma2) * mp.gamma(1 - 2 * dd) / (dd * (1 + 2 * dd) * mp.gamma(dd) * mp.gamma(1 - dd))
    c = mp.gamma(1 + dd) / mp.gamma(-dd)
    return np.array([float(v * (mp.gammaprod([int(n) + 1 + dd], [int(n) - dd]) - c)) for n in ns])


def farima00_vtf_range(d: float, n_max: int, sigma2: float = 1.0, block: int = 1000) -> np.ndarray:
    """Telescoped omega(0..n_max) of FARIMA(0,d,0) for every n, 0 < d < 1/2.

    R(n) = Gamma(n+1+d)/Gamma(n-d) is taken exactly from mpmath at every
    ``block``-th n and carried between anchors by the exact step
    R(n+1) = R(n) (n+1+d)/(n-d) in extended precision, so no rounding drift
    accumulates over more than ``block`` steps.
    """
    mp = _mp()
    dd = mp.mpf(d)
    v = mp.mpf(sigma2) * mp.gamma(1 - 2 * dd) / (dd * (1 + 2 * dd) * mp.gamma(dd) * mp.gamma(1 - dd))
    c = mp.gamma(1 + dd) / mp.gamma(-dd)
    n_blocks = n_max // block + 1
    starts = np.arange(n_blocks) * block
    anchors = np.array(
        [mp.gammaprod([int(a) + 1 + dd], [int(a) - dd]) for a in starts], dtype=np.longdouble
    )
    n = (starts[:, None] + np.arange(block)[None, :]).astype(np.longdouble)
    steps = (n + 1 + np.longdouble(d)) / (n - np.longdouble(d))
    steps[:, 1:] = steps[:, :-1].copy()
    steps[:, 0] = anchors
    r = np.cumprod(steps, axis=1).ravel()[: n_max + 1]
    return (np.longdouble(float(v)) * (r - np.longdouble(float(c)))).astype(np.float64)


def vtf_from_acvf(gamma, ns) -> np.ndarray:
    """omega(n) = n gamma(0) + 2 sum_(k<n) (n-k) gamma(k), exactly summed."""
    g = [float(v) for v in gamma]
    return np.array(
        [math.fsum([n * g[0]] + [2.0 * (n - k) * g[k] for k in range(1, n)]) for n in ns]
    )


def c_of_H(H: float) -> float:
    """C(H) = Gamma(2H) sin(pi H) H / pi."""
    mp = _mp()
    h = mp.mpf(H)
    return float(mp.gamma(2 * h) * mp.sin(mp.pi * h) * h / mp.pi)


def matched_V(h0: float, H: float) -> float:
    """Variance of the fGn sharing the x -> 0 power law of h(x)|2 sin pi x|^(1-2H).

    Near 0 that density is h(0) (2 pi x)^(1-2H), and the fGn density is
    V (2 pi)^(2-2H) C(H) x^(1-2H), so V = h(0) / (2 pi C(H)).
    """
    return h0 / (2.0 * math.pi * c_of_H(H))


def offset_D(d: float, gamma0: float) -> float:
    """Exact VTF offset D = d gamma(0) / (1 + 2d) of FARIMA(0,d,0)."""
    return d * gamma0 / (1.0 + 2.0 * d)


def fgn_density(H: float, V: float, xs, dps: int = DPS) -> np.ndarray:
    """fGn spectral density on (0, 1/2] through the Hurwitz zeta function.

    f(x) = 4 V sin(pi H) Gamma(2H+1) sin(pi x)^2 (2 pi)^(-2H-1)
    sum_j |j + x|^(-2H-1), and the lattice sum is zeta(s, x) + zeta(s, 1-x).
    """
    mp = _mp(dps)
    h = mp.mpf(H)
    s = 2 * h + 1
    pref = 4 * mp.mpf(V) * mp.sin(mp.pi * h) * mp.gamma(s) * (2 * mp.pi) ** (-s)
    out = []
    for x in xs:
        x = mp.mpf(float(x))
        out.append(float(pref * mp.sin(mp.pi * x) ** 2 * (mp.zeta(s, x) + mp.zeta(s, 1 - x))))
    return np.array(out)


def fracdiff_white_density(d: float, sigma2: float, xs) -> np.ndarray:
    """sigma2 |2 sin(pi x)|^(-2d)."""
    return sigma2 * np.abs(2.0 * np.sin(np.pi * np.asarray(xs, dtype=np.float64))) ** (-2.0 * d)


def path_seeds(seed: int, count: int) -> list[int]:
    """Per-path seeds: the first ``count`` uint64 words of SeedSequence(seed)."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def main() -> None:
    """Print the reference figures the benchmark's README quotes."""
    d = 0.3
    gamma0 = float(farima00_acvf(d, 0)[0])
    print(f"FARIMA(0,{d},0): V = {farima00_V(d)!r}, D = {offset_D(d, gamma0)!r}")
    print(f"matched V from h(0) = 1, H = {0.5 + d}: {matched_V(1.0, 0.5 + d)!r}")
    gamma = arma_farima_acvf(d, 0.3, 0.7, 1.0, 1024)
    for n in (0, 1, 10, 100, 799, 1024):
        print(f"FracDiff(0.8, ARMA(0.3, 0.7)) gamma({n}) = {float(gamma[n])!r}")


if __name__ == "__main__":
    main()
