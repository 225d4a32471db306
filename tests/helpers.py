"""Shared numeric helpers for tests."""

import math

import mpmath
import numpy as np


def ulp_error(got: float, want) -> float:
    """|got - want| in units of the last place of want rounded to double."""
    return float(abs(mpmath.mpf(got) - want) / math.ulp(float(want)))


def f_alpha(alpha: float, x, y):
    """Second-difference kernel |x - y|^alpha + (x + y)^alpha - 2 x^alpha.

    The monotonicity and envelope bounds of this kernel (in x, for fixed
    y > 0) drive several decay arguments; tests probe it on dense grids.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.abs(x - y) ** alpha + (x + y) ** alpha - 2.0 * x**alpha


def farima00_offset_constants(d: float) -> tuple[float, float]:
    """Exact (D, c) in omega(n) - V n^(2H) = D + c n^(2H-2) + O(n^(2H-4)).

    For unit-variance FARIMA(0,d,0), 0 < d < 1/2, Hosking's (1981)
    autocovariance gamma(k) = gamma(0) Gamma(k+d) Gamma(1-d) /
    (Gamma(k+1-d) Gamma(d)) telescopes in the double sum, giving
    omega(n) = V [Gamma(n+1+d)/Gamma(n-d) - Gamma(1+d)/Gamma(-d)] with
    V = Gamma(1-2d) / (d (1+2d) Gamma(d) Gamma(1-d)).  Expanding the
    Gamma ratio in n yields D = d gamma(0) / (1+2d) and
    c = -V d (1+d) (1+2d) / 6.  Computed with math.lgamma only, so it
    shares no code with the library under test.
    """
    gamma0 = math.exp(math.lgamma(1.0 - 2.0 * d) - 2.0 * math.lgamma(1.0 - d))
    v = math.exp(math.lgamma(1.0 - 2.0 * d) - math.lgamma(d) - math.lgamma(1.0 - d)) / (
        d * (1.0 + 2.0 * d)
    )
    return d * gamma0 / (1.0 + 2.0 * d), -v * d * (1.0 + d) * (1.0 + 2.0 * d) / 6.0
