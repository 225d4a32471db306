"""Shared numeric helpers for tests."""

import math

import mpmath
import numpy as np

from lrdlab.covariance_engine import _fgn_block
from lrdlab.process_model import FracDiff, Sum
from lrdlab.vtf_aggregation import _lags


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


def per_k_vtf(view, n, offset: bool):
    """view.omega(n), or view.offset(n), summed one driver lag k at a time.

    The direct form of a FracDiff's driver sum, the reference for the
    library's shared window table: each k = -K..K evaluates the
    FARIMA(0,d,0) omega (or offset) on the whole lag array, and Python's
    sum adds the 2K+1 arrays in that order.  Fgn views are the library's
    own; a Sum weights the references of its components.
    """
    lags = np.atleast_1d(_lags(n))
    out = _per_k_values(view, lags, offset)
    out[lags == 0] = 0.0
    return float(out[0]) if np.ndim(n) == 0 else out


def _per_k_values(view, n, offset):
    spec = view.spec
    if isinstance(spec, Sum):
        parts = zip(view.components, spec.components)
        return sum(w * _per_k_values(p, n, offset and p.H == view.H) for p, (_, w) in parts)
    if not isinstance(spec, FracDiff):
        return view._values(n, offset)
    gh, unit = view._gh, view._unit
    k_top = len(gh) - 1
    out = sum(gh[abs(k)] * unit.values(np.abs(n + k), offset) for k in range(-k_top, k_top + 1))
    if offset:
        out = out + 2.0 * unit.V * sum(
            gh[k] * k**unit.a * _fgn_block(spec.H.H, 1.0, n / k) for k in range(1, k_top + 1)
        )
    return out - view._c
