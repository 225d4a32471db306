"""Declarative process specifications and their exact spectral densities.

A spec is a small immutable tree: fractional Gaussian noise (Hurst exponent
plus variance), a fractionally differenced short-memory driver, or an
independent weighted sum of sub-specs.  This module evaluates the spectral
density of any tree on [-1/2, 1/2], extracts the low-frequency power-law
prefactor, and maps a long-range dependent spec to the fractional Gaussian
noise sharing that prefactor.  The frequency convention is fixed once:
gamma(n) = integral of f(x) exp(2 pi i x n) over [-1/2, 1/2], so a unit
white noise has density identically 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernel_special import (
    HurstParam,
    Tolerance,
    _as_frequencies,
    _as_hurst,
    _as_real,
    _gamma_ratio,
    _sin_pi,
    c_of_H,
    fgn_lattice_sum,
)

__all__ = [
    "ShortMemorySpec",
    "WhiteNoise",
    "Arma",
    "Fexp",
    "ProcessSpec",
    "Fgn",
    "FracDiff",
    "Sum",
    "driver_density",
    "spectrum",
    "prefactor",
    "matched_fgn",
    "dominating_hurst",
    "spec_to_json",
    "spec_from_json",
]

_TWO_PI = 2.0 * math.pi
_ROOT_MARGIN = 1e-9


class ShortMemorySpec:
    """Marker base for short-memory driver variants."""

    __slots__ = ()


def _as_real_tuple(values, what: str) -> tuple[float, ...]:
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise DomainError(f"{what} must be a sequence of reals, got {values!r}")
    return tuple(_as_real(v, f"{what} coefficient") for v in values)


@dataclass(frozen=True)
class WhiteNoise(ShortMemorySpec):
    """Flat driver: density identically equal to the variance."""

    variance: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variance", _as_real(self.variance, "variance", positive=True))


def _reject_unit_roots(ascending: tuple[float, ...], what: str) -> None:
    # ascending = coefficients of 1 + c_1 z + ... + c_k z^k.  Causality and
    # invertibility both mean: no roots with |z| <= 1 + margin.
    if len(ascending) <= 1:
        return
    roots = np.roots(ascending[::-1])
    if roots.size and np.min(np.abs(roots)) <= 1.0 + _ROOT_MARGIN:
        worst = float(np.min(np.abs(roots)))
        raise DomainError(f"{what} polynomial has a root with |z| = {worst:.12g} <= 1 + 1e-9")


@dataclass(frozen=True)
class Arma(ShortMemorySpec):
    """Causal invertible ARMA driver.

    Density sigma^2 |theta(e^(2 pi i x))|^2 / |phi(e^(2 pi i x))|^2 with
    phi(z) = 1 - sum phi_j z^j and theta(z) = 1 + sum theta_j z^j.  Root
    conditions (all outside |z| = 1 + 1e-9) are enforced at construction.
    """

    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    innovation_variance: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ar", _as_real_tuple(self.ar, "ar"))
        object.__setattr__(self, "ma", _as_real_tuple(self.ma, "ma"))
        object.__setattr__(
            self, "innovation_variance", _as_real(self.innovation_variance, "innovation_variance", positive=True)
        )
        _reject_unit_roots((1.0, *(-a for a in self.ar)), "AR")
        _reject_unit_roots((1.0, *self.ma), "MA")


@dataclass(frozen=True)
class Fexp(ShortMemorySpec):
    """Exponential-of-cosine-polynomial driver.

    Density exp(sum_k theta_k cos(2 pi k x)); positive and smooth for any
    real coefficient vector.
    """

    theta: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _as_real_tuple(self.theta, "theta"))


class ProcessSpec:
    """Marker base for process variants."""

    __slots__ = ()


@dataclass(frozen=True)
class Fgn(ProcessSpec):
    """Fractional Gaussian noise with variance V."""

    H: HurstParam
    V: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "H", _as_hurst(self.H))
        object.__setattr__(self, "V", _as_real(self.V, "V", positive=True))


@dataclass(frozen=True)
class FracDiff(ProcessSpec):
    """Short-memory driver passed through the filter |1 - B|^(-(H - 1/2)), H < 1."""

    H: HurstParam
    driver: ShortMemorySpec = field(default_factory=WhiteNoise)

    def __post_init__(self) -> None:
        object.__setattr__(self, "H", _as_hurst(self.H))
        if self.H.H >= 1.0:
            raise DomainError("FracDiff needs H < 1 for a stationary autocovariance")
        if not isinstance(self.driver, ShortMemorySpec):
            raise DomainError(f"driver must be a ShortMemorySpec, got {type(self.driver).__name__}")


@dataclass(frozen=True)
class Sum(ProcessSpec):
    """Independent sum; weights multiply variance (amplitude squared)."""

    components: tuple[tuple[ProcessSpec, float], ...]

    def __post_init__(self) -> None:
        comps = []
        for item in self.components:
            spec, weight = item
            if not isinstance(spec, ProcessSpec):
                raise DomainError(f"Sum component must be a ProcessSpec, got {type(spec).__name__}")
            comps.append((spec, _as_real(weight, "component weight", positive=True)))
        if not comps:
            raise DomainError("Sum needs at least one component")
        object.__setattr__(self, "components", tuple(comps))


def dominating_hurst(spec: ProcessSpec) -> float:
    """Largest Hurst exponent in the tree; short-memory parts count as 1/2."""
    if isinstance(spec, (Fgn, FracDiff)):
        return max(spec.H.H, 0.5)
    if isinstance(spec, Sum):
        return max(dominating_hurst(c) for c, _ in spec.components)
    raise DomainError(f"unknown process spec {type(spec).__name__}")


def driver_density(s: ShortMemorySpec, x):
    """Short-memory spectral density h(x) on [-1/2, 1/2].

    Accepts a scalar or array argument; always finite and positive.
    """
    xa, scalar = _as_frequencies(x)
    if isinstance(s, WhiteNoise):
        out = np.full(xa.shape, s.variance)
    elif isinstance(s, Arma):
        z = np.exp(2j * math.pi * xa)
        num = np.polyval((*reversed(s.ma), 1.0), z) if s.ma else np.ones_like(z)
        den = np.polyval((*reversed(tuple(-a for a in s.ar)), 1.0), z) if s.ar else np.ones_like(z)
        out = s.innovation_variance * np.abs(num) ** 2 / np.abs(den) ** 2
    elif isinstance(s, Fexp):
        acc = np.zeros(xa.shape)
        for k, t in enumerate(s.theta, start=1):
            acc += t * np.cos(_TWO_PI * k * xa)
        out = np.exp(acc)
    else:
        raise DomainError(f"unknown driver spec {type(s).__name__}")
    return float(out[0]) if scalar else out


def _fgn_density(spec: Fgn, xa: np.ndarray, tol: Tolerance) -> np.ndarray:
    h = spec.H.H
    out = np.empty(xa.shape)
    zero = xa == 0.0
    if np.any(zero):
        if h > 0.5:
            raise DomainError("spectral density diverges at x = 0 for a long-range dependent spec")
        out[zero] = spec.V if h == 0.5 else 0.0
    nz = ~zero
    if np.any(nz):
        x = xa[nz]
        c_star = spec.V * _TWO_PI ** (2.0 - 2.0 * h) * c_of_H(h)
        out[nz] = (
            c_star
            / math.pi**2
            * _TWO_PI ** (2.0 * h + 1.0)
            * np.sin(math.pi * x) ** 2
            * fgn_lattice_sum(x, spec.H, tol)
        )
    return out


def _fracdiff_density(spec: FracDiff, xa: np.ndarray, tol: Tolerance) -> np.ndarray:
    d2 = 2.0 * spec.H.d
    out = np.empty(xa.shape)
    zero = xa == 0.0
    if np.any(zero):
        if d2 > 0.0:
            raise DomainError("spectral density diverges at x = 0 for a long-range dependent spec")
        out[zero] = driver_density(spec.driver, 0.0) if d2 == 0.0 else 0.0
    nz = ~zero
    if np.any(nz):
        x = xa[nz]
        out[nz] = driver_density(spec.driver, x) * np.abs(2.0 * np.sin(math.pi * x)) ** (-d2)
    return out


def _spectrum_array(spec: ProcessSpec, xa: np.ndarray, tol: Tolerance) -> np.ndarray:
    if isinstance(spec, Fgn):
        return _fgn_density(spec, xa, tol)
    if isinstance(spec, FracDiff):
        return _fracdiff_density(spec, xa, tol)
    if isinstance(spec, Sum):
        acc = np.zeros(xa.shape)
        for comp, weight in spec.components:
            acc += weight * _spectrum_array(comp, xa, tol)
        return acc
    raise DomainError(f"unknown process spec {type(spec).__name__}")


def spectrum(spec: ProcessSpec, x, tol: Tolerance = Tolerance()):
    """Spectral density f(x) of the spec on [-1/2, 1/2].

    Fgn uses the lattice-sum closed form, FracDiff multiplies its driver
    density by |2 sin(pi x)|^(1 - 2H), Sum adds weighted components.
    x = 0 is rejected for long-range dependent specs (the density diverges
    there) and evaluates to the flat/vanishing limit otherwise.
    """
    xa, scalar = _as_frequencies(x)
    out = _spectrum_array(spec, xa, tol)
    return float(out[0]) if scalar else out


def prefactor(spec: ProcessSpec) -> float:
    """Power-law prefactor c_f = lim_(x -> 0) x^(2H - 1) f(x), H = dominating Hurst.

    For a fractionally differenced spec this is (2 pi)^(1 - 2H) h(0); for
    fractional Gaussian noise it is V (2 pi)^(2 - 2H) C(H).  Sum components
    below the dominating exponent contribute nothing.
    """
    hd = dominating_hurst(spec)
    if hd <= 0.5:
        raise DomainError("no long-range prefactor for a short-range spec")
    if isinstance(spec, Fgn):
        return spec.V * _TWO_PI ** (2.0 - 2.0 * hd) * c_of_H(hd)
    if isinstance(spec, FracDiff):
        return _TWO_PI ** (1.0 - 2.0 * hd) * driver_density(spec.driver, 0.0)
    acc = 0.0
    for comp, weight in spec.components:
        if dominating_hurst(comp) == hd:
            acc += weight * prefactor(comp)
    return acc


def matched_fgn(spec: ProcessSpec) -> Fgn:
    """Fractional Gaussian noise with the same dominating H and prefactor.

    Returns Fgn(H_dom, V) with V = c_f / ((2 pi)^(2 - 2H) C(H)), the unique
    fGn whose density shares the x -> 0 power law of the spec.  Idempotent
    on fGn inputs.  V is formed per dominating component: an fGn's own V,
    or h(0) / (2 pi C(H)) for a FracDiff, in one extended-precision
    expression; a Sum adds them with its weights.
    """
    if isinstance(spec, Fgn):
        if not (0.5 < spec.H.H < 1.0):
            raise DomainError("matching requires a long-range dependent spec")
        return spec
    hd = dominating_hurst(spec)
    if not (0.5 < hd < 1.0):
        raise DomainError("matching requires a long-range dependent spec")
    return Fgn(HurstParam(hd), _matched_v(spec, hd))


def _matched_v(spec: ProcessSpec, hd: float) -> float:
    if isinstance(spec, Fgn):
        return spec.V
    if isinstance(spec, FracDiff):
        # h(0) / (2 pi C(H)) = h(0) / (2 H sin(pi H) Gamma(2H))
        return _gamma_ratio([], [2.0 * hd], driver_density(spec.driver, 0.0) / (2 * hd * _sin_pi(hd)))
    return sum(w * _matched_v(comp, hd) for comp, w in spec.components if dominating_hurst(comp) == hd)


# JSON (de)serialisation for the CLI.  Parsing is strict: unknown fields
# are rejected rather than ignored.


def _check_fields(obj: dict, what: str, required: frozenset, optional: frozenset) -> None:
    keys = set(obj) - {"type"}
    unknown = keys - required - optional
    if unknown:
        raise DomainError(f"unknown fields {sorted(unknown)} in {what} spec")
    missing = required - keys
    if missing:
        raise DomainError(f"missing fields {sorted(missing)} in {what} spec")


def _json_number(obj: dict, key: str, what: str, default=None) -> float:
    return _as_real(obj[key], f"field {key!r} of {what} spec") if key in obj else default


def _driver_from_json(obj) -> ShortMemorySpec:
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise DomainError("driver spec must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "white":
        _check_fields(obj, "white", frozenset(), frozenset({"sigma2"}))
        return WhiteNoise(_json_number(obj, "sigma2", "white", 1.0))
    if kind == "arma":
        _check_fields(obj, "arma", frozenset(), frozenset({"ar", "ma", "sigma2"}))
        return Arma(obj.get("ar", ()), obj.get("ma", ()), _json_number(obj, "sigma2", "arma", 1.0))
    if kind == "fexp":
        _check_fields(obj, "fexp", frozenset({"theta"}), frozenset())
        return Fexp(obj["theta"])
    raise DomainError(f"unknown driver type {kind!r}")


def spec_from_json(obj) -> ProcessSpec:
    """Parse the CLI's process-spec JSON into a ProcessSpec tree."""
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise DomainError("process spec must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "fgn":
        _check_fields(obj, "fgn", frozenset({"H", "V"}), frozenset())
        return Fgn(HurstParam(_json_number(obj, "H", "fgn")), _json_number(obj, "V", "fgn"))
    if kind == "fracdiff":
        _check_fields(obj, "fracdiff", frozenset({"H", "driver"}), frozenset())
        return FracDiff(HurstParam(_json_number(obj, "H", "fracdiff")), _driver_from_json(obj["driver"]))
    if kind == "fexp":
        # Sugar: a bare FEXP process is its driver, optionally wrapped to a
        # long-range spec by an explicit H (default 1/2, i.e. no filter).
        _check_fields(obj, "fexp", frozenset({"theta"}), frozenset({"H"}))
        h = _json_number(obj, "H", "fexp", 0.5)
        return FracDiff(HurstParam(h), Fexp(obj["theta"]))
    if kind == "sum":
        _check_fields(obj, "sum", frozenset({"components"}), frozenset())
        comps = obj["components"]
        if not isinstance(comps, list) or not comps:
            raise DomainError("'components' must be a non-empty list")
        pairs = []
        for item in comps:
            if not isinstance(item, dict):
                raise DomainError("sum component must be an object")
            _check_fields(item, "sum component", frozenset({"spec"}), frozenset({"weight"}))
            pairs.append((spec_from_json(item["spec"]), _json_number(item, "weight", "sum component", 1.0)))
        return Sum(tuple(pairs))
    raise DomainError(f"unknown process type {kind!r}")


def _driver_to_json(s: ShortMemorySpec) -> dict:
    if isinstance(s, WhiteNoise):
        return {"type": "white", "sigma2": s.variance}
    if isinstance(s, Arma):
        return {"type": "arma", "ar": list(s.ar), "ma": list(s.ma), "sigma2": s.innovation_variance}
    if isinstance(s, Fexp):
        return {"type": "fexp", "theta": list(s.theta)}
    raise DomainError(f"unknown driver spec {type(s).__name__}")


def spec_to_json(spec: ProcessSpec) -> dict:
    """Canonical JSON form of a ProcessSpec; inverse of spec_from_json."""
    if isinstance(spec, Fgn):
        return {"type": "fgn", "H": spec.H.H, "V": spec.V}
    if isinstance(spec, FracDiff):
        return {"type": "fracdiff", "H": spec.H.H, "driver": _driver_to_json(spec.driver)}
    if isinstance(spec, Sum):
        return {
            "type": "sum",
            "components": [{"spec": spec_to_json(c), "weight": w} for c, w in spec.components],
        }
    raise DomainError(f"unknown process spec {type(spec).__name__}")
