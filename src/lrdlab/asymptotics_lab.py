"""Finite-scale verification of closeness and convergence asymptotics.

Measures how fast exact second-order quantities approach their
renormalisation fixed point: the additive VTF offset and its closed-form
candidates, correlation-time convergence exponents, spectral and
autocovariance gap profiles, and perturbation experiments that compare a
process against a noisy variant sharing the same fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance_engine import acvf, g_fourier_coeffs
from .errors import CoverageError, DomainError
from .kernel_special import HurstParam, Tolerance, _as_frequencies, _as_int, _as_real, _gamma_ratio, _trigamma
from .process_model import (
    Arma,
    Fgn,
    FracDiff,
    ProcessSpec,
    Sum,
    WhiteNoise,
    matched_fgn,
    spec_to_json,
    spectrum,
)
from .vtf_aggregation import VtfView

__all__ = [
    "OffsetEvidence",
    "SlopeReport",
    "SpectralGapProfile",
    "AcvfGapProfile",
    "BrittlenessExperiment",
    "BrittlenessResult",
    "ClosenessReport",
    "vtf_offset",
    "ctf_convergence_slope",
    "spectral_gap_profile",
    "acvf_gap_profile",
    "run_brittleness",
    "builtin_experiment",
    "closeness_report",
    "report_to_json",
    "closeness_csv_rows",
    "brittleness_csv_rows",
]

# Relative tolerance for declaring a closed-form offset candidate equal to
# the measured value.
_REL_MATCH = 1e-4

# Relative change between the last two probes below which the VTF offset
# counts as stabilised.
_STABILISATION_TOL = 1e-3

# Terms of the G-coefficient sums behind the closed-form offset candidates.
_J_SUM = 2048


def _int_grid(values, what: str, minimum: int = 1) -> tuple[int, ...]:
    if isinstance(values, str) or not np.iterable(values):
        raise DomainError(f"{what} must be integers >= {minimum}, got {values!r}")
    out = tuple(_as_int(v, what, minimum) for v in values)
    if not out:
        raise DomainError(f"{what} must be non-empty")
    return out


def _offsets(view: VtfView, v_star: float, n) -> np.ndarray:
    # omega(n) - omega*(n) from the view's own offset: a V* that differs
    # from the view's V in the last digits adds (V - V*) n^(2H).
    return view.offset(n) + (view.V - v_star) * np.asarray(n, dtype=np.float64) ** (2.0 * view.H.H)


@dataclass(frozen=True)
class OffsetEvidence:
    """Stabilisation record for the additive VTF offset.

    ``offsets`` holds omega(n) - omega*(n) at each probe; ``limit_fitted``
    and ``rate_coefficient`` come from a least-squares fit of
    offset(n) = D + c n^(2H-2) over the probes, which removes the leading
    transient that the raw endpoint value still carries.  ``D_exact`` is
    the exact limit of omega(n) - V n^(2H) (:attr:`VtfView.D`).  The two
    closed-form candidates are 0 for fGn and None for a Sum, which has
    none.
    """

    probes: tuple[int, ...]
    offsets: tuple[float, ...]
    converged: bool
    last_delta: float
    D_exact: float
    limit_fitted: float
    rate_coefficient: float
    D_formula_signed: float | None
    D_formula_abs: float | None


def _offset_closed_forms(
    spec: ProcessSpec, v_star: float, tol: Tolerance
) -> tuple[float, float] | tuple[None, None]:
    # -2V sum_j j^(2H) G_j in signed and absolute-value variants.  The
    # summand decays like j^-2, so the truncated tail is accelerated with
    # the fitted j^-(2H+2) coefficient envelope: sum_{j>J} j^(2H) G_j
    # ~ c_env psi'(J+1).  fGn is its own fixed point (G = 0); a Sum has
    # no such formula.
    if isinstance(spec, Fgn):
        return 0.0, 0.0
    if not isinstance(spec, FracDiff):
        return None, None
    coeffs = g_fourier_coeffs(spec.H, spec.driver, J_max=_J_SUM, tol=tol)
    h2 = 2.0 * spec.H.H
    j = np.arange(1, coeffs.j_max + 1, dtype=np.float64)
    g = coeffs.values[1:]
    weighted = j**h2 * g
    lo = max(64, coeffs.j_max // 4)
    c_env = float(np.mean(j[lo - 1 :] ** (h2 + 2.0) * g[lo - 1 :]))
    tail = _trigamma(coeffs.j_max + 1)
    scale = -2.0 * v_star
    signed = scale * (math.fsum(weighted) + c_env * tail)
    absolute = scale * (math.fsum(np.abs(weighted)) + abs(c_env) * tail)
    return signed, absolute


def vtf_offset(view: VtfView, n_probe, *, tol: Tolerance = Tolerance()) -> tuple[float, OffsetEvidence]:
    """Additive VTF offset omega(n) - omega*(n) probed at increasing scales.

    omega* is the VTF of the spec's matched fGn.  Returns the offset at the
    largest probe together with the evidence sequence.  ``converged`` means
    the last two probes agree within 1e-3 relative to the offset itself (an
    offset of exactly 0, as for fGn, counts as stable).  The exact limit
    comes with the closed-form VTF; both closed-form candidates for it are
    computed from the coefficients of the density ratio (to tolerance
    ``tol``), and a fitted limit extrapolating the n^(2H-2) transient is
    included for diagnosis.
    """
    spec = view.spec
    star = matched_fgn(spec)
    probes = tuple(sorted(set(_int_grid(n_probe, "n_probe"))))
    if len(probes) < 2:
        raise DomainError("need at least two probe scales")

    offsets = tuple(float(off) for off in _offsets(view, star.V, probes))
    d_hat = offsets[-1]
    last_delta = abs(offsets[-1] - offsets[-2])
    converged = d_hat == 0.0 or last_delta <= _STABILISATION_TOL * abs(d_hat)

    x = np.array(probes, dtype=np.float64) ** (2.0 * star.H.H - 2.0)
    rate, limit = np.polyfit(x, np.array(offsets), 1)
    signed, absolute = _offset_closed_forms(spec, star.V, tol)
    evidence = OffsetEvidence(
        probes=probes,
        offsets=offsets,
        converged=bool(converged),
        last_delta=float(last_delta),
        D_exact=view.D,
        limit_fitted=float(limit),
        rate_coefficient=float(rate),
        D_formula_signed=signed,
        D_formula_abs=absolute,
    )
    return d_hat, evidence


@dataclass(frozen=True)
class SlopeReport:
    """Least-squares convergence exponent of the aggregated-CTF gap.

    ``slope_hat`` is fitted over the top decade of usable levels, where the
    power law has shed most of its transient; ``slope_full_range`` keeps
    every usable level and is reported as a diagnostic.
    """

    n: int
    levels: tuple[int, ...]
    gaps: tuple[float, ...]
    slope_hat: float
    slope_full_range: float
    levels_used: tuple[int, ...]
    coeff_measured: float
    coeff_predicted: float | None
    saturated: bool


def _loglog_slope(pairs) -> float:
    """Least-squares slope of log|y| against log x over (x, y) pairs."""
    return float(np.polyfit(np.log([x for x, _ in pairs]), np.log([abs(y) for _, y in pairs]), 1)[0])


def _top_decade(pairs) -> list:
    """The (x, y) pairs, x ascending, within a decade of the last x, or the last two if fewer."""
    top = [(x, y) for x, y in pairs if 10 * x >= pairs[-1][0]]
    return top if len(top) >= 2 else list(pairs[-2:])


def ctf_convergence_slope(view: VtfView, n: int, levels) -> SlopeReport:
    """Fit log|rho^(m)(n) - n^(2H)| against log m over aggregation levels.

    Levels must span at least two decades.  Levels whose gap sits at the
    rounding floor are discarded; if fewer than two remain the gap has
    already converged and the report says saturated instead of fitting
    noise.  Whenever the exact offset limit D is finite, the predicted
    leading coefficient (D/V*)(1 - n^(2H)), V* the matched fGn variance,
    is attached for comparison with the measured gap at the largest level,
    scaled by m^(2H).
    """
    star = matched_fgn(view.spec)
    n = _as_int(n, "lag n", 1)
    lv = tuple(sorted(set(_int_grid(levels, "levels"))))
    if len(lv) < 3 or lv[-1] < 100 * lv[0]:
        raise DomainError("levels must span at least two decades")

    # rho^(m)(n) - n^(2H) = [offset(mn) - n^(2H) offset(m)] / omega(m): the
    # V (mn)^(2H) terms cancel exactly, not in rounding.
    h2 = 2.0 * star.H.H
    rho_star = float(n) ** h2
    gap = (view.offset([m * n for m in lv]) - rho_star * view.offset(lv)) / view.omega(lv)
    gaps = tuple(float(g) for g in gap)

    floor = 1e-14 * rho_star
    usable = [(m, g) for m, g in zip(lv, gaps) if abs(g) > floor]
    if len(usable) < 2:
        return SlopeReport(
            n=n,
            levels=lv,
            gaps=gaps,
            slope_hat=0.0,
            slope_full_range=0.0,
            levels_used=(),
            coeff_measured=0.0,
            coeff_predicted=None,
            saturated=True,
        )

    slope_full = _loglog_slope(usable)
    top = _top_decade(usable)
    slope_hat = _loglog_slope(top)

    m_top, gap_top = usable[-1]
    coeff_measured = gap_top * float(m_top) ** h2
    coeff_predicted = view.D / star.V * (1.0 - rho_star) if math.isfinite(view.D) else None
    return SlopeReport(
        n=n,
        levels=lv,
        gaps=gaps,
        slope_hat=slope_hat,
        slope_full_range=slope_full,
        levels_used=tuple(m for m, _ in top),
        coeff_measured=coeff_measured,
        coeff_predicted=coeff_predicted,
        saturated=False,
    )


@dataclass(frozen=True)
class SpectralGapProfile:
    """Density gap phi = f - f* on a grid, with its origin power law."""

    x: tuple[float, ...]
    phi: tuple[float, ...]
    slope_near_zero: float
    nonnegative_on_grid: bool
    degenerate: bool


def spectral_gap_profile(spec: ProcessSpec, x_grid, tol: Tolerance = Tolerance()) -> SpectralGapProfile:
    """Evaluate phi(x) = f(x) - f*(x) and fit its log-log slope near zero.

    f* is the density of the spec's matched fGn.  The slope is fitted over
    grid points with x <= 1e-2 (falling back to the lowest two decades
    when the grid has too few such points); the non-negativity of phi on
    the grid is recorded, not asserted.  A gap that vanishes identically
    is flagged degenerate with slope 0.
    """
    star = matched_fgn(spec)
    xa = np.sort(_as_frequencies(x_grid, "x_grid")[0])
    if xa.size == 0:
        raise DomainError("x_grid must be non-empty")
    if not xa[0] > 0.0:
        raise DomainError("x_grid must lie inside (0, 1/2]")

    f_star = np.atleast_1d(spectrum(star, xa, tol))
    phi = np.atleast_1d(spectrum(spec, xa, tol)) - f_star
    nonneg = bool(np.all(phi >= -1e-10 * f_star))

    x_out = tuple(float(v) for v in xa)
    phi_out = tuple(float(v) for v in phi)
    nonzero = np.abs(phi) > 0.0
    if not np.any(nonzero):
        return SpectralGapProfile(x_out, phi_out, 0.0, nonneg, True)
    window = nonzero & (xa <= 1e-2)
    if np.count_nonzero(window) < 3:
        window = nonzero & (xa <= 100.0 * xa[0])
    if np.count_nonzero(window) < 3:
        window = nonzero
    slope = float(np.polyfit(np.log(xa[window]), np.log(np.abs(phi[window])), 1)[0])
    return SpectralGapProfile(x_out, phi_out, slope, nonneg, False)


@dataclass(frozen=True)
class AcvfGapProfile:
    """Autocovariance gap d_n = gamma(n) - gamma*(n) and derived checks.

    ``envelope`` is n^(4-2H)|d_n| (zero at n = 0 by convention);
    ``envelope_variation`` is max/min - 1 over grid points in [1e3, 1e4].
    ``partial_sum_at_grid`` tabulates T(n) = sum_{k<n} (S - s_k) with s_k
    the symmetric partial sums of d and S their full-range value; T stays
    bounded exactly when the gap sums to zero fast enough.
    """

    n: tuple[int, ...]
    d: tuple[float, ...]
    envelope: tuple[float, ...]
    envelope_variation: float | None
    coefficient_sum: float
    partial_sum_at_grid: tuple[float, ...]
    partial_sum_max: float


def acvf_gap_profile(spec: ProcessSpec, n_grid, tol: Tolerance = Tolerance()) -> AcvfGapProfile:
    """Tabulate the autocovariance gap against the matched fGn.

    The gap is computed on every lag up to max(n_grid) (at most 1e4) so the
    partial-sum boundedness check is exact; the profile reports the
    requested grid points only.
    """
    star = matched_fgn(spec)
    grid = tuple(sorted(set(_int_grid(n_grid, "n_grid", minimum=0))))
    if grid[-1] > 10_000:
        raise DomainError(f"lag grid beyond 10000 is not supported, got {grid[-1]}")
    n_top = grid[-1]

    table = acvf(spec, n_top, tol)
    d_full = table.values[: n_top + 1] - acvf(star, n_top, tol).values

    idx = np.array(grid, dtype=np.intp)
    d_at = d_full[idx]
    na = idx.astype(np.float64)
    envelope = na ** (4.0 - 2.0 * star.H.H) * np.abs(d_at)

    in_window = (na >= 1_000.0) & (na <= 10_000.0)
    variation: float | None = None
    if np.count_nonzero(in_window) >= 2:
        w = envelope[in_window]
        variation = 0.0 if w.max() == 0.0 else float(w.max() / w.min() - 1.0)

    two_sided = d_full.copy()
    two_sided[1:] *= 2.0
    s = np.cumsum(two_sided)
    total = float(s[-1])
    t = np.concatenate(([0.0], np.cumsum(total - s[:-1])))
    return AcvfGapProfile(
        n=grid,
        d=tuple(float(v) for v in d_at),
        envelope=tuple(float(v) for v in envelope),
        envelope_variation=variation,
        coefficient_sum=total,
        partial_sum_at_grid=tuple(float(t[g]) for g in grid),
        partial_sum_max=float(np.max(np.abs(t))),
    )


@dataclass(frozen=True)
class BrittlenessExperiment:
    """A base process plus an additive perturbation sharing its fixed point.

    The perturbed process is base + sqrt(weight) * noise (independent), so
    ``weight`` scales the noise variance.  Construction asserts that the
    perturbation does not shift the renormalisation fixed point.
    """

    base: ProcessSpec
    noise: ProcessSpec
    weight: float
    levels: tuple[int, ...] = (1, 10, 100)
    lags: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", _as_real(self.weight, "weight", positive=True))
        object.__setattr__(self, "levels", _int_grid(self.levels, "levels"))
        object.__setattr__(self, "lags", _int_grid(self.lags, "lags"))
        fp_base = matched_fgn(self.base)
        fp_sum = matched_fgn(self.perturbed())
        if abs(fp_sum.H.H - fp_base.H.H) > 1e-10 or abs(fp_sum.V / fp_base.V - 1.0) > 1e-10:
            raise DomainError(
                "perturbation shifts the fixed point: base matches "
                f"(H={fp_base.H.H!r}, V={fp_base.V!r}) but the sum matches "
                f"(H={fp_sum.H.H!r}, V={fp_sum.V!r})"
            )

    def perturbed(self) -> Sum:
        return Sum(((self.base, 1.0), (self.noise, self.weight)))


@dataclass(frozen=True)
class BrittlenessResult:
    """Normalised VTF ratios omega(mn)/omega*(mn) for base and perturbed.

    ``fixed_point`` is the matched fGn of the base process.
    """

    experiment: BrittlenessExperiment
    fixed_point: Fgn
    rows: tuple[tuple[str, int, int, float], ...]

    def ratio(self, label: str, m: int, n: int) -> float:
        for row_label, row_m, row_n, value in self.rows:
            if row_label == label and row_m == m and row_n == n:
                return value
        raise CoverageError(f"no row for ({label!r}, m={m}, n={n})")

    def series(self, label: str, m: int) -> tuple[tuple[int, float], ...]:
        return tuple((n, v) for lbl, mm, n, v in self.rows if lbl == label and mm == m)


def run_brittleness(experiment: BrittlenessExperiment, tol: Tolerance = Tolerance()) -> BrittlenessResult:
    """Tabulate omega^(m)(n)/omega*^(m)(n) for the base and perturbed process.

    Each process is normalised by its own matched fixed point, so both
    ratio families tend to 1 under aggregation; the perturbed one gets
    there more slowly.
    """
    fp = matched_fgn(experiment.base)
    perturbed = VtfView(experiment.perturbed(), tol)
    grid = [(m, n) for m in experiment.levels for n in experiment.lags]
    rows: list[tuple[str, int, int, float]] = []
    # The base is the perturbed Sum's first component, already built.
    for label, view in (("base", perturbed.components[0]), ("perturbed", perturbed)):
        own = matched_fgn(view.spec)
        omega = view.omega([m * n for m, n in grid])
        rows.extend(
            (label, m, n, float(w) / (own.V * float(m * n) ** (2.0 * own.H.H))) for (m, n), w in zip(grid, omega)
        )
    return BrittlenessResult(experiment=experiment, fixed_point=fp, rows=tuple(rows))


def _unit_variance_white_farima(d: float) -> FracDiff:
    # Innovation variance chosen so the process variance is exactly 1.
    dl = np.longdouble(d)
    sigma2 = _gamma_ratio([1 - dl, 1 - dl], [1 - 2 * dl])
    return FracDiff(HurstParam(0.5 + d), WhiteNoise(sigma2))


def builtin_experiment(index: int) -> BrittlenessExperiment:
    """The three stock perturbation set-ups (weight 0.1, levels 1/10/100).

    1: long-memory base with white noise.  2: ARMA-driven long-memory base
    with the same ARMA as noise.  3: long-memory base with weaker
    long-memory noise.  All components are normalised to unit process
    variance.
    """
    index = _as_int(index, "experiment index", None)
    if index == 1:
        base: ProcessSpec = _unit_variance_white_farima(0.3)
        noise: ProcessSpec = Fgn(HurstParam(0.5), 1.0)
    elif index == 2:
        ar, ma = (0.3,), (0.7,)
        raw = FracDiff(HurstParam(0.8), Arma(ar, ma, 1.0))
        scale = acvf(raw, 0).gamma(0)
        base = FracDiff(HurstParam(0.8), Arma(ar, ma, 1.0 / scale))
        arma_var = (1.0 + 2.0 * ar[0] * ma[0] + ma[0] ** 2) / (1.0 - ar[0] ** 2)
        noise = FracDiff(HurstParam(0.5), Arma(ar, ma, 1.0 / arma_var))
    elif index == 3:
        base = _unit_variance_white_farima(0.3)
        noise = _unit_variance_white_farima(0.2)
    else:
        raise DomainError(f"experiment index must be 1, 2 or 3, got {index!r}")
    return BrittlenessExperiment(base=base, noise=noise, weight=0.1)


@dataclass(frozen=True)
class ClosenessReport:
    """Bundle of closeness diagnostics for one spec against its fixed point.

    ``D_hat`` is the offset at the largest probe, ``D_exact`` its exact
    limit.  ``matched_candidate`` names which closed-form candidate for the
    limit agrees with D_exact within 1e-4 relative ("signed", "absolute",
    "both" or "neither", which an infinite D_exact and a Sum, whose
    candidates are None, always get).  ``curves`` holds the labelled
    (abscissa, value) series behind the scalar summaries.
    """

    spec: ProcessSpec
    fixed_point: Fgn
    D_hat: float
    D_exact: float
    D_formula_signed: float | None
    D_formula_abs: float | None
    beta_hat: float
    slope_hat: float
    matched_candidate: str
    offset_converged: bool
    slope_saturated: bool
    curves: tuple[tuple[str, tuple[tuple[float, float], ...]], ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.D_hat):
            raise DomainError(f"D_hat must be finite, got {self.D_hat!r}")
        h2 = 2.0 * self.fixed_point.H.H
        if not (0.0 <= self.beta_hat <= h2):
            raise DomainError(f"beta_hat must lie in [0, {h2}], got {self.beta_hat!r}")
        if self.slope_hat > 0.0:
            raise DomainError(f"slope_hat must be <= 0, got {self.slope_hat!r}")

    def curve(self, label: str) -> tuple[tuple[float, float], ...]:
        for name, points in self.curves:
            if name == label:
                return points
        raise CoverageError(f"no curve labelled {label!r}")


def _candidate_name(limit: float, signed: float | None, absolute: float | None, scale: float) -> str:
    if signed is None or absolute is None or not math.isfinite(limit):
        return "neither"
    tol = max(_REL_MATCH * abs(limit), 1e-8 * scale)
    matches_signed = abs(signed - limit) <= tol
    matches_abs = abs(absolute - limit) <= tol
    if matches_signed and matches_abs:
        return "both"
    if matches_signed:
        return "signed"
    if matches_abs:
        return "absolute"
    return "neither"


def closeness_report(
    spec: ProcessSpec,
    *,
    n_probe=(1_000, 2_000, 5_000, 10_000),
    slope_n: int = 2,
    slope_levels=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    x_grid=None,
    acvf_grid=None,
    tol: Tolerance = Tolerance(),
) -> ClosenessReport:
    """Run every closeness diagnostic on one spec with one shared VTF.

    Defaults: offset probes 1e3/2e3/5e3/1e4, slope at lag 2 over levels
    2^0..2^10, spectral grid geomspace(1e-4, 1/2, 49), autocovariance grid
    61 log-spaced lags up to 1e4.  beta_hat is the growth exponent of
    |offset(n)|, fitted over the probes in the top decade (the last two if
    it holds one) as the slope is, reported as 0 when the offset has
    stabilised or fewer than two probes have a non-zero offset, and clamped
    into [0, 2H] (its defining range as a growth index).
    """
    fp = matched_fgn(spec)
    probes = tuple(sorted(set(_int_grid(n_probe, "n_probe"))))
    lv = _int_grid(slope_levels, "slope_levels")
    grid = (
        tuple(sorted(set(np.round(np.geomspace(1.0, 10_000.0, 61)).astype(int).tolist())))
        if acvf_grid is None
        else tuple(sorted(set(_int_grid(acvf_grid, "acvf_grid", minimum=0))))
    )
    xg = np.geomspace(1e-4, 0.5, 49) if x_grid is None else x_grid

    view = VtfView(spec, tol)

    d_hat, evidence = vtf_offset(view, probes, tol=tol)
    slope = ctf_convergence_slope(view, slope_n, lv)
    spectral = spectral_gap_profile(spec, xg, tol)
    gap = acvf_gap_profile(spec, grid, tol)

    nonzero = [(n, off) for n, off in zip(evidence.probes, evidence.offsets) if abs(off) > 0.0]
    if evidence.converged or len(nonzero) < 2:
        beta = 0.0
    else:
        beta = min(max(_loglog_slope(_top_decade(nonzero)), 0.0), 2.0 * fp.H.H)

    curves = (
        ("vtf_offset", tuple((float(n), off) for n, off in zip(evidence.probes, evidence.offsets))),
        ("ctf_gap", tuple((float(m), g) for m, g in zip(slope.levels, slope.gaps))),
        ("spectral_gap", tuple(zip(spectral.x, spectral.phi))),
        ("acvf_gap", tuple((float(n), d) for n, d in zip(gap.n, gap.d))),
    )
    return ClosenessReport(
        spec=spec,
        fixed_point=fp,
        D_hat=d_hat,
        D_exact=evidence.D_exact,
        D_formula_signed=evidence.D_formula_signed,
        D_formula_abs=evidence.D_formula_abs,
        beta_hat=beta,
        slope_hat=slope.slope_hat,
        matched_candidate=_candidate_name(
            evidence.D_exact, evidence.D_formula_signed, evidence.D_formula_abs, fp.V
        ),
        offset_converged=evidence.converged,
        slope_saturated=slope.saturated,
        curves=curves,
    )


def report_to_json(report: ClosenessReport) -> dict:
    """ClosenessReport as a JSON-serialisable dict (spec in schema form)."""
    return {
        "spec": spec_to_json(report.spec),
        "fixed_point": {"H": report.fixed_point.H.H, "V": report.fixed_point.V},
        "D_hat": report.D_hat,
        "D_exact": report.D_exact,
        "D_formula_signed": report.D_formula_signed,
        "D_formula_abs": report.D_formula_abs,
        "beta_hat": report.beta_hat,
        "slope_hat": report.slope_hat,
        "matched_candidate": report.matched_candidate,
        "offset_converged": report.offset_converged,
        "slope_saturated": report.slope_saturated,
        "curves": {label: [[a, v] for a, v in points] for label, points in report.curves},
    }


# Curve labels whose abscissa is an aggregation level rather than a lag.
_LEVEL_CURVES = frozenset({"ctf_gap"})


def closeness_csv_rows(report: ClosenessReport) -> list[tuple[str, float | None, float | None, float]]:
    """Rows (series_label, m, n, value) for CSV export."""
    rows: list[tuple[str, float | None, float | None, float]] = []
    for label, points in report.curves:
        for abscissa, value in points:
            if label in _LEVEL_CURVES:
                rows.append((label, abscissa, None, value))
            else:
                rows.append((label, None, abscissa, value))
    return rows


def brittleness_csv_rows(result: BrittlenessResult) -> list[tuple[str, float | None, float | None, float]]:
    """Rows (series_label, m, n, value) for CSV export."""
    return [(label, float(m), float(n), value) for label, m, n, value in result.rows]
