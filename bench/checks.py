"""Correctness checks of the program's outputs against ``references``.

Every allowance comes from the library's documented error budget,
``Tolerance`` (``abs_tol`` and ``rel_tol``, passed in as numbers): an
autocovariance value may miss its reference by max(abs_tol,
rel_tol |gamma|), and a quantity built linearly from autocovariances may
miss by the same budget carried through that linear map.  A derived scale
such as the matched-fGn variance V gets the relative budget rel_tol.  No
allowance is read off the program's current output.

A check returns a :class:`Verdict`.  ``passed`` says the output is within
its allowance; ``sound`` turns false only when the output is wrong beyond
any reading of the budget (a wrong shape, wrong seeds, differing bits, or
an error above ``GROSS`` allowances), which makes the whole run incorrect.
Nothing here imports ``lrdlab``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import references as ref

# Errors up to this many allowances count as a missed tolerance (a failed
# operation); beyond it the output is simply wrong.
GROSS = 1e3
# The library's documented rule for matching a closed-form offset candidate:
# 1e-4 relative (``closeness_report``).
REL_MATCH = 1e-4
# Standard errors allowed between an empirical and the exact autocovariance.
SE_BOUND = 4.0
# The lag at which ``closeness_report`` (CLI defaults) fits its CTF gap.
SLOPE_N = 2


@dataclass(frozen=True)
class Tol:
    abs_tol: float
    rel_tol: float


@dataclass
class Verdict:
    passed: bool
    sound: bool = True
    note: str = ""
    acvf_err_ratio: float | None = None
    vtf_rel_err: float | None = None
    worst: float = 0.0


def wrong(note: str) -> Verdict:
    return Verdict(False, False, note)


def acvf_allowance(gamma, tol: Tol) -> np.ndarray:
    return np.maximum(tol.abs_tol, tol.rel_tol * np.abs(np.asarray(gamma, dtype=np.float64)))


def vtf_allowance(allow_gamma: np.ndarray) -> np.ndarray:
    """A(n) = n a(0) + 2 sum_(0<k<n) (n-k) a(k) for n = 0..len(a).

    The budget of omega(n) = n gamma(0) + 2 sum (n-k) gamma(k) when each
    gamma(k) may be off by a(k).
    """
    a = np.asarray(allow_gamma, dtype=np.float64)
    n = np.arange(a.size + 1, dtype=np.float64)
    s1 = np.concatenate(([0.0, 0.0], np.cumsum(a[1:])))
    s2 = np.concatenate(([0.0, 0.0], np.cumsum(np.arange(1, a.size) * a[1:])))
    return n * a[0] + 2.0 * (n * s1 - s2)


def ratio_verdict(values, reference, allowance, what: str) -> Verdict:
    """Largest |value - reference| / allowance; within 1 passes."""
    values = np.asarray(values, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if values.shape != reference.shape:
        return wrong(f"{what}: {values.shape} values against {reference.shape} references")
    err = np.abs(values - reference) / np.asarray(allowance, dtype=np.float64)
    if not np.all(np.isfinite(err)):
        return wrong(f"{what}: non-finite values")
    worst = float(err.max()) if err.size else 0.0
    i = int(err.argmax()) if err.size else 0
    note = f"{what}: worst {worst:.3g} allowances at index {i}, {int((err > 1).sum())} over"
    return Verdict(worst <= 1.0, worst <= GROSS, note, worst=worst)


def measured_only(v: Verdict) -> Verdict:
    """Keep a comparison's figures but not its pass/fail outcome.

    Used where the program misses its budget on some seeds only (see the
    fGn closed form in the benchmark's README): a check that passes or
    fails with the seed cannot gate an operation, but its ratio is still
    reported, and an error beyond ``GROSS`` allowances still marks the run
    incorrect.
    """
    return Verdict(True, v.sound, v.note, v.acvf_err_ratio, v.vtf_rel_err, v.worst)


def merge(verdicts: list[Verdict]) -> Verdict:
    out = Verdict(all(v.passed for v in verdicts), all(v.sound for v in verdicts))
    out.note = "; ".join(v.note for v in verdicts if not v.passed)
    ratios = [v.acvf_err_ratio for v in verdicts if v.acvf_err_ratio is not None]
    rels = [v.vtf_rel_err for v in verdicts if v.vtf_rel_err is not None]
    out.acvf_err_ratio = max(ratios) if ratios else None
    out.vtf_rel_err = max(rels) if rels else None
    return out


def parse_table(text: str, header: tuple[str, ...]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"expected header {header}, got {rows[:1]}")
    return rows[1:]


def _numeric_columns(text: str, header: tuple[str, ...]):
    rows = parse_table(text, header)
    return [np.array([r[i] for r in rows]) for i in range(len(header))]


# --- autocovariance tables --------------------------------------------------


def check_acvf(values, gamma_ref, tol: Tol, what: str = "acvf") -> Verdict:
    v = ratio_verdict(values, gamma_ref, acvf_allowance(gamma_ref, tol), what)
    v.acvf_err_ratio = v.worst
    return v


def check_acvf_csv(text: str, gamma_ref, tol: Tol) -> Verdict:
    try:
        n, value = _numeric_columns(text, ("n", "value"))
    except ValueError as exc:
        return wrong(str(exc))
    if not np.array_equal(n.astype(int), np.arange(len(gamma_ref))):
        return wrong("acvf rows are not lags 0..nmax")
    return check_acvf(value.astype(float), gamma_ref, tol, "acvf csv")


def check_g_coeffs(gc, j_max: int, tol: Tol) -> Verdict:
    """G_0..G_J of g = f/f*: finite, and summing to g(0) = 1.

    The two-sided sum misses g(0) by at most the stated tail bound on each
    side plus the per-coefficient budget abs_tol on each of 2J+1 terms.
    """
    values = np.asarray(gc.values, dtype=np.float64)
    if values.shape != (j_max + 1,) or not np.all(np.isfinite(values)):
        return wrong(f"g coefficients: shape {values.shape}, expected ({j_max + 1},)")
    tail = float(gc.tail_bound)
    if not (math.isfinite(tail) and tail >= 0.0):
        return wrong(f"g coefficients: tail bound {tail!r}")
    total = values[0] + 2.0 * math.fsum(values[1:])
    allowance = 2.0 * tail + (2 * j_max + 1) * tol.abs_tol
    return ratio_verdict([total], [1.0], [allowance], "g coefficient sum")


# --- variance-time functions ------------------------------------------------


def check_vtf_csv(text: str, m: int, omega_ref, allow_omega, tol: Tol) -> Verdict:
    """Rows (n, omega(mn)/m^2) for n = 1..nmax of the level-m aggregate."""
    try:
        n, value = _numeric_columns(text, ("n", "value"))
    except ValueError as exc:
        return wrong(str(exc))
    n_max = (len(omega_ref) - 1) // m
    if not np.array_equal(n.astype(int), np.arange(1, n_max + 1)):
        return wrong("vtf rows are not n = 1..nmax")
    idx = m * np.arange(1, n_max + 1)
    expected = omega_ref[idx] / (m * m)
    got = value.astype(float)
    v = ratio_verdict(got, expected, allow_omega[idx] / (m * m), "vtf csv")
    v.vtf_rel_err = float(np.max(np.abs(got - expected) / np.abs(expected)))
    return v


def check_ctf_fgn_csv(text: str, H: float, m: int, allow_omega, omega_ref_scale: float) -> Verdict:
    """rho^(m)(n) = omega(mn)/omega(m) equals n^(2H) exactly for fGn.

    omega_ref_scale is V, so omega(n) = V n^(2H); the ratio's budget is the
    sum of the relative budgets of its numerator and denominator.
    """
    try:
        n, value = _numeric_columns(text, ("n", "value"))
    except ValueError as exc:
        return wrong(str(exc))
    n_max = (len(allow_omega) - 1) // m
    ns = np.arange(1, n_max + 1)
    if not np.array_equal(n.astype(int), ns):
        return wrong("ctf rows are not n = 1..nmax")
    expected = ns.astype(np.float64) ** (2.0 * H)
    rel = allow_omega[m * ns] / (omega_ref_scale * (m * ns) ** (2.0 * H))
    rel = rel + allow_omega[m] / (omega_ref_scale * m ** (2.0 * H))
    got = value.astype(float)
    v = ratio_verdict(got, expected, rel * expected, "ctf csv")
    v.vtf_rel_err = float(np.max(np.abs(got - expected) / expected))
    return v


@dataclass
class BrittleRef:
    """Reference ratios omega(mn)/omega*(mn) and their allowances by row."""

    ratios: dict
    allowances: dict


def brittle_reference(
    omega_base, allow_base, omega_noise, allow_noise, weight: float, V: float, H: float,
    levels, lags, tol: Tol,
) -> BrittleRef:
    """Rows of ``run_brittleness`` from reference VTFs of base and noise.

    The noise has a smaller Hurst exponent than the base, so base and
    perturbed share the base's fixed point V m^(2H).  Each row may miss by
    its VTF budget over omega*, plus rel_tol for V.
    """
    ratios, allowances = {}, {}
    for m in levels:
        for n in lags:
            N = m * n
            star = V * N ** (2.0 * H)
            for label, om, al in (
                ("base", omega_base[N], allow_base[N]),
                ("perturbed", omega_base[N] + weight * omega_noise[N],
                 allow_base[N] + weight * allow_noise[N]),
            ):
                ratios[(label, m, n)] = om / star
                allowances[(label, m, n)] = al / star + tol.rel_tol * om / star
    return BrittleRef(ratios, allowances)


def check_brittle_csv(text: str, expected: BrittleRef) -> Verdict:
    try:
        rows = parse_table(text, ("series_label", "m", "n", "value"))
    except ValueError as exc:
        return wrong(str(exc))
    keys = [(r[0], int(float(r[1])), int(float(r[2]))) for r in rows]
    if sorted(keys) != sorted(expected.ratios):
        return wrong("brittle rows do not match the experiment's levels and lags")
    got = np.array([float(r[3]) for r in rows])
    want = np.array([expected.ratios[k] for k in keys])
    v = ratio_verdict(got, want, [expected.allowances[k] for k in keys], "brittle csv")
    v.vtf_rel_err = float(np.max(np.abs(got - want) / np.abs(want)))
    return v


# --- closeness reports ------------------------------------------------------


@dataclass
class ClosenessRef:
    """Exact closeness quantities of one spec, with allowances.

    Each mapping takes an abscissa of a report curve to (value, allowance).
    """

    H: float
    V: float
    D: float
    vtf_offset: Callable
    ctf_gap: Callable
    spectral_gap: Callable
    acvf_gap: Callable
    tol: Tol


def check_closeness_json(text: str, expected: ClosenessRef) -> Verdict:
    try:
        obj = json.loads(text)
        fp, curves = obj["fixed_point"], obj["curves"]
        signed = float(obj["D_formula_signed"])
    except (ValueError, KeyError, TypeError) as exc:
        return wrong(f"closeness json: {exc}")
    if fp["H"] != expected.H:
        return wrong(f"closeness: fixed point H {fp['H']!r}, expected {expected.H!r}")
    tol = expected.tol
    verdicts = [
        ratio_verdict([fp["V"]], [expected.V], [tol.rel_tol * expected.V], "matched V"),
    ]
    if expected.D == 0.0:
        if signed != 0.0:
            verdicts.append(Verdict(False, True, f"D_formula_signed {signed!r} for fGn, expected 0"))
    else:
        verdicts.append(
            ratio_verdict([signed], [expected.D], [REL_MATCH * abs(expected.D)], "D_formula_signed")
        )
    for label in ("vtf_offset", "ctf_gap", "spectral_gap", "acvf_gap"):
        points = curves.get(label)
        if not points:
            return wrong(f"closeness: curve {label!r} missing")
        absc = np.array([p[0] for p in points], dtype=np.float64)
        got = np.array([p[1] for p in points], dtype=np.float64)
        want, allow = getattr(expected, label)(absc)
        v = ratio_verdict(got, want, allow, f"closeness {label}")
        if label == "acvf_gap":
            v.acvf_err_ratio = v.worst
            v = measured_only(v)
        verdicts.append(v)
    return merge(verdicts)


def white_fd_closeness_ref(H: float, sigma2: float, tol: Tol) -> ClosenessRef:
    """Exact closeness quantities of FracDiff(H) over white noise of variance sigma2."""
    d = H - 0.5
    n_top = 10_000
    gamma = np.array([float(g) for g in ref.farima00_acvf(d, n_top, sigma2)])
    a_gamma = acvf_allowance(gamma, tol)
    allow_omega = vtf_allowance(a_gamma)
    V = ref.farima00_V(d, sigma2)
    D = ref.offset_D(d, gamma[0])
    omega = ref.farima00_vtf_range(d, n_top, sigma2)

    def vtf_offset(ns):
        k = ns.astype(int)
        star = V * ns ** (2.0 * H)
        return omega[k] - star, allow_omega[k] + tol.rel_tol * star

    def ctf_gap(ms):
        k = ms.astype(int)
        rho = omega[SLOPE_N * k] / omega[k]
        allow = rho * (allow_omega[SLOPE_N * k] / omega[SLOPE_N * k] + allow_omega[k] / omega[k])
        return rho - SLOPE_N ** (2.0 * H), allow

    def spectral_gap(xs):
        f = ref.fracdiff_white_density(d, sigma2, xs)
        f_star = ref.fgn_density(H, V, xs)
        allow = acvf_allowance(f, tol) + acvf_allowance(f_star, tol) + tol.rel_tol * f_star
        return f - f_star, allow

    def acvf_gap(ns):
        k = ns.astype(int)
        g_star = ref.fgn_acvf(H, V, k)
        allow = a_gamma[k] + acvf_allowance(g_star, tol) + tol.rel_tol * np.abs(g_star)
        return gamma[k] - g_star, allow

    return ClosenessRef(H, V, D, vtf_offset, ctf_gap, spectral_gap, acvf_gap, tol)


def fgn_gamma_magnitude(H: float, V: float, n_max: int) -> np.ndarray:
    """|gamma(0..n_max)| of fGn in double precision, for allowances only."""
    n = np.arange(n_max + 1, dtype=np.float64)
    a = 2.0 * H
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 1.0 / n
        g = 0.5 * V * n**a * (np.expm1(a * np.log1p(u)) + np.expm1(a * np.log1p(-u)))
    g[0] = V
    if n_max >= 1:
        g[1] = 0.5 * V * (2.0**a - 2.0)
    return np.abs(g)


def fgn_closeness_ref(H: float, V: float, tol: Tol) -> ClosenessRef:
    """fGn is its own fixed point: every gap and the offset are exactly 0."""
    n_top = 10_000
    a_gamma = acvf_allowance(fgn_gamma_magnitude(H, V, n_top), tol)
    allow_omega = vtf_allowance(a_gamma)

    def vtf_offset(ns):
        k = ns.astype(int)
        return np.zeros(k.size), allow_omega[k] + tol.rel_tol * V * ns ** (2.0 * H)

    def ctf_gap(ms):
        k = ms.astype(int)
        rel = allow_omega[SLOPE_N * k] / (V * (SLOPE_N * ms) ** (2.0 * H)) + allow_omega[k] / (V * ms ** (2.0 * H))
        return np.zeros(k.size), SLOPE_N ** (2.0 * H) * rel

    def spectral_gap(xs):
        f = ref.fgn_density(H, V, xs)
        return np.zeros(xs.size), 2.0 * acvf_allowance(f, tol)

    def acvf_gap(ns):
        k = ns.astype(int)
        return np.zeros(k.size), 2.0 * a_gamma[k]

    return ClosenessRef(H, V, 0.0, vtf_offset, ctf_gap, spectral_gap, acvf_gap, tol)


# --- sampling ---------------------------------------------------------------


def check_sample_many(paths, empirical, seed: int, count: int, n: int, H: float, tol: Tol) -> Verdict:
    """Per-path seeds, shapes, the empirical ACVF's arithmetic and its 4-SE band."""
    if len(paths) != count or [p.seed for p in paths] != ref.path_seeds(seed, count):
        return wrong("sample_many: path seeds differ from SeedSequence(seed).generate_state")
    arr = np.stack([np.asarray(p.values) for p in paths])
    if arr.shape != (count, n) or not np.all(np.isfinite(arr)):
        return wrong(f"sample_many: paths of shape {arr.shape}")
    means, ses = (np.asarray(x, dtype=np.float64) for x in empirical)
    lags = np.arange(means.size)
    own = np.array([np.mean(np.sum(arr[:, : n - k] * arr[:, k:], axis=1) / (n - k)) for k in lags])
    arithmetic = ratio_verdict(means, own, acvf_allowance(own, tol), "empirical_acvf means")
    exact = ref.fgn_acvf(H, 1.0, lags)
    band = ratio_verdict(means, exact, SE_BOUND * ses, "empirical acvf against exact fGn")
    return merge([arithmetic, band])


def parse_sample_csv(text: str, count: int, n: int) -> np.ndarray:
    """Values of a ``sample`` CSV as a (count, n) array, checking path and t."""
    head, _, body = text.partition("\n")
    if head != "path,t,value":
        raise ValueError("sample csv header is not path,t,value")
    table = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.float64, ndmin=2)
    if table.shape != (count * n, 3):
        raise ValueError(f"sample csv has {table.shape[0]} rows, expected {count * n}")
    row = np.arange(count * n)
    if not (np.array_equal(table[:, 0], row // n) and np.array_equal(table[:, 1], row % n)):
        raise ValueError("sample csv rows are not path-major with t = 0..N-1")
    return table[:, 2].reshape(count, n)


def check_sample_text(text: str, fmt: str, seed: int, count: int, n: int, reference_paths) -> Verdict:
    """Bit-exact parse-back of a CLI ``sample`` against ``sample(spec, N, path_seed)``."""
    seeds = ref.path_seeds(seed, count)
    try:
        if fmt == "csv":
            got = parse_sample_csv(text, count, n)
        else:
            obj = json.loads(text)
            if obj["seed"] != seed or obj["n"] != n or obj["path_seeds"] != seeds:
                return wrong("sample json: seed, n or path seeds differ")
            got = np.array(obj["paths"], dtype=np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        return wrong(f"sample {fmt}: {exc}")
    want = np.stack([np.asarray(p) for p in reference_paths])
    if got.shape != want.shape or not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        return wrong(f"sample {fmt}: values do not round-trip bit for bit")
    return Verdict(True)
