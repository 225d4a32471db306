"""The three workloads: the operations each pass times, and their checks.

An operation is one call a user makes: ``lrdlab.cli.main`` with the
output captured in memory, or a public library function.  Its check runs
after the timer stops, against references computed apart from the
program (``references``).
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck
import references as ref
from lrd_inputs import (
    ARMA_H,
    ARMA_PHI,
    ARMA_THETA,
    EMIT_N,
    EMIT_NOISE_WEIGHT,
    EMIT_PATHS,
    SAMPLE_H,
    SAMPLE_MANY_N,
    SAMPLE_MANY_PATHS,
    PassInputs,
)

ACVF_NMAX = 1024
G_JMAX = 2048
VTF_NMAX, VTF_M = 100_000, 10
CTF_NMAX, CTF_M = 10_000, 100
ACVF_PROBE_LAGS = 200


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "ck.Verdict"]


class CliError(RuntimeError):
    pass


def run_cli(lrdlab, argv: list[str], tracer=None) -> str:
    """``lrdlab.cli.main(argv)`` with stdout captured in memory."""
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = lrdlab.cli.main(argv)
    if code != 0:
        raise CliError(f"lrdlab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    text = buf.getvalue()
    if tracer is not None and tracer.active:
        tracer.add_count("cli", "out_bytes", len(text.encode()))
    return text


class Caches:
    """The library's in-process memo caches, emptied before every pass.

    ``builtin_experiment`` and the g-coefficient cache of ``asymptotics_lab``
    live as long as the process; a user running the CLI never hits them
    across commands.  Built before any tracing wrapper hides the cached
    functions.
    """

    def __init__(self, lrdlab):
        al = lrdlab.asymptotics_lab
        cached = (getattr(al, "builtin_experiment", None), getattr(al, "_g_coeffs", None))
        self._cached = [fn for fn in cached if hasattr(fn, "cache_clear")]

    def clear(self) -> None:
        for fn in self._cached:
            fn.cache_clear()


def tolerance(lrdlab) -> ck.Tol:
    t = lrdlab.Tolerance()
    return ck.Tol(t.abs_tol, t.rel_tol)


# --- references -------------------------------------------------------------


def _arma_fd_gamma(n_max: int) -> np.ndarray:
    return ref.arma_farima_acvf(ARMA_H - 0.5, ARMA_PHI, ARMA_THETA, 1.0, n_max)


def _unit_white_farima(d: float) -> tuple[float, float]:
    """(sigma^2, d) of the unit-variance FARIMA(0,d,0) of the built-in experiments."""
    return float(ref.farima00_acvf(d, 0, 1.0)[0]) ** -1, d


def _farima_brittle_parts(d: float, sigma2: float, n_top: int, tol):
    gamma = np.array([float(g) for g in ref.farima00_acvf(d, n_top, sigma2)])
    omega = ref.farima00_vtf_range(d, n_top, sigma2)
    return omega, ck.vtf_allowance(ck.acvf_allowance(gamma, tol))


def experiment_reference(index: int, tol, arma_gamma=None) -> ck.BrittleRef:
    """Reference rows of built-in experiment 1, 2 or 3 (weight 0.1, levels 1/10/100)."""
    levels, lags, weight = (1, 10, 100), tuple(range(1, 11)), 0.1
    top = max(levels) * max(lags)
    if index == 2:
        # Base: FracDiff(0.8, ARMA) rescaled to unit variance; noise: the ARMA
        # alone at unit variance.
        scale = arma_gamma[0]
        g_base = arma_gamma[:top] / scale
        h0 = (1.0 + ARMA_THETA) ** 2 / (1.0 - ARMA_PHI) ** 2 / scale
        V = ref.matched_V(h0, ARMA_H)
        arma_var = (1 + 2 * ARMA_PHI * ARMA_THETA + ARMA_THETA**2) / (1 - ARMA_PHI**2)
        g_noise = np.array([float(g) for g in ref.arma11_acvf(ARMA_PHI, ARMA_THETA, 1.0 / arma_var, top - 1)])
        parts = []
        for g in (g_base, g_noise):
            omega = np.concatenate(([0.0], ref.vtf_from_acvf(g, range(1, top + 1))))
            parts.append((omega, ck.vtf_allowance(ck.acvf_allowance(g, tol))))
        (ob, ab), (on, an) = parts
        return ck.brittle_reference(ob, ab, on, an, weight, V, ARMA_H, levels, lags, tol)
    sigma2, d = _unit_white_farima(0.3)
    ob, ab = _farima_brittle_parts(d, sigma2, top, tol)
    V = ref.farima00_V(d, sigma2)
    if index == 1:
        n = np.arange(top + 1, dtype=np.float64)  # unit white noise: omega(n) = n
        on, an = n, ck.vtf_allowance(ck.acvf_allowance(np.r_[1.0, np.zeros(top - 1)], tol))
    else:
        sigma2_n, d_n = _unit_white_farima(0.2)
        on, an = _farima_brittle_parts(d_n, sigma2_n, top, tol)
    return ck.brittle_reference(ob, ab, on, an, weight, V, 0.5 + d, levels, lags, tol)


def _fd_gamma_magnitude(d: float, sigma2: float, n_max: int) -> np.ndarray:
    """|gamma(0..n_max)| of FARIMA(0,d,0) in double precision, for allowances only."""
    g0 = sigma2 * math.exp(math.lgamma(1 - 2 * d) - 2 * math.lgamma(1 - d))
    k = np.arange(1, n_max + 1, dtype=np.float64)
    return g0 * np.concatenate(([1.0], np.cumprod((k - 1 + d) / (k - d))))


class References:
    """References that do not depend on the seed, built once per run."""

    def __init__(self, tol: ck.Tol):
        self.tol = tol
        self._made: dict = {}

    def _once(self, key, make):
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def arma_gamma(self):
        return self._once("arma_gamma", lambda: _arma_fd_gamma(ACVF_NMAX))

    def experiment(self, index: int):
        return self._once(
            ("experiment", index),
            lambda: experiment_reference(index, self.tol, self.arma_gamma() if index == 2 else None),
        )


# --- workloads --------------------------------------------------------------


def spectral_route_ops(lrdlab, inputs: PassInputs, refs: References, tracer) -> list[Op]:
    f = inputs.files["arma_fd"]
    tol, ltol = refs.tol, lrdlab.Tolerance()
    driver = inputs.specs["driver"]
    state = {}

    def g_coeffs():
        state["gc"] = lrdlab.covariance_engine.g_fourier_coeffs(ARMA_H, driver, G_JMAX, ltol)
        return state["gc"]

    def convolution():
        return lrdlab.covariance_engine.acvf_via_convolution(
            ARMA_H, driver, ACVF_NMAX, ltol, coeffs=state["gc"]
        )

    return [
        Op("cli_acvf_arma_fd", lambda: run_cli(lrdlab, ["acvf", "--spec", f, "--nmax", str(ACVF_NMAX)], tracer),
           lambda out: ck.check_acvf_csv(out, refs.arma_gamma(), tol)),
        Op("cli_brittle_2", lambda: run_cli(lrdlab, ["brittle", "--experiment", "2"], tracer),
           lambda out: ck.check_brittle_csv(out, refs.experiment(2))),
        Op("g_fourier_coeffs", g_coeffs, lambda gc: ck.check_g_coeffs(gc, G_JMAX, tol)),
        Op("acvf_via_convolution", convolution,
           lambda table: ck.check_acvf(table.values, refs.arma_gamma(), tol, "convolution acvf")),
    ]


def closed_form_vtf_ops(lrdlab, inputs: PassInputs, refs: References, tracer) -> list[Op]:
    p, tol = inputs.params, refs.tol
    white, fgn = inputs.files["white_fd"], inputs.files["fgn"]
    d, s2 = p["white_H"] - 0.5, p["white_sigma2"]

    def check_vtf(out):
        n_top = VTF_M * VTF_NMAX
        omega = ref.farima00_vtf_range(d, n_top, s2)
        allow = ck.vtf_allowance(ck.acvf_allowance(_fd_gamma_magnitude(d, s2, n_top - 1), tol))
        return ck.check_vtf_csv(out, VTF_M, omega, allow, tol)

    def check_ctf(out):
        n_top = CTF_M * CTF_NMAX
        gamma = ck.fgn_gamma_magnitude(p["fgn_H"], p["fgn_V"], n_top - 1)
        allow = ck.vtf_allowance(ck.acvf_allowance(gamma, tol))
        return ck.check_ctf_fgn_csv(out, p["fgn_H"], CTF_M, allow, p["fgn_V"])

    cli = lambda *argv: (lambda: run_cli(lrdlab, list(argv), tracer))  # noqa: E731
    return [
        Op("cli_closeness_white_fd", cli("closeness", "--spec", white),
           lambda out: ck.check_closeness_json(out, ck.white_fd_closeness_ref(p["white_H"], s2, tol))),
        Op("cli_closeness_fgn", cli("closeness", "--spec", fgn),
           lambda out: ck.check_closeness_json(out, ck.fgn_closeness_ref(p["fgn_H"], p["fgn_V"], tol))),
        Op("cli_vtf_1e6", cli("vtf", "--spec", white, "--nmax", str(VTF_NMAX), "--m", str(VTF_M)), check_vtf),
        Op("cli_ctf_fgn", cli("ctf", "--spec", fgn, "--nmax", str(CTF_NMAX), "--m", str(CTF_M)), check_ctf),
        Op("cli_brittle_1", cli("brittle", "--experiment", "1"),
           lambda out: ck.check_brittle_csv(out, refs.experiment(1))),
        Op("cli_brittle_3", cli("brittle", "--experiment", "3"),
           lambda out: ck.check_brittle_csv(out, refs.experiment(3))),
    ]


def _probe_lags(n_max: int) -> np.ndarray:
    return np.unique(np.r_[np.arange(64), np.geomspace(64, n_max, ACVF_PROBE_LAGS - 64).astype(int)])


def sampler_acvf_verdict(lrdlab, spec, n_max: int, noise: float, tol: ck.Tol) -> ck.Verdict:
    """The autocovariance table a sampler call is given, against exact fGn.

    Rebuilt after the operation with the same spec, length and Tolerance
    (the route is deterministic) and compared at ACVF_PROBE_LAGS lags.  The
    fGn closed form misses its budget at lags near 1000, so this comparison
    is reported, not gated.
    """
    lags = _probe_lags(n_max)
    values = lrdlab.acvf(spec, n_max).values[lags]
    exact = ref.fgn_acvf(SAMPLE_H, 1.0, lags) + noise * (lags == 0)
    return ck.measured_only(ck.check_acvf(values, exact, tol, "sampler acvf"))


def sample_emit_ops(lrdlab, inputs: PassInputs, refs: References, tracer) -> list[Op]:
    p, tol = inputs.params, refs.tol
    fgn, noisy, f = inputs.specs["fgn"], inputs.specs["noisy"], inputs.files["noisy"]
    emit_seed = p["emit_seed"]
    state = {}

    def many():
        paths = lrdlab.sampler.sample_many(fgn, SAMPLE_MANY_N, p["many_seed"], SAMPLE_MANY_PATHS)
        return paths, lrdlab.sampler.empirical_acvf(paths, [0, 1, 2, 3])

    def check_many(out):
        paths, empirical = out
        return ck.merge([
            ck.check_sample_many(paths, empirical, p["many_seed"], SAMPLE_MANY_PATHS,
                                 SAMPLE_MANY_N, SAMPLE_H, tol),
            sampler_acvf_verdict(lrdlab, fgn, SAMPLE_MANY_N - 1, 0.0, tol),
        ])

    def emit_references():
        # The library's single-path draw for each derived seed, and the
        # sampler's table; both CLI formats share them.
        if not state:
            state["paths"] = [
                lrdlab.sample(noisy, EMIT_N, s).values for s in ref.path_seeds(emit_seed, EMIT_PATHS)
            ]
            state["acvf"] = sampler_acvf_verdict(lrdlab, noisy, EMIT_N - 1, EMIT_NOISE_WEIGHT, tol)
        return state["paths"], state["acvf"]

    def check_emit(fmt):
        def check(out):
            paths, table = emit_references()
            return ck.merge([ck.check_sample_text(out, fmt, emit_seed, EMIT_PATHS, EMIT_N, paths), table])
        return check

    argv = ["sample", "--spec", f, "--nmax", str(EMIT_N), "--paths", str(EMIT_PATHS), "--seed", str(emit_seed)]
    return [
        Op("sample_many_empirical", many, check_many),
        Op("cli_sample_csv", lambda: run_cli(lrdlab, argv, tracer), check_emit("csv")),
        Op("cli_sample_json", lambda: run_cli(lrdlab, argv + ["--format", "json"], tracer), check_emit("json")),
    ]


OPS = {
    "spectral_route": spectral_route_ops,
    "closed_form_vtf": closed_form_vtf_ops,
    "sample_emit": sample_emit_ops,
}
