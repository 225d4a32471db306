"""Variance-time functions, aggregation transforms, and the exchange identity.

The closed-form evaluator is checked against the literal O(n^2) double
sum of the autocovariance table, against the compensated prefix sums over
random specs, and against 40-digit mpmath for FARIMA(0,d,0) and an ARMA
driver; aggregation is checked against closed forms on the fixed point;
the convolution/double-integration identity is brute-forced on random
finite-support sequences.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import f_alpha, per_k_vtf, ulp_error
from lrdlab import cli
from lrdlab import vtf_aggregation
from lrdlab.asymptotics_lab import builtin_experiment, closeness_report, run_brittleness, vtf_offset
from lrdlab.covariance_engine import _farima00_values, acvf
from lrdlab.errors import DomainError
from lrdlab.kernel_special import HurstParam, Tolerance
from lrdlab.process_model import Arma, Fexp, Fgn, FracDiff, Sum, WhiteNoise, matched_fgn
from lrdlab.vtf_aggregation import (
    AggregatedVtf,
    aggregate_ctf,
    aggregate_vtf,
    conv_double_int_identity_check,
    double_integrate,
    vtf,
)

# Matched fGn variance for FARIMA(0, 0.3, 0) with unit innovation variance:
# V = 1 / (2 pi C(0.8)), frozen from the closed form.
MATCHED_V_FARIMA03 = 1.190033849208883

ARMA_31_7 = Arma((0.3,), (0.7,), 1.0)

# h(0) D_F - 2 sum_{k>=1} gamma_h(k) omega_F(k) for FracDiff(0.8, ARMA(0.3, 0.7))
# with unit innovations, from the exact ARMA(1,1) autocovariance and the
# telescoped FARIMA(0,0.3,0) VTF in 40-digit mpmath; recomputed below.
ARMA_LIMIT_OFFSET = "-8.0950839646429464927"


def _literal_vtf(gamma, n: int) -> float:
    return math.fsum(gamma[abs(i - j)] for i in range(n) for j in range(n))


def test_white_noise_vtf_is_linear():
    v = vtf(Fgn(HurstParam(0.5), 1.0))
    assert np.array_equal(v.omega(np.arange(101)), np.arange(101, dtype=np.float64) * 1.0)
    assert v.omega(0) == 0.0
    assert v.variance == 1.0


def test_fgn_vtf_is_the_fixed_point():
    spec = Fgn(HurstParam(0.8), 1.0)
    v = vtf(spec)
    assert v.omega(4) == pytest.approx(4.0**1.6, rel=1e-12)
    for n in range(1, 101):
        assert v.omega(n) == pytest.approx(float(n) ** 1.6, rel=1e-12)
    assert (v.H, v.V, v.D) == (HurstParam(0.8), 1.0, 0.0)
    assert np.array_equal(v.offset(np.arange(-5, 1000)), np.zeros(1005))


def test_vtf_small_identities_and_symmetry():
    spec = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
    tab = acvf(spec, 63)
    v = vtf(spec)
    assert v.omega(0) == 0.0
    assert v.omega(1) == tab.gamma(0)
    assert v.omega(2) == pytest.approx(2.0 * tab.gamma(0) + 2.0 * tab.gamma(1), rel=1e-15)
    assert v.omega(-5) == v.omega(5)
    assert v.offset(-40) == v.offset(40)
    assert v.offset(0) == 0.0


def test_vtf_matches_literal_double_sum():
    specs = [
        Fgn(HurstParam(0.8), 1.3),
        FracDiff(HurstParam(0.8), WhiteNoise(1.0)),
        Sum(((FracDiff(HurstParam(0.8), WhiteNoise(1.0)), 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1))),
        FracDiff(HurstParam(0.8), ARMA_31_7),
        FracDiff(HurstParam(0.8), Fexp((0.5, -0.3))),
        FracDiff(HurstParam(0.4), ARMA_31_7),
        FracDiff(HurstParam(0.5), ARMA_31_7),
    ]
    for spec in specs:
        tab = acvf(spec, 63)
        v = vtf(spec)
        ns = np.array([1, 2, 3, 7, 16, 17, 33, 64])
        omega, offset = v.omega(ns), v.offset(ns)
        for n, w, off in zip(ns, omega, offset):
            want = _literal_vtf(tab.values, int(n))
            assert w == pytest.approx(want, rel=1e-12)
            assert off == pytest.approx(want - v.V * float(n) ** (2.0 * v.H.H), abs=1e-12 * want)


def test_vtf_monotone_nonnegative_for_lrd():
    values = vtf(FracDiff(HurstParam(0.8), WhiteNoise(1.0))).omega(np.arange(201))
    diffs = np.diff(values)
    assert np.all(values >= 0.0)
    assert np.all(diffs > 0.0)


def _mp_farima00(d):
    """(V, D, omega) of unit FARIMA(0,d,0) in mpmath, omega checked on n <= 40.

    Up to n = 40 omega is the literal double sum of Hosking's
    autocovariance gamma(k) = gamma(k-1) (k-1+d)/(k-d); beyond it is the
    telescoped form V Gamma(n+1+d)/Gamma(n-d) + D, which the literal sum
    confirms first.
    """
    d = mp.mpf(d)
    gamma = [mp.gamma(1 - 2 * d) / mp.gamma(1 - d) ** 2]
    for k in range(1, 40):
        gamma.append(gamma[-1] * (k - 1 + d) / (k - d))
    V = mp.gamma(1 - 2 * d) / ((1 + 2 * d) * mp.gamma(1 + d) * mp.gamma(1 - d))
    D = d * gamma[0] / (1 + 2 * d)

    def telescoped(n):
        return V * mp.rf(n - d, 1 + 2 * d) + D

    literal = [n * gamma[0] + 2 * mp.fsum((n - k) * gamma[k] for k in range(1, n)) for n in range(1, 41)]
    for n, w in enumerate(literal, start=1):
        assert abs(telescoped(n) - w) <= mp.mpf(10) ** -35 * w

    return V, D, lambda n: literal[n - 1] if n <= 40 else telescoped(n)


def test_farima00_constants_and_series_within_1_ulp_of_mpmath():
    # gamma(0), V, D and each large-m series coefficient 2 B_(k+1)(-d) /
    # (k (k+1)), k = 12, 10, .., 2, of the FARIMA(0,d,0) closed form.
    with mp.workdps(40):
        for d in np.linspace(-0.49, 0.49, 197):
            d = float(d)
            unit, dm = vtf_aggregation._Farima00(d), mp.mpf(d)
            gamma0 = mp.gamma(1 - 2 * dm) / mp.gamma(1 - dm) ** 2
            assert ulp_error(unit._small[1], gamma0) <= 1.0, d
            assert ulp_error(_farima00_values(d, 1.0, 0)[0], gamma0) <= 1.0, d
            assert ulp_error(unit.V, gamma0 * mp.gamma(1 - dm) / ((1 + 2 * dm) * mp.gamma(1 + dm))) <= 1.0, d
            if d != 0.0:
                assert ulp_error(unit.D, dm * gamma0 / (1 + 2 * dm)) <= 1.0, d
            for c, k in zip(unit._series, range(12, 0, -2)):
                want = 2 * mp.bernpoly(k + 1, -dm) / (k * (k + 1))
                assert ulp_error(c, want) <= 1.0, (d, k)


@pytest.mark.parametrize("d", [-0.3, 0.0, 0.05, 0.3, 0.44, 0.49])
def test_farima00_vtf_within_1e_14_of_mpmath(d):
    ns = list(range(1, 41)) + [10**3, 10**6, 10**9, 10**12]
    spec = FracDiff(HurstParam(0.5 + d), WhiteNoise(1.0))
    v = vtf(spec)
    omega, offset = v.omega(ns), v.offset(ns)
    with mp.workdps(40):
        # The reference takes the spec's own d = H - 1/2, rounded as stored.
        V, D, omega_mp = _mp_farima00(spec.H.d)
        assert abs(v.D - D) <= 4 * math.ulp(float(D))
        for n, w, off in zip(ns, omega, offset):
            want = omega_mp(n)
            want_off = want - V * mp.mpf(n) ** (1 + 2 * mp.mpf(spec.H.d))
            assert abs(w - want) <= 1e-14 * want, (d, n)
            # Below the series crossover the offset is a difference, so its
            # error is measured against omega.
            scale = want if n <= 16 else abs(want_off)
            assert abs(off - want_off) <= 1e-14 * scale, (d, n)


def test_arma_limit_offset_against_mpmath():
    with mp.workdps(40):
        phi, theta = mp.mpf("0.3"), mp.mpf("0.7")
        V_F, D_F, omega_F = _mp_farima00(mp.mpf("0.3"))
        gamma1 = (1 + phi * theta) * (phi + theta) / (1 - phi**2)  # then gamma_h(k) = phi^(k-1) gamma_h(1)
        h0 = (1 + theta) ** 2 / (1 - phi) ** 2
        limit = h0 * D_F - 2 * mp.fsum(gamma1 * phi ** (k - 1) * omega_F(k) for k in range(1, 200))
        assert abs(limit - mp.mpf(ARMA_LIMIT_OFFSET)) <= 1e-19
    v = vtf(FracDiff(HurstParam(0.8), ARMA_31_7))
    assert v.D == pytest.approx(float(ARMA_LIMIT_OFFSET), rel=1e-11)
    assert v.V == pytest.approx(float(h0 * V_F), rel=1e-12)
    # The offset tends to D; its n^(2H-2) transient is down to 1e-9 at n = 1e12.
    assert v.offset(10**12) == pytest.approx(float(ARMA_LIMIT_OFFSET), rel=1e-5)


@pytest.mark.parametrize("phi, theta", [(0.5, 0.3), (0.3, 0.7)])
def test_closeness_offset_against_exchange_identity(phi, theta):
    # omega(n) - omega*(n) adds (V - V*) n^(2H) to the view's offset, so V
    # must carry the exact h(0): V 1e-14 relative off moves the offset by
    # 1e-7 at n = 1e4.
    spec = FracDiff(HurstParam(0.8), Arma((phi,), (theta,)))
    n = 10_000
    got, _ = vtf_offset(vtf(spec), (1_000, n))
    with mp.workdps(40):
        p, t = mp.mpf(phi), mp.mpf(theta)
        _, _, omega_F = _mp_farima00(spec.H.d)
        gamma0 = (1 + 2 * p * t + t * t) / (1 - p * p)
        gamma1 = (1 + p * t) * (p + t) / (1 - p * p)  # then gamma_h(k) = phi^(k-1) gamma_h(1)
        omega = gamma0 * omega_F(n) + mp.fsum(
            gamma1 * p ** (k - 1) * (omega_F(n + k) + omega_F(n - k) - 2 * omega_F(k)) for k in range(1, 200)
        )
        want = omega - mp.mpf(matched_fgn(spec).V) * mp.mpf(n) ** (2 * mp.mpf(spec.H.H))
    assert abs(got - float(want)) <= 1e-8


# The accuracy results promise (Tolerance.rel_tol).  Long-window drivers
# are held to it at n <= 64, where the exchange identity's sum of 2K+1
# terms of size gamma_h(k) omega_F(k) cancels hardest against omega(n).
REL_TOL = Tolerance().rel_tol
# AR(0.99) misses REL_TOL: over H in [0.05, 0.95], omega(n <= 64) lies up
# to 1.5e-10 off the prefix sums (omega(1) at H = 0.6), about 17 eps times
# the identity's sum of |terms|.  That is summation loss in the identity,
# a known fault (ROADMAP item 19), checked here at this looser bound.
AR099_EXCHANGE_LOSS = 5e-10
PREFIX_SUM_DRIVERS = {
    "arma": (Arma((0.5,), (-0.2,)), 1e-12, 500),
    "ar0.9": (Arma((0.9,)), REL_TOL, 64),
    "ar-0.9": (Arma((-0.9,)), REL_TOL, 64),
    "ar0.99": (Arma((0.99,)), AR099_EXCHANGE_LOSS, 64),
    "fexp": (Fexp((0.5, -0.2)), REL_TOL, 64),
}


@settings(max_examples=100, deadline=None)
@given(
    h=st.floats(0.05, 0.95),
    scale=st.floats(0.1, 10.0),
    kind=st.sampled_from(["fgn", "white", *PREFIX_SUM_DRIVERS]),
    n_max=st.integers(1, 500),
)
def test_vtf_matches_prefix_sums(h, scale, kind, n_max):
    rtol = 1e-12
    if kind == "fgn":
        spec = Fgn(HurstParam(h), scale)
    elif kind == "white":
        spec = FracDiff(HurstParam(h), WhiteNoise(scale))
    else:
        driver, rtol, n_top = PREFIX_SUM_DRIVERS[kind]
        if isinstance(driver, Arma):
            driver = Arma(driver.ar, driver.ma, scale)
        spec, n_max = FracDiff(HurstParam(h), driver), min(n_max, n_top)
    want = double_integrate(acvf(spec, n_max).values)
    got = vtf(spec).omega(np.arange(n_max + 1))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


BIT_IDENTITY_SPECS = {
    "white": FracDiff(HurstParam(0.8), WhiteNoise(1.0)),
    "ar0.3": FracDiff(HurstParam(0.8), Arma((0.3,))),
    "ar0.9": FracDiff(HurstParam(0.8), Arma((0.9,))),
    "ar-0.9": FracDiff(HurstParam(0.8), Arma((-0.9,))),
    "ar0.99": FracDiff(HurstParam(0.8), Arma((0.99,))),
    "arma": FracDiff(HurstParam(0.8), ARMA_31_7),
    "fexp": FracDiff(HurstParam(0.8), Fexp((0.5, -0.2))),
    "sum": Sum(
        (
            (FracDiff(HurstParam(0.8), Arma((0.9,))), 1.0),
            (FracDiff(HurstParam(0.7), ARMA_31_7), 0.5),
            (Fgn(HurstParam(0.5), 1.0), 0.1),
        )
    ),
}


def _driver_lags(view) -> int:
    """K of a FracDiff view, the largest over a Sum's components, 0 for fGn."""
    if view.components:
        return max(_driver_lags(p) for p in view.components)
    return len(getattr(view, "_gh", [0.0])) - 1


SMALL_BLOCK = 1024  # AR(0.9)'s and AR(0.99)'s windows then span segments and blocks


def _lag_cases(k_top: int) -> dict:
    rng = np.random.default_rng(k_top)
    width = 2 * k_top + 1
    cases = {
        "dense": np.arange(10_001),
        "dense, short": np.arange(1_501),
        "sparse": rng.integers(0, 10**15, 200),
        "unsorted, duplicates, zeros": rng.permutation(np.r_[rng.integers(0, 3 * width, 300), 0, 0, 5, 5]),
        "2-D": rng.integers(0, 5 * width, (6, 7)),
        "scalar": 3 * k_top + 7,
        "empty": np.zeros(0, dtype=np.int64),
        "all below K": np.arange(k_top),
    }
    for block in (vtf_aggregation._BLOCK, SMALL_BLOCK):
        # The last chunk of windows, and of the offset's power sums, holds one lag.
        cases[f"one-lag window chunk at {block}"] = np.arange(1, 2 * (block // width) + 2)
        cases[f"one-lag power chunk at {block}"] = np.arange(1, 2 * (block // max(1, min(k_top, block // 2))) + 2)
    return cases


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(BIT_IDENTITY_SPECS))
def test_driver_sum_is_bit_identical_to_the_per_k_sum(name, monkeypatch):
    # One table per block of window points and running sums in k order must
    # reproduce the per-k whole-array sum to the last bit, at the default
    # block and at a small one.  The reference is elementwise in the lags,
    # so it runs once over every case laid end to end.  The 10^4 dense lags
    # skip the small block, where AR(0.99) would take seconds; the short
    # dense run covers it.
    view = vtf(BIT_IDENTITY_SPECS[name])
    cases = _lag_cases(_driver_lags(view))
    ends = np.cumsum([np.size(lags) for lags in cases.values()])
    everything = np.concatenate([np.ravel(lags) for lags in cases.values()])
    default = vtf_aggregation._BLOCK
    for offset in (False, True):
        reference = np.split(per_k_vtf(view, everything, offset), ends[:-1])
        for (case, lags), want in zip(cases.items(), reference):
            want = want.reshape(np.shape(lags))
            for block in (default,) if case == "dense" else (default, SMALL_BLOCK):
                monkeypatch.setattr(vtf_aggregation, "_BLOCK", block)
                got = view.offset(lags) if offset else view.omega(lags)
                assert _same_bits(got, want), (name, block, case, offset)


def test_driver_sum_evaluates_each_window_point_once(monkeypatch):
    evaluated = []
    values = vtf_aggregation._Farima00.values
    monkeypatch.setattr(
        vtf_aggregation._Farima00, "values", lambda self, m, offset: evaluated.append(m.size) or values(self, m, offset)
    )
    # Dense lags 1..N: the windows' union is 1-K..N+K, N + 2K points in one
    # call whatever K is.
    n_top, calls = 1000, set()
    for phi in (0.3, 0.9, 0.99):
        view = vtf(FracDiff(HurstParam(0.8), Arma((phi,))))
        k_top = len(view._gh) - 1
        for offset in (False, True):
            evaluated.clear()
            view.offset(np.arange(1, n_top + 1)) if offset else view.omega(np.arange(1, n_top + 1))
            assert sum(evaluated) <= n_top + 2 * k_top + 1, (phi, offset)
            calls.add(len(evaluated))
    assert calls == {1}


def test_driver_sum_keeps_tables_and_chunks_under_the_block(monkeypatch):
    # Far-apart lags on AR(0.999), K = 25,220: no window shares a point, its
    # 2K+1 = 50,441 terms exceed half a block, so each is summed in two
    # segments, yet no table, chunk or power-sum evaluation exceeds a block.
    view = vtf(FracDiff(HurstParam(0.8), Arma((0.999,))))
    k_top = len(view._gh) - 1
    assert k_top == 25_220
    lags = 10**6 * np.arange(1, 41) + np.arange(40)
    sizes = {"table": [], "chunk": [], "power": []}
    values, add_in_order, fgn_block = (
        vtf_aggregation._Farima00.values,
        vtf_aggregation._add_in_order,
        vtf_aggregation._fgn_block,
    )
    monkeypatch.setattr(
        vtf_aggregation._Farima00, "values", lambda self, m, o: sizes["table"].append(m.size) or values(self, m, o)
    )
    monkeypatch.setattr(
        vtf_aggregation, "_add_in_order", lambda acc, t: sizes["chunk"].append(t.size) or add_in_order(acc, t)
    )
    monkeypatch.setattr(
        vtf_aggregation, "_fgn_block", lambda h, v, n: sizes["power"].append(n.size) or fgn_block(h, v, n)
    )
    view.offset(lags)
    assert sum(sizes["table"]) == lags.size * (2 * k_top + 1)
    assert sum(sizes["power"]) == lags.size * k_top
    for kind, seen in sizes.items():
        assert 0 < max(seen) <= vtf_aggregation._BLOCK, kind


def test_lags_beyond_2_53_are_named():
    v = vtf(Fgn(HurstParam(0.8), 1.0))
    assert v.omega(2**53) > 0.0
    with pytest.raises(DomainError, match=r"2\^53"):
        v.omega(2**53 + 1)
    with pytest.raises(DomainError, match=r"2\^53"):
        v.offset(-(2**60))
    with pytest.raises(DomainError, match=r"2\^53"):
        aggregate_vtf(v, 2**40).omega(2**14)
    with pytest.raises(DomainError, match="integers"):
        v.omega(1.5)


def test_sum_view_weights_components_built_once():
    base = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
    spec = Sum(((base, 1.0), (Fgn(HurstParam(0.5), 1.0), 0.1)))
    v = vtf(spec)
    ns = np.array([1, 10, 1000])
    parts = v.components
    assert [p.spec for p in parts] == [base, Fgn(HurstParam(0.5), 1.0)]
    assert np.array_equal(v.omega(ns), parts[0].omega(ns) + 0.1 * parts[1].omega(ns))
    # The white part grows like n against V n^1.6, so the limit is infinite.
    assert (v.H, v.V, v.D) == (HurstParam(0.8), parts[0].V, math.inf)
    assert np.array_equal(v.offset(ns), parts[0].offset(ns) + 0.1 * ns)
    assert v.V == pytest.approx(matched_fgn(spec).V, rel=1e-14)


def test_evaluator_needs_no_prefix_sums(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("prefix sums used")

    monkeypatch.setattr(vtf_aggregation, "_PrefixState", refuse)
    spec = tmp_path / "spec.json"
    spec.write_text('{"type": "fracdiff", "H": 0.8, "driver": {"type": "white", "sigma2": 1.0}}')
    for command in ("vtf", "ctf"):
        assert cli.main([command, "--spec", str(spec), "--nmax", "50", "--m", "3"]) == 0
    capsys.readouterr()
    report = closeness_report(FracDiff(HurstParam(0.8), WhiteNoise(1.0)))
    assert report.matched_candidate == "signed"
    assert len(run_brittleness(builtin_experiment(2)).rows) == 60


def test_double_integrate_trivial_cases():
    delta = np.zeros(10)
    delta[0] = 1.0
    assert np.array_equal(double_integrate(delta), np.arange(10, dtype=np.float64))
    ones = np.ones(10)
    assert np.array_equal(double_integrate(ones), np.arange(10, dtype=np.float64) ** 2)


def test_double_integrate_refuses_2d_and_keeps_empty():
    with pytest.raises(DomainError, match="one-dimensional"):
        double_integrate(np.ones((2, 3)))
    out = double_integrate([])
    assert out.shape == (0,) and out.dtype == np.float64


def test_double_integrate_matches_nested_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(-3, 4, size=8).astype(np.float64)
        got = double_integrate(a)
        for n in range(8):
            want = math.fsum(a[abs(i)] for k in range(n) for i in range(-k, k + 1))
            assert got[n] == want  # integer arithmetic: exact


def test_ctf_normalisation():
    v = vtf(FracDiff(HurstParam(0.8), WhiteNoise(1.0)))
    assert aggregate_ctf(v, 1, 1) == 1.0
    assert aggregate_ctf(v, 1, 10) == pytest.approx(v.omega(10) / v.omega(1), rel=1e-15)


def test_fixed_point_closed_forms():
    fp = vtf(Fgn(HurstParam(0.8), 2.0))
    assert fp.omega(10) == pytest.approx(2.0 * 10.0**1.6, rel=1e-15)
    assert aggregate_ctf(fp, 1, 10) == pytest.approx(10.0**1.6, rel=1e-15)
    assert fp.omega(-10) == fp.omega(10)
    with pytest.raises(DomainError):
        Fgn(HurstParam(0.8), 0.0)


def test_fixed_point_of_process_matches_frozen_variance():
    star = matched_fgn(FracDiff(HurstParam(0.8), WhiteNoise(1.0)))
    assert star.H.H == 0.8
    assert star.V == pytest.approx(MATCHED_V_FARIMA03, rel=1e-12)


def test_aggregate_vtf_identity_and_fixed_point():
    spec = Fgn(HurstParam(0.8), 1.0)
    v = vtf(spec)
    agg1 = aggregate_vtf(v, 1)
    for n in (1, 5, 17):
        assert agg1.omega(n) == v.omega(n)
    agg10 = aggregate_vtf(v, 10)
    # omega^(m)(n) = V m^(2H-2) n^(2H) on the fixed point, i.e. omega(30)/100.
    assert agg10.omega(3) == pytest.approx(10.0**-0.4 * 3.0**1.6, rel=1e-12)
    assert agg10.omega(3) == v.omega(30) / 100.0


def test_aggregate_vtf_white_noise_variance_decay():
    v = vtf(Fgn(HurstParam(0.5), 1.0))
    for m in (1, 4, 25, 100):
        assert aggregate_vtf(v, m).variance == pytest.approx(1.0 / m, rel=1e-13)


def test_aggregate_vtf_validation_and_coverage():
    v = vtf(Fgn(HurstParam(0.8), 1.0))
    with pytest.raises(DomainError):
        aggregate_vtf(v, 0)
    with pytest.raises(DomainError):
        aggregate_ctf(v, 0, 1)
    # No table behind the view: every lag up to 2^53 is covered.
    agg = aggregate_vtf(v, 10)
    assert isinstance(agg, AggregatedVtf)
    assert np.array_equal(agg.omega(np.array([3, 11])), v.omega(np.array([30, 110])) / 100.0)


def test_aggregate_ctf_fgn_self_similarity():
    # The fixed point is exactly invariant: rho^(m)(n) = n^(2H) for all m.
    for h in (0.6, 0.8):
        spec = Fgn(HurstParam(h), 1.0)
        v = vtf(spec)
        worst = 0.0
        for m in (1, 2, 5, 10, 31, 100):
            for n in range(1, 11):
                if m * n <= 1000:
                    err = abs(aggregate_ctf(v, m, n) - float(n) ** (2 * h))
                    worst = max(worst, err / float(n) ** (2 * h))
        assert worst <= 1e-10
    assert aggregate_ctf(v, 7, 3) == pytest.approx(21.0**1.6 / 7.0**1.6, rel=1e-12)


def test_aggregate_ctf_farima_converges_to_power():
    v = vtf(FracDiff(HurstParam(0.8), WhiteNoise(1.0)))
    assert aggregate_ctf(v, 100, 2) == pytest.approx(2.0**1.6, abs=1e-3)
    assert aggregate_ctf(v, 1, 2) == v.omega(2) / v.omega(1)


def test_conv_identity_trivial():
    a = np.array([2.0, -1.0, 0.5])
    delta = np.array([1.0])
    assert conv_double_int_identity_check(a, delta) == 0.0
    b = np.array([1.0, 0.25])
    assert conv_double_int_identity_check(delta, b) <= 1e-14


def test_conv_identity_random_sign_sequences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.choice([-1.0, 1.0], size=9)
        b = rng.choice([-1.0, 1.0], size=9)
        assert conv_double_int_identity_check(a, b) <= 1e-12


def test_conv_identity_random_float_sequences():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rng.normal(size=rng.integers(2, 12))
        b = rng.normal(size=rng.integers(2, 12))
        assert conv_double_int_identity_check(a, b) <= 1e-12


def test_f_alpha_upper_branch_monotone_vanishing():
    # 1 < alpha < 2, fixed y > 0: positive, strictly decreasing in x, -> 0.
    xs = np.linspace(1.0, 500.0, 2000)
    for alpha in (1.2, 1.6, 1.9):
        for y in (0.5, 1.0, 2.0):
            vals = f_alpha(alpha, xs + y, y)  # keep x > y for strictness
            assert np.all(vals > 0.0)
            assert np.all(np.diff(vals) < 0.0)
            # Vanishes at the x^(alpha-2) rate.
            assert vals[-1] < 2.0 * alpha * (alpha - 1.0) * y * y * xs[-1] ** (alpha - 2.0)


def test_f_alpha_negative_branch_envelope():
    # alpha < 0, x > y > 0: 0 < f_alpha(x, y) < 2 alpha (alpha-1) y^2 (x-y)^(alpha-2).
    for alpha in (-0.4, -1.0, -2.5):
        for y in (0.5, 1.0, 2.0):
            xs = y + np.geomspace(1e-3, 1e3, 400)
            vals = f_alpha(alpha, xs, y)
            bound = 2.0 * alpha * (alpha - 1.0) * y * y * (xs - y) ** (alpha - 2.0)
            assert np.all(vals > 0.0)
            assert np.all(vals < bound)
