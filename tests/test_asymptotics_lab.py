"""Closeness diagnostics: offsets, slopes, gap profiles, perturbations.

The VTF offset oracles are the exact constants of FARIMA(0,d,0), derived
here from Hosking's autocovariance with math.lgamma and sharing no code
path with the library; the autocovariance gap values are differences of
two closed forms.
"""

import json
import math

import numpy as np
import pytest
from helpers import farima00_offset_constants

from lrdlab.asymptotics_lab import (
    BrittlenessExperiment,
    ClosenessReport,
    acvf_gap_profile,
    brittleness_csv_rows,
    builtin_experiment,
    closeness_csv_rows,
    closeness_report,
    ctf_convergence_slope,
    report_to_json,
    run_brittleness,
    spectral_gap_profile,
    vtf_offset,
)
from lrdlab import asymptotics_lab, vtf_aggregation
from lrdlab.covariance_engine import acvf, acvf_via_subtraction
from lrdlab.errors import CoverageError, DomainError
from lrdlab.kernel_special import HurstParam
from lrdlab.process_model import Fgn, FracDiff, Sum, WhiteNoise, matched_fgn, spec_from_json
from lrdlab.vtf_aggregation import VtfView

FARIMA03 = FracDiff(HurstParam(0.8), WhiteNoise(1.0))
LEVELS_2048 = tuple(2**k for k in range(11))

# Exact additive VTF offset D = d gamma(0)/(1+2d) for FARIMA03 and the
# coefficient c = -V d(1+d)(1+2d)/6 of its n^(2H-2) transient.
D_SIGNED_ORACLE, RATE_ORACLE = farima00_offset_constants(FARIMA03.H.H - 0.5)

# Autocovariance gaps gamma - gamma*, both sides in closed form.
D1_ORACLE = -0.049524715546585
D2_ORACLE = -0.006893406536683


class TestVtfOffset:
    def test_fgn_offset_is_zero(self):
        spec = Fgn(HurstParam(0.8), 1.3)
        d_hat, ev = vtf_offset(VtfView(spec), (500, 1000))
        assert abs(d_hat) <= 1e-6
        assert ev.converged
        assert ev.D_formula_signed == 0.0
        assert ev.D_formula_abs == 0.0

    def test_farima_offset_sequence(self):
        d_hat, ev = vtf_offset(VtfView(FARIMA03), (200, 400, 800, 1600))
        assert ev.probes == (200, 400, 800, 1600)
        assert d_hat == ev.offsets[-1]
        assert d_hat == pytest.approx(0.2404, abs=2e-3)
        # Offsets increase towards the limit but are not yet Cauchy at 1e-3.
        assert list(ev.offsets) == sorted(ev.offsets)
        assert not ev.converged
        assert ev.last_delta > 1e-3 * abs(d_hat)

    def test_fitted_limit_agrees_with_closed_form(self):
        # Two independent routes to the same constant: extrapolation of the
        # n^(2H-2) transient vs the weighted coefficient sum.
        _, ev = vtf_offset(VtfView(FARIMA03), (200, 400, 800, 1600))
        assert ev.D_exact == pytest.approx(D_SIGNED_ORACLE, rel=1e-14)
        assert ev.D_formula_signed == pytest.approx(D_SIGNED_ORACLE, rel=1e-9)
        assert ev.limit_fitted == pytest.approx(ev.D_formula_signed, rel=1e-5)
        assert ev.rate_coefficient == pytest.approx(RATE_ORACLE, abs=2e-3)

    def test_candidate_signs(self):
        _, ev = vtf_offset(VtfView(FARIMA03), (100, 400))
        assert ev.D_formula_signed > 0.0
        assert ev.D_formula_abs == pytest.approx(-0.3796, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            vtf_offset(VtfView(FARIMA03), (100,))

    def test_sum_offset_matches_its_component(self):
        d_hat, ev = vtf_offset(VtfView(Sum(((FARIMA03, 1.0),))), (100, 200))
        d_ref, ref = vtf_offset(VtfView(FARIMA03), (100, 200))
        assert (d_hat, ev.offsets, ev.D_exact) == (d_ref, ref.offsets, ref.D_exact)


class TestCtfConvergenceSlope:
    def test_base_slope(self):
        r = ctf_convergence_slope(VtfView(FARIMA03), 2, LEVELS_2048)
        assert not r.saturated
        assert -1.65 <= r.slope_hat <= -1.55
        assert -1.55 <= r.slope_full_range <= -1.45
        assert r.levels_used == (128, 256, 512, 1024)

    def test_leading_coefficient_comparison(self):
        r = ctf_convergence_slope(VtfView(FARIMA03), 2, LEVELS_2048)
        assert r.coeff_predicted is not None
        assert r.coeff_predicted < 0.0 and r.coeff_measured < 0.0
        assert r.coeff_measured / r.coeff_predicted == pytest.approx(1.0, abs=0.1)

    def test_prediction_follows_exact_offset_limit(self):
        # A Sum whose components share H has a finite D, so it gets the
        # prediction too; one with a lower-H component has D = inf.
        same_h = Sum(((FARIMA03, 1.0), (Fgn(HurstParam(0.8), 1.0), 0.5)))
        r = ctf_convergence_slope(VtfView(same_h), 2, LEVELS_2048)
        assert r.coeff_predicted is not None
        assert r.coeff_measured / r.coeff_predicted == pytest.approx(1.0, abs=0.1)
        lower_h = builtin_experiment(3).perturbed()
        assert math.isinf(VtfView(lower_h).D)
        assert ctf_convergence_slope(VtfView(lower_h), 2, LEVELS_2048).coeff_predicted is None

    def test_white_perturbed_slope(self):
        z = builtin_experiment(1).perturbed()
        r = ctf_convergence_slope(VtfView(z), 2, LEVELS_2048)
        assert -0.7 <= r.slope_hat <= -0.5
        assert r.coeff_predicted is None

    def test_weaker_lrd_perturbed_slope(self):
        z = builtin_experiment(3).perturbed()
        r = ctf_convergence_slope(VtfView(z), 2, LEVELS_2048)
        assert -0.3 <= r.slope_hat <= -0.1

    def test_fgn_saturates(self):
        spec = Fgn(HurstParam(0.8), 1.0)
        r = ctf_convergence_slope(VtfView(spec), 2, tuple(2**k for k in range(8)))
        assert r.saturated
        assert r.slope_hat == 0.0
        assert r.levels_used == ()
        assert r.coeff_predicted is None

    def test_validation(self):
        view = VtfView(FARIMA03)
        with pytest.raises(DomainError):
            ctf_convergence_slope(view, 0, LEVELS_2048)
        with pytest.raises(DomainError, match="decades"):
            ctf_convergence_slope(view, 2, (1, 2, 4))

    def test_top_decade_of_one_level_falls_back_to_the_last_two(self):
        # Only level 1000 lies in the top decade, so the fit takes the last
        # two usable levels instead.
        r = ctf_convergence_slope(VtfView(FARIMA03), 2, (1, 2, 1000))
        assert r.levels_used == (2, 1000)
        lg = np.log(np.abs(r.gaps[1:]))
        assert r.slope_hat == float(np.polyfit(np.log([2, 1000]), lg, 1)[0])

    def test_perturbation_separates_slopes(self):
        levels = tuple(2**k for k in range(9))
        for k in (1, 2, 3):
            e = builtin_experiment(k)
            base = ctf_convergence_slope(VtfView(e.base), 2, levels)
            pert = ctf_convergence_slope(VtfView(e.perturbed()), 2, levels)
            assert base.slope_hat < pert.slope_hat + 0.5
            assert base.slope_hat < pert.slope_hat  # strict separation in practice


class TestSpectralGapProfile:
    def test_farima_power_law(self):
        p = spectral_gap_profile(FARIMA03, np.geomspace(1e-4, 0.5, 33))
        assert not p.degenerate
        assert p.slope_near_zero == pytest.approx(1.4, abs=0.1)
        assert p.nonnegative_on_grid is True

    def test_gap_vanishes_at_origin(self):
        p = spectral_gap_profile(FARIMA03, [1e-6, 1e-5, 1e-4])
        assert 0.0 < p.phi[0] < p.phi[1] < p.phi[2]
        assert p.phi[0] <= 1e-7

    def test_fgn_identically_zero(self):
        spec = Fgn(HurstParam(0.8), 1.7)
        p = spectral_gap_profile(spec, np.geomspace(1e-3, 0.5, 17))
        assert p.degenerate
        assert p.slope_near_zero == 0.0
        assert all(v == 0.0 for v in p.phi)

    @pytest.mark.parametrize(
        "grid, window",
        [
            # Fewer than 3 points below 1e-2: the two decades above x[0].
            ([1e-3, 0.05, 0.08, 0.1, 0.3, 0.5], slice(0, 4)),
            # Fewer than 3 there as well: the whole grid.
            ([1e-3, 0.2, 0.3, 0.5], slice(None)),
        ],
    )
    def test_slope_window_fallbacks(self, grid, window):
        p = spectral_gap_profile(FARIMA03, grid)
        x, phi = np.array(p.x)[window], np.abs(p.phi)[window]
        assert p.slope_near_zero == float(np.polyfit(np.log(x), np.log(phi), 1)[0])

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            spectral_gap_profile(FARIMA03, [0.0, 0.1])
        with pytest.raises(DomainError):
            spectral_gap_profile(FARIMA03, [0.1, 0.6])
        with pytest.raises(DomainError):
            spectral_gap_profile(FARIMA03, [])


class TestAcvfGapProfile:
    def test_frozen_gaps_and_envelope(self):
        grid = tuple(np.unique(np.round(np.geomspace(1.0, 2000.0, 41)).astype(int)))
        p = acvf_gap_profile(FARIMA03, grid)
        assert p.d[0] == pytest.approx(D1_ORACLE, abs=1e-12)
        assert p.d[1] == pytest.approx(D2_ORACLE, abs=1e-12)
        assert p.envelope_variation is not None
        assert p.envelope_variation <= 1e-4

    def test_partial_sums_bounded(self):
        grid = tuple(np.unique(np.round(np.geomspace(1.0, 2000.0, 41)).astype(int)))
        p = acvf_gap_profile(FARIMA03, grid)
        assert abs(p.coefficient_sum) <= 1e-4
        assert p.partial_sum_max <= 0.5
        # T(n) settles near a constant rather than drifting.
        assert abs(p.partial_sum_at_grid[-1] - p.partial_sum_at_grid[-2]) <= 0.02

    def test_fgn_gap_is_zero(self):
        spec = Fgn(HurstParam(0.8), 1.0)
        p = acvf_gap_profile(spec, range(0, 1501, 50))
        assert all(v == 0.0 for v in p.d)
        assert p.partial_sum_max == 0.0
        assert p.envelope_variation == 0.0

    def test_lag_cap(self):
        with pytest.raises(DomainError):
            acvf_gap_profile(FARIMA03, [1, 20_000])

    def test_gaps_are_fourier_coefficients_of_the_density_gap(self):
        # d_n from the closed-form tables must equal the Fourier coefficients
        # of phi = f - f*; the two sides share only the fGn closed form, which
        # cancels (recursion vs quadrature of the density gap).
        star = matched_fgn(FARIMA03)
        p = acvf_gap_profile(FARIMA03, range(0, 51))
        via_transform = acvf_via_subtraction(FARIMA03, 50).values - acvf(star, 50).values
        assert np.max(np.abs(np.array(p.d) - via_transform)) <= 1e-6


class TestBrittleness:
    def test_builtin_components_have_unit_variance(self):
        for k in (1, 2, 3):
            e = builtin_experiment(k)
            assert acvf(e.base, 0).gamma(0) == pytest.approx(1.0, rel=1e-12)
            assert acvf(e.noise, 0).gamma(0) == pytest.approx(1.0, rel=1e-12)
            if k != 2:
                # White-driver innovation variances come from the 1-ulp Gamma ratio.
                assert abs(acvf(e.base, 0).gamma(0) - 1.0) <= math.ulp(1.0)
                assert abs(acvf(e.noise, 0).gamma(0) - 1.0) <= math.ulp(1.0)
            assert e.weight == 0.1
            assert e.levels == (1, 10, 100)
            assert e.lags == tuple(range(1, 11))

    def test_builtin_index_validation_and_caching(self):
        with pytest.raises(DomainError):
            builtin_experiment(4)
        assert builtin_experiment(1) == builtin_experiment(1)

    def test_experiment_validation(self):
        base = FARIMA03
        with pytest.raises(DomainError):
            BrittlenessExperiment(base=base, noise=Fgn(HurstParam(0.5), 1.0), weight=0.0)
        # Noise at the same H shifts the matched variance: rejected.
        with pytest.raises(DomainError, match="fixed point"):
            BrittlenessExperiment(base=base, noise=Fgn(HurstParam(0.8), 1.0), weight=0.1)
        # Short-range base has no fixed point at all.
        with pytest.raises(DomainError):
            BrittlenessExperiment(base=Fgn(HurstParam(0.5), 1.0), noise=Fgn(HurstParam(0.5), 1.0), weight=0.1)

    def test_experiment_1_table(self):
        res = run_brittleness(builtin_experiment(1))
        assert len(res.rows) == 2 * 3 * 10
        for n in range(1, 11):
            base = res.ratio("base", 100, n)
            pert = res.ratio("perturbed", 100, n)
            assert abs(base - 1.0) <= 0.01
            assert abs(pert - 1.0) > abs(base - 1.0)
        with pytest.raises(CoverageError):
            res.ratio("base", 7, 1)

    def test_experiment_2_crossover(self):
        res = run_brittleness(builtin_experiment(2))
        closer_at_1 = [
            n for n in range(1, 11)
            if abs(res.ratio("perturbed", 1, n) - 1.0) < abs(res.ratio("base", 1, n) - 1.0)
        ]
        assert closer_at_1  # the perturbed process starts out closer
        for n in range(1, 11):
            assert abs(res.ratio("perturbed", 100, n) - 1.0) > abs(res.ratio("base", 100, n) - 1.0)

    def test_base_quadrature_runs_once(self, monkeypatch):
        # The base VTF is read off the perturbed Sum, not built again, so
        # the base driver's autocovariance grid runs once.
        stock = builtin_experiment(2)
        exp = BrittlenessExperiment(stock.base, stock.noise, stock.weight, levels=(1, 2), lags=(1, 2))
        drivers = []
        driver_acvf = vtf_aggregation._driver_acvf

        def counted(driver, *args, **kwargs):
            drivers.append(driver)
            return driver_acvf(driver, *args, **kwargs)

        monkeypatch.setattr(vtf_aggregation, "_driver_acvf", counted)
        res = run_brittleness(exp)
        assert drivers.count(stock.base.driver) == 1
        assert len(res.rows) == 8

    def test_series_accessor(self):
        res = run_brittleness(
            BrittlenessExperiment(
                base=FARIMA03, noise=Fgn(HurstParam(0.5), 1.0), weight=0.1,
                levels=(1, 4, 16), lags=(1, 2, 3),
            )
        )
        s = res.series("base", 16)
        assert [n for n, _ in s] == [1, 2, 3]
        assert all(v > 0.0 for _, v in s)
        # Aggregation pulls the base ratio towards 1.
        assert abs(res.ratio("base", 16, 1) - 1.0) < abs(res.ratio("base", 1, 1) - 1.0)


@pytest.fixture(scope="module")
def farima_report():
    return closeness_report(
        FARIMA03,
        n_probe=(200, 400, 800, 1600),
        acvf_grid=np.unique(np.round(np.geomspace(1.0, 2000.0, 31)).astype(int)),
        x_grid=np.geomspace(1e-4, 0.5, 25),
    )


class TestClosenessReport:
    def test_farima_fields(self, farima_report):
        rep = farima_report
        assert 0.0 <= rep.beta_hat <= 0.05
        assert -1.65 <= rep.slope_hat <= -1.55
        assert rep.D_formula_signed > 0.0 > rep.D_formula_abs
        assert not rep.offset_converged
        assert not rep.slope_saturated
        # The 1e-4 rule reads the exact limit, not the raw endpoint, which
        # still carries its transient: only the signed form matches.
        assert rep.D_exact == pytest.approx(D_SIGNED_ORACLE, rel=1e-14)
        assert rep.matched_candidate == "signed"

    def test_curves_and_accessor(self, farima_report):
        labels = [label for label, _ in farima_report.curves]
        assert labels == ["vtf_offset", "ctf_gap", "spectral_gap", "acvf_gap"]
        offsets = dict(farima_report.curve("vtf_offset"))
        assert offsets[1600.0] == farima_report.D_hat
        with pytest.raises(CoverageError):
            farima_report.curve("nope")

    def test_json_round_trip(self, farima_report):
        blob = json.dumps(report_to_json(farima_report))
        back = json.loads(blob)
        assert spec_from_json(back["spec"]) == FARIMA03
        assert back["fixed_point"]["H"] == 0.8
        assert back["D_exact"] == farima_report.D_exact
        assert back["matched_candidate"] == "signed"
        assert set(back["curves"]) == {"vtf_offset", "ctf_gap", "spectral_gap", "acvf_gap"}

    def test_csv_rows(self, farima_report):
        rows = closeness_csv_rows(farima_report)
        assert all(len(r) == 4 for r in rows)
        for label, m, n, value in rows:
            if label == "ctf_gap":
                assert m is not None and n is None
            else:
                assert m is None and n is not None
            assert math.isfinite(value)

    def test_fgn_report(self):
        rep = closeness_report(
            Fgn(HurstParam(0.8), 1.0),
            n_probe=(200, 400, 800),
            slope_levels=tuple(2**k for k in range(9)),
            acvf_grid=range(0, 501, 25),
            x_grid=np.geomspace(1e-3, 0.5, 9),
        )
        assert abs(rep.D_hat) <= 1e-6
        assert rep.offset_converged
        assert rep.beta_hat == 0.0
        assert rep.slope_saturated
        assert rep.slope_hat == 0.0
        assert rep.D_exact == 0.0
        assert rep.matched_candidate == "both"

    def test_sum_has_no_closed_form_candidates(self):
        # D_exact is finite here, but no G-coefficient formula exists for a
        # Sum: the candidates are None (JSON null), never an unevaluated 0.
        spec = Sum(((FARIMA03, 1.0), (Fgn(HurstParam(0.8), 1.0), 0.5)))
        rep = closeness_report(
            spec,
            n_probe=(200, 400, 800),
            slope_levels=tuple(2**k for k in range(9)),
            acvf_grid=range(0, 501, 25),
            x_grid=np.geomspace(1e-3, 0.5, 9),
        )
        assert rep.D_exact == pytest.approx(D_SIGNED_ORACLE, rel=1e-12)
        assert rep.D_formula_signed is None
        assert rep.D_formula_abs is None
        assert rep.matched_candidate == "neither"
        back = json.loads(json.dumps(report_to_json(rep)))
        assert back["D_formula_signed"] is None and back["D_formula_abs"] is None

    def test_growth_exponent_of_one_top_probe_falls_back_to_the_last_two(self):
        # A weaker long-memory component makes the offset grow as n^(2H').
        # Two probes in the top decade measure that growth; with one, beta
        # is fitted over the last two probes, as the slope is.
        spec = Sum(((FARIMA03, 1.0), (Fgn(HurstParam(0.7), 1.0), 0.1)))
        grids = dict(acvf_grid=range(0, 501, 25), x_grid=np.geomspace(1e-3, 0.5, 9))
        measured = closeness_report(spec, n_probe=(1_000, 10_000), **grids)
        assert not measured.offset_converged
        assert measured.beta_hat == pytest.approx(1.4, abs=1e-3)
        alone = closeness_report(spec, n_probe=(10, 10_000), **grids)
        assert not alone.offset_converged
        _, evidence = vtf_offset(VtfView(spec), (10, 10_000))
        lo = np.log(np.abs(evidence.offsets))
        assert alone.beta_hat == float(np.polyfit(np.log([10, 10_000]), lo, 1)[0])

    @pytest.mark.parametrize(
        "signed, absolute, name",
        [(1.0, 1.0, "both"), (1.0, 2.0, "signed"), (2.0, 1.0, "absolute"), (2.0, 3.0, "neither")],
    )
    def test_candidate_names_for_finite_candidates(self, signed, absolute, name):
        assert asymptotics_lab._candidate_name(1.0, signed, absolute, 1.0) == name

    def test_g_coefficients_summed_once_per_report(self, monkeypatch):
        # Only the offset candidates read the G coefficients; the slope's
        # prediction comes from the exact D, and nothing is memoised.
        calls = []
        g_fourier_coeffs = asymptotics_lab.g_fourier_coeffs

        def counted(*args, **kwargs):
            calls.append(args)
            return g_fourier_coeffs(*args, **kwargs)

        monkeypatch.setattr(asymptotics_lab, "g_fourier_coeffs", counted)
        closeness_report(FARIMA03)
        closeness_report(FARIMA03)
        assert len(calls) == 2
        ctf_convergence_slope(VtfView(FARIMA03), 2, LEVELS_2048)
        assert len(calls) == 2

    def test_invariants_enforced(self, farima_report):
        rep = farima_report
        base = dict(
            spec=rep.spec, fixed_point=rep.fixed_point, D_hat=rep.D_hat,
            D_exact=rep.D_exact, D_formula_signed=rep.D_formula_signed, D_formula_abs=rep.D_formula_abs,
            beta_hat=rep.beta_hat, slope_hat=rep.slope_hat,
            matched_candidate=rep.matched_candidate,
            offset_converged=rep.offset_converged,
            slope_saturated=rep.slope_saturated, curves=rep.curves,
        )
        with pytest.raises(DomainError):
            ClosenessReport(**{**base, "beta_hat": -0.1})
        with pytest.raises(DomainError):
            ClosenessReport(**{**base, "beta_hat": 1.7})
        with pytest.raises(DomainError):
            ClosenessReport(**{**base, "slope_hat": 0.2})
        with pytest.raises(DomainError):
            ClosenessReport(**{**base, "D_hat": math.inf})

    def test_brittleness_csv_rows(self):
        res = run_brittleness(
            BrittlenessExperiment(
                base=FARIMA03, noise=Fgn(HurstParam(0.5), 1.0), weight=0.1,
                levels=(1, 4), lags=(1, 2),
            )
        )
        rows = brittleness_csv_rows(res)
        assert len(rows) == 8
        assert rows[0][0] == "base" and rows[-1][0] == "perturbed"
        assert all(isinstance(m, float) and isinstance(n, float) for _, m, n, _ in rows)
