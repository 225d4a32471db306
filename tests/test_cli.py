"""Command-line contract: tables, report plumbing, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from helpers import farima00_offset_constants

import lrdlab
from lrdlab import cli, sampler
from lrdlab.errors import ConvergenceError, CoverageError
from lrdlab.kernel_special import Tolerance
from lrdlab.process_model import spec_from_json
from lrdlab.sampler import SamplePath, sample, sample_many

FGN08 = {"type": "fgn", "H": 0.8, "V": 1.0}
WHITE = {"type": "fgn", "H": 0.5, "V": 1.0}
FARIMA03 = {"type": "fracdiff", "H": 0.8, "driver": {"type": "white", "sigma2": 1.0}}


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(args, capsys):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def old_fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def old_emit(fmt, header, rows, json_obj=None):
    """The row-wise emitter the CLI used before its output was bulk-formatted."""
    if fmt == "json":
        if json_obj is None:
            json_obj = {
                "columns": list(header),
                "rows": [[None if v is None else float(v) for v in row] for row in rows],
            }
        return json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([old_fmt(v) for v in row])
    return buf.getvalue()


def plain(obj):
    """obj with numpy arrays as nested lists, as the old emitter was given them."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def old_text(fmt, header, columns, json_obj=None):
    rows = list(zip(*(plain(c) for c in columns))) if columns is not None else []
    return old_emit(fmt, header, rows, None if json_obj is None else plain(json_obj))


class TestSpectrumCommand:
    def test_white_grid_is_constant_one(self, tmp_path, capsys):
        rc, out, _ = run(["spectrum", "--spec", write_spec(tmp_path, WHITE), "--points", "20"], capsys)
        header, rows = parse_csv(out)
        assert rc == 0
        assert header == ["x", "f"]
        assert len(rows) == 20
        assert all(float(f) == pytest.approx(1.0, abs=1e-12) for _, f in rows)

    def test_fractional_filter_endpoint_closed_form(self, tmp_path, capsys):
        spec = write_spec(tmp_path, FARIMA03)
        rc, out, _ = run(
            ["spectrum", "--spec", spec, "--xmin", "0.5", "--xmax", "0.5", "--points", "1"], capsys
        )
        _, rows = parse_csv(out)
        assert rc == 0
        assert float(rows[0][1]) == pytest.approx(2.0**-0.6, rel=1e-14)

    def test_malformed_spec_json_exits_two_with_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(["spectrum", "--spec", str(bad)], capsys)
        assert rc == 2
        assert "malformed JSON" in err

    def test_grid_must_avoid_zero(self, tmp_path, capsys):
        rc, _, err = run(
            ["spectrum", "--spec", write_spec(tmp_path, FGN08), "--xmin", "0", "--xmax", "0.5"], capsys
        )
        assert rc == 2
        assert "avoids x = 0" in err


class TestTableCommands:
    def test_vtf_white_noise_counts_lags(self, tmp_path, capsys):
        rc, out, _ = run(["vtf", "--spec", write_spec(tmp_path, WHITE), "--nmax", "5"], capsys)
        header, rows = parse_csv(out)
        assert rc == 0
        assert header == ["n", "value"]
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
        assert [float(r[1]) for r in rows] == pytest.approx([1, 2, 3, 4, 5], abs=1e-14)

    def test_ctf_fixed_point_is_aggregation_invariant(self, tmp_path, capsys):
        rc, out, _ = run(
            ["ctf", "--spec", write_spec(tmp_path, FGN08), "--m", "7", "--nmax", "2"], capsys
        )
        _, rows = parse_csv(out)
        assert rc == 0
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-14)
        assert float(rows[1][1]) == pytest.approx(2.0**1.6, rel=1e-12)

    def test_acvf_lag_one_ratio(self, tmp_path, capsys):
        rc, out, _ = run(["acvf", "--spec", write_spec(tmp_path, FARIMA03), "--nmax", "1"], capsys)
        _, rows = parse_csv(out)
        assert rc == 0
        gamma0, gamma1 = (float(r[1]) for r in rows)
        assert gamma1 / gamma0 == pytest.approx(3 / 7, rel=1e-14)

    def test_aggregated_acvf_of_fgn_rescales_exactly(self, tmp_path, capsys):
        spec = write_spec(tmp_path, FGN08)
        rc1, plain, _ = run(["acvf", "--spec", spec, "--nmax", "3"], capsys)
        rc2, agg, _ = run(["acvf", "--spec", spec, "--nmax", "3", "--m", "10"], capsys)
        assert rc1 == rc2 == 0
        _, base_rows = parse_csv(plain)
        _, agg_rows = parse_csv(agg)
        scale = 10.0 ** (2 * 0.8 - 2)
        for (_, g), (_, gm) in zip(base_rows, agg_rows):
            assert float(gm) == pytest.approx(scale * float(g), rel=1e-10)

    def test_lags_beyond_2_53_exit_two_naming_the_limit(self, tmp_path, capsys):
        # Each request is refused before any lag array is allocated.
        spec = write_spec(tmp_path, FGN08)
        for command, nmax, m in (("vtf", 1, 2**54), ("ctf", 2**60, 1), ("acvf", 1, 2**53)):
            rc, out, err = run([command, "--spec", spec, "--nmax", str(nmax), "--m", str(m)], capsys)
            assert rc == 2
            assert out == ""
            assert "2^53" in err

    def test_aggregated_acvf_of_fgn_within_tolerance_of_exact(self, tmp_path, capsys):
        # The level-m aggregate of fGn is m^(2H-2) gamma(n) exactly; a second
        # difference of omega near V (mn)^(2H) missed this by 1.4e-9 relative.
        m, n_max, h = 100, 2000, 0.8
        rc, out, _ = run(
            ["acvf", "--spec", write_spec(tmp_path, FGN08), "--nmax", str(n_max), "--m", str(m)], capsys
        )
        _, rows = parse_csv(out)
        assert rc == 0
        assert [int(r[0]) for r in rows] == list(range(n_max + 1))
        with mpmath.workdps(40):
            a = 2 * mpmath.mpf(h)
            scale = mpmath.mpf(m) ** (a - 2)
            exact = np.array(
                [float(scale * ((n + 1) ** a + abs(n - 1) ** a - 2 * mpmath.mpf(n) ** a) / 2)
                 for n in range(n_max + 1)]
            )
        got = np.array([float(r[1]) for r in rows])
        tol = Tolerance()
        assert np.all(np.abs(got - exact) <= np.maximum(tol.abs_tol, tol.rel_tol * np.abs(exact)))

    def test_seventeen_significant_digits_round_trip(self, tmp_path, capsys):
        rc, out, _ = run(["acvf", "--spec", write_spec(tmp_path, FGN08), "--nmax", "2"], capsys)
        _, rows = parse_csv(out)
        assert rc == 0
        assert float(rows[1][1]) == (2.0**1.6 - 2.0) / 2.0

    def test_json_format_and_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        rc, out, _ = run(
            ["vtf", "--spec", write_spec(tmp_path, WHITE), "--nmax", "3", "--format", "json",
             "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        assert out == ""
        obj = json.loads(out_path.read_text())
        assert obj["columns"] == ["n", "value"]
        assert obj["rows"] == [[1, 1.0], [2, 2.0], [3, 3.0]]


class TestClosenessCommand:
    def test_fractional_report_fields_and_round_trip(self, tmp_path, capsys):
        rc, out, _ = run(["closeness", "--spec", write_spec(tmp_path, FARIMA03)], capsys)
        assert rc == 0
        rep = json.loads(out)
        assert -1.65 <= rep["slope_hat"] <= -1.55
        assert rep["offset_converged"] is False
        assert spec_from_json(rep["spec"]) == spec_from_json(FARIMA03)
        assert set(rep["curves"]) == {"vtf_offset", "ctf_gap", "spectral_gap", "acvf_gap"}

    def test_self_similar_input_saturates(self, tmp_path, capsys):
        rc, out, _ = run(["closeness", "--spec", write_spec(tmp_path, FGN08)], capsys)
        assert rc == 0
        rep = json.loads(out)
        assert rep["D_hat"] == 0.0
        assert rep["slope_saturated"] is True
        assert rep["offset_converged"] is True

    def test_csv_flattening_has_single_header(self, tmp_path, capsys):
        rc, out, _ = run(
            ["closeness", "--spec", write_spec(tmp_path, FGN08), "--format", "csv"], capsys
        )
        header, rows = parse_csv(out)
        assert rc == 0
        assert header == ["series_label", "m", "n", "value"]
        assert sum(1 for line in out.splitlines() if line.startswith("series_label")) == 1
        assert {r[0] for r in rows} == {"vtf_offset", "ctf_gap", "spectral_gap", "acvf_gap"}

    @pytest.mark.parametrize(
        "noise_h, d_exact",
        # A weaker-memory component puts its whole VTF in the offset, so D is
        # infinite; at the same H the fGn adds nothing to FARIMA03's D.
        [(0.6, math.inf), (0.8, farima00_offset_constants(0.3)[0])],
    )
    def test_sum_spec_reports(self, tmp_path, capsys, noise_h, d_exact):
        noise = {"type": "fgn", "H": noise_h, "V": 1.0}
        spec = {"type": "sum", "components": [{"spec": FARIMA03, "weight": 1.0}, {"spec": noise, "weight": 0.5}]}
        path = write_spec(tmp_path, spec)
        rc, out, _ = run(["closeness", "--spec", path, "--format", "csv"], capsys)
        assert rc == 0
        assert {r[0] for r in parse_csv(out)[1]} == {"vtf_offset", "ctf_gap", "spectral_gap", "acvf_gap"}
        rc, out, _ = run(["closeness", "--spec", path], capsys)
        assert rc == 0
        rep = json.loads(out)
        assert rep["D_exact"] == pytest.approx(d_exact, rel=1e-12)
        assert rep["matched_candidate"] == "neither"


class TestBrittleCommand:
    def test_experiment_one_base_flat_at_top_level(self, capsys):
        rc, out, _ = run(["brittle", "--experiment", "1"], capsys)
        header, rows = parse_csv(out)
        assert rc == 0
        assert header == ["series_label", "m", "n", "value"]
        assert len(rows) == 60
        base_top = [float(v) for label, m, _, v in rows if label == "base" and float(m) == 100]
        assert base_top
        assert all(abs(v - 1.0) <= 0.01 for v in base_top)

    def test_experiment_two_unaggregated_crossover(self, capsys):
        rc, out, _ = run(["brittle", "--experiment", "2", "--levels", "1", "--lags", "1,2,3"], capsys)
        _, rows = parse_csv(out)
        assert rc == 0
        base = {r[2]: float(r[3]) for r in rows if r[0] == "base"}
        pert = {r[2]: float(r[3]) for r in rows if r[0] == "perturbed"}
        closer = [n for n in base if abs(pert[n] - 1) < abs(base[n] - 1)]
        assert closer

    def test_custom_config_runs(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "base": FARIMA03,
                    "noise": WHITE,
                    "weight": 0.1,
                    "levels": [1, 10],
                    "lags": [1, 2],
                }
            )
        )
        rc, out, _ = run(["brittle", "--spec", str(cfg)], capsys)
        _, rows = parse_csv(out)
        assert rc == 0
        assert len(rows) == 8

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        rc, _, err = run(["brittle"], capsys)
        assert rc == 2
        assert "exactly one" in err
        cfg = write_spec(tmp_path, {"base": FARIMA03, "noise": WHITE, "weight": 0.1}, "e.json")
        rc, _, _ = run(["brittle", "--experiment", "1", "--spec", cfg], capsys)
        assert rc == 2

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = write_spec(
            tmp_path,
            {"base": FARIMA03, "noise": WHITE, "weight": 0.1, "style": "bold"},
            "e.json",
        )
        rc, _, err = run(["brittle", "--spec", cfg], capsys)
        assert rc == 2
        assert "style" in err

    @pytest.mark.parametrize("field", ["levels", "lags"])
    @pytest.mark.parametrize("grid", ["[NaN]", "[Infinity]", "[-Infinity]", '"abc"', "5", "[true, 10]"])
    def test_malformed_config_grid_rejected(self, tmp_path, capsys, field, grid):
        # NaN and Infinity are not JSON, but json.loads accepts them.
        cfg = tmp_path / "e.json"
        cfg.write_text(
            '{"base": %s, "noise": %s, "weight": 0.1, "%s": %s}'
            % (json.dumps(FARIMA03), json.dumps(WHITE), field, grid)
        )
        rc, _, err = run(["brittle", "--spec", str(cfg)], capsys)
        assert rc == 2
        assert field in err


class TestSampleCommand:
    def test_deterministic_across_invocations(self, tmp_path, capsys):
        spec = write_spec(tmp_path, FGN08)
        args = ["sample", "--spec", spec, "--nmax", "64", "--seed", "3735928559"]
        rc1, first, _ = run(args, capsys)
        rc2, second, _ = run(args, capsys)
        assert rc1 == rc2 == 0
        assert first == second

    def test_hex_seed_matches_decimal(self, tmp_path, capsys):
        spec = write_spec(tmp_path, FGN08)
        _, dec, _ = run(["sample", "--spec", spec, "--nmax", "16", "--seed", "3735928559"], capsys)
        _, hexed, _ = run(["sample", "--spec", spec, "--nmax", "16", "--seed", "0xDEADBEEF"], capsys)
        assert dec == hexed

    def test_leading_zero_decimal_seed_matches_plain(self, tmp_path, capsys):
        spec = write_spec(tmp_path, FGN08)
        rc, padded, _ = run(["sample", "--spec", spec, "--nmax", "16", "--seed", "007"], capsys)
        _, plain, _ = run(["sample", "--spec", spec, "--nmax", "16", "--seed", "7"], capsys)
        _, upper, _ = run(["sample", "--spec", spec, "--nmax", "16", "--seed", "0X7"], capsys)
        assert rc == 0 and padded == plain == upper

    @pytest.mark.parametrize("seed", ["0b11", "0o7", "1_000", " 7", "-1", "0x", ""])
    def test_undocumented_seed_forms_exit_two(self, tmp_path, capsys, seed):
        rc, _, err = run(
            ["sample", "--spec", write_spec(tmp_path, WHITE), "--nmax", "8", "--seed", seed], capsys
        )
        assert rc == 2
        assert "decimal or 0x-prefixed" in err

    def test_multiple_paths_are_labelled(self, tmp_path, capsys):
        spec = write_spec(tmp_path, WHITE)
        rc, out, _ = run(
            ["sample", "--spec", spec, "--nmax", "8", "--seed", "7", "--paths", "3"], capsys
        )
        header, rows = parse_csv(out)
        assert rc == 0
        assert header == ["path", "t", "value"]
        assert len(rows) == 24
        assert {r[0] for r in rows} == {"0", "1", "2"}

    def test_length_one_rejected(self, tmp_path, capsys):
        rc, _, err = run(
            ["sample", "--spec", write_spec(tmp_path, WHITE), "--nmax", "1", "--seed", "1"], capsys
        )
        assert rc == 2
        assert "--nmax" in err

    def test_oversized_length_exits_two_before_any_table(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the autocovariance table was requested")

        monkeypatch.setattr(sampler, "acvf", unreachable)
        monkeypatch.setattr(np.random, "SeedSequence", unreachable)
        spec = write_spec(tmp_path, WHITE)
        # One path too long, then a batch of short paths too many in total.
        for n, paths in ((2**40, 1), (2**40, 3), (2, 10**15)):
            rc, out, err = run(
                ["sample", "--spec", spec, "--nmax", str(n), "--seed", "1", "--paths", str(paths)], capsys
            )
            assert rc == 2
            assert out == ""
            assert "2^28" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_parses_back_bit_for_bit(self, tmp_path, capsys, fmt):
        # N = 1000 embeds at 2000, not at 2(N-1) = 1998.
        n, count, seed = 1000, 3, 424242
        spec = write_spec(tmp_path, FARIMA03)
        rc, out, _ = run(
            ["sample", "--spec", spec, "--nmax", str(n), "--seed", str(seed), "--paths", str(count),
             "--format", fmt],
            capsys,
        )
        assert rc == 0
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]
        if fmt == "csv":
            header, rows = parse_csv(out)
            assert header == ["path", "t", "value"]
            assert [(int(p), int(t)) for p, t, _ in rows] == [(i, t) for i in range(count) for t in range(n)]
            got = np.array([float(v) for _, _, v in rows]).reshape(count, n)
        else:
            obj = json.loads(out)
            assert (obj["seed"], obj["n"], obj["path_seeds"]) == (seed, n, seeds)
            got = np.array(obj["paths"], dtype=np.float64)
        want = np.stack([sample(spec_from_json(FARIMA03), n, s).values for s in seeds])
        assert got.tobytes() == want.tobytes()

    def test_csv_holds_the_paths_and_one_chunk(self, tmp_path, monkeypatch):
        # The path, t and value columns are derived a chunk at a time, so
        # writing a batch allocates little beyond the paths themselves.
        n, count = 2**13, 32
        stored = sample_many(spec_from_json(WHITE), n, 11, count)
        monkeypatch.setattr(
            cli, "sample_many", lambda *a, **k: [SamplePath(p.spec, p.seed, p.values) for p in stored]
        )
        monkeypatch.setattr(cli, "_CHUNK", 2**12)
        argv = ["sample", "--spec", write_spec(tmp_path, WHITE), "--nmax", str(n), "--seed", "11",
                "--paths", str(count), "--out", str(tmp_path / "batch.csv")]
        tracemalloc.start()
        try:
            rc = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < n * count * 8 + 64 * cli._CHUNK * 8
        rows = (tmp_path / "batch.csv").read_text().splitlines()
        assert len(rows) == 1 + n * count
        assert rows[n + 1] == "1,0,%.17g" % stored[1].values[0]

    def test_json_holds_the_paths_and_one_chunk(self, tmp_path, monkeypatch):
        # The paths are written one array at a time, with no stacked copy of
        # the batch.  The shortest-repr kernel keeps more temporaries per
        # value than %.17g, hence the larger per-chunk allowance.
        n, count = 2**13, 32
        stored = sample_many(spec_from_json(WHITE), n, 11, count)
        monkeypatch.setattr(
            cli, "sample_many", lambda *a, **k: [SamplePath(p.spec, p.seed, p.values) for p in stored]
        )
        monkeypatch.setattr(cli, "_CHUNK", 2**10)
        argv = ["sample", "--spec", write_spec(tmp_path, WHITE), "--nmax", str(n), "--seed", "11",
                "--paths", str(count), "--format", "json", "--out", str(tmp_path / "batch.json")]
        tracemalloc.start()
        try:
            rc = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < n * count * 8 + 128 * cli._CHUNK * 8
        obj = json.loads((tmp_path / "batch.json").read_text())
        assert obj["path_seeds"] == [p.seed for p in stored]
        assert np.array_equal(obj["paths"], [p.values for p in stored])

    def test_oversized_seed_rejected(self, tmp_path, capsys):
        rc, _, err = run(
            ["sample", "--spec", write_spec(tmp_path, WHITE), "--nmax", "8", "--seed", str(2**64)],
            capsys,
        )
        assert rc == 2
        assert "64" in err


class TestExitCodes:
    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["vtf", "--spec", write_spec(tmp_path, WHITE), "--wat", "1"])
        assert exc.value.code == 2

    def test_domain_error_exits_two(self, tmp_path, capsys):
        unit_root = {
            "type": "fracdiff",
            "H": 0.3,
            "driver": {"type": "arma", "ar": [1.0], "ma": [], "sigma2": 1.0},
        }
        rc, _, err = run(["acvf", "--spec", write_spec(tmp_path, unit_root)], capsys)
        assert rc == 2
        assert err.startswith("error:")

    def test_convergence_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ConvergenceError("budget exhausted")

        monkeypatch.setattr(cli, "acvf", boom)
        rc, _, err = run(["acvf", "--spec", write_spec(tmp_path, FGN08)], capsys)
        assert rc == 3
        assert "budget exhausted" in err

    def test_coverage_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise CoverageError("lag 12 beyond table")

        monkeypatch.setattr(cli, "acvf", boom)
        rc, _, err = run(["acvf", "--spec", write_spec(tmp_path, FGN08)], capsys)
        assert rc == 3
        assert "lag 12" in err

    def test_negative_tolerance_rejected(self, tmp_path, capsys):
        rc, _, err = run(
            ["acvf", "--spec", write_spec(tmp_path, FGN08), "--tol=-1e-9"], capsys
        )
        assert rc == 2
        assert "--tol" in err


class TestEmissionMatchesTheOldEmitter:
    """Bulk emission writes exactly what csv.writer and json.dumps(indent=2) wrote."""

    COMMANDS = {
        "spectrum": ["spectrum", "--spec", "fd", "--points", "40"],
        "acvf": ["acvf", "--spec", "arma", "--nmax", "64"],
        "acvf_m": ["acvf", "--spec", "fgn", "--nmax", "50", "--m", "10"],
        "vtf": ["vtf", "--spec", "fd", "--nmax", "300", "--m", "3"],
        "ctf": ["ctf", "--spec", "fgn", "--nmax", "200", "--m", "7"],
        "closeness": ["closeness", "--spec", "fd"],
        "brittle": ["brittle", "--experiment", "1"],
        "sample": ["sample", "--spec", "fgn", "--nmax", "100", "--seed", "5", "--paths", "3"],
        "sample_one": ["sample", "--spec", "fd", "--nmax", "33", "--seed", "0xBEEF"],
    }
    SPECS = {
        "fgn": FGN08,
        "fd": FARIMA03,
        "arma": {"type": "fracdiff", "H": 0.8,
                 "driver": {"type": "arma", "ar": [0.3], "ma": [0.7], "sigma2": 1.0}},
    }

    @pytest.fixture
    def recorded(self, monkeypatch):
        calls = []
        real = cli._emit

        def record(args, header, columns, json_obj=None):
            calls.append((args.format, header, columns, json_obj))
            real(args, header, columns, json_obj)

        monkeypatch.setattr(cli, "_emit", record)
        return calls

    @pytest.mark.parametrize("chunk", [7, cli._CHUNK])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_subcommand_text(self, tmp_path, capsys, monkeypatch, recorded, command, fmt, chunk):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        argv = [
            write_spec(tmp_path, self.SPECS[a], f"{a}.json") if a in self.SPECS else a
            for a in self.COMMANDS[command]
        ]
        rc, out, _ = run(argv + ["--format", fmt], capsys)
        assert rc == 0
        (used, header, columns, json_obj), = recorded
        assert used == fmt
        assert out == old_text(fmt, header, columns, json_obj)

    @pytest.mark.parametrize("chunk", [1, 2, 3, cli._CHUNK])
    def test_edge_cells(self, tmp_path, capsys, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        header = ("label", "m", "n", "value")
        columns = (
            ["plain", 'say "hi"', "a,b", "line\nbreak", ""],
            [None, 10, 2.5, np.int64(-3), 1e300],
            np.array([0, -1, 2**62, 7, 3]),
            np.array([math.nan, math.inf, -math.inf, -0.0, 0.1]),
        )
        args = argparse.Namespace(format="csv", out=None)
        cli._emit(args, header, columns)
        assert capsys.readouterr().out == old_text("csv", header, columns)

        numeric = (np.array([1, 2, 3]), np.array([math.nan, -math.inf, 1 / 3]))
        cli._emit(argparse.Namespace(format="json", out=None), ("n", "value"), numeric)
        assert capsys.readouterr().out == old_text("json", ("n", "value"), numeric)

        obj = {
            "z": None,
            "a": [1, 2.0, "\u00e9\"", True, False, None, [], {}],
            "nested": {"curve": [[1, math.nan], [2, math.inf], [3, -math.inf]], "empty": []},
            "ints": np.arange(5),
            "line": np.array([0.1, 1 / 3, 2.0, -1e-310]),
            "finite": np.array([[0.1, -2.5e-300, 1e22], [3.0, -0.0, 7.0]]),
            "special": np.array([1.0, math.nan, math.inf]),
            "hollow": np.zeros((2, 0)),
            "none": np.array([]),
        }
        out_path = tmp_path / "edge.json"
        cli._emit(argparse.Namespace(format="json", out=str(out_path)), (), None, json_obj=obj)
        assert out_path.read_text() == old_text("json", (), None, obj)


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the package and its CLI
    # in a fresh interpreter must not load any scipy module.
    src = str(Path(lrdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, lrdlab, lrdlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
