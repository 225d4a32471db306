"""Command-line front end: every analysis as a reproducible subcommand.

Subcommands evaluate spectra, autocovariances, variance-time and
correlation-time curves (optionally aggregated), closeness reports,
built-in brittleness experiments, and exact Gaussian sample paths,
emitting CSV or JSON.  Every command is deterministic given its full
flag set; the sampler is deterministic given its seed.

Exit codes: 0 success, 2 configuration or parse error, 3 coverage
shortfall or numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .asymptotics_lab import (
    BrittlenessExperiment,
    brittleness_csv_rows,
    builtin_experiment,
    closeness_csv_rows,
    closeness_report,
    report_to_json,
    run_brittleness,
)
from .covariance_engine import acvf
from .errors import ConvergenceError, CoverageError, DomainError
from .kernel_special import Tolerance
from .process_model import spec_from_json, spec_to_json, spectrum
from .sampler import sample, sample_many
from .vtf_aggregation import aggregate_ctf, aggregate_vtf, vtf

def _load_spec(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {path!r}: {exc}") from exc
    return spec_from_json(obj)


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError as exc:
        raise DomainError(f"seed must be a decimal or 0x-prefixed integer, got {text!r}") from exc
    return value


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _tolerance(args) -> Tolerance:
    if args.tol is None:
        return Tolerance()
    if not args.tol > 0:
        raise DomainError(f"--tol must be positive, got {args.tol}")
    return Tolerance(abs_tol=args.tol, rel_tol=args.tol)


def _positive_int(args, name: str, minimum: int = 1) -> int:
    value = getattr(args, name)
    if value < minimum:
        raise DomainError(f"--{name} must be at least {minimum}, got {value}")
    return value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _emit(args, header, rows, json_obj=None) -> None:
    if args.format == "json":
        if json_obj is None:
            json_obj = {
                "columns": list(header),
                "rows": [[None if v is None else float(v) for v in row] for row in rows],
            }
        text = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    points = _positive_int(args, "points")
    if not (0 < args.xmin <= args.xmax <= 0.5):
        raise DomainError(
            f"need 0 < xmin <= xmax <= 0.5 (the grid avoids x = 0), got [{args.xmin}, {args.xmax}]"
        )
    if points == 1:
        xs = np.array([args.xmin])
    elif args.grid == "log":
        xs = np.geomspace(args.xmin, args.xmax, points)
    else:
        xs = np.linspace(args.xmin, args.xmax, points)
    values = spectrum(spec, xs, tol)
    _emit(args, ("x", "f"), list(zip(xs.tolist(), np.asarray(values).tolist())))


def _aggregated_view(spec, n_max: int, m: int, tol: Tolerance):
    table = acvf(spec, max(1, m * (n_max + 1)), tol)
    return vtf(table, m * (n_max + 1))


def cmd_acvf(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    n_max = _positive_int(args, "nmax", 0)
    m = _positive_int(args, "m")
    if m == 1:
        table = acvf(spec, n_max, tol)
        rows = [(n, table.gamma(n)) for n in range(n_max + 1)]
    else:
        agg = aggregate_vtf(_aggregated_view(spec, n_max, m, tol), m)
        # Second difference of the aggregated variance-time curve.
        rows = [(0, agg.omega(1))]
        rows += [(n, (agg.omega(n + 1) - 2 * agg.omega(n) + agg.omega(n - 1)) / 2) for n in range(1, n_max + 1)]
    _emit(args, ("n", "value"), rows)


def cmd_vtf(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    n_max = _positive_int(args, "nmax")
    m = _positive_int(args, "m")
    agg = aggregate_vtf(_aggregated_view(spec, n_max, m, tol), m)
    _emit(args, ("n", "value"), [(n, agg.omega(n)) for n in range(1, n_max + 1)])


def cmd_ctf(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    n_max = _positive_int(args, "nmax")
    m = _positive_int(args, "m")
    view = _aggregated_view(spec, n_max, m, tol)
    _emit(args, ("n", "value"), [(n, aggregate_ctf(view, m, n)) for n in range(1, n_max + 1)])


def cmd_closeness(args) -> None:
    spec = _load_spec(args.spec)
    report = closeness_report(spec, tol=_tolerance(args))
    _emit(
        args,
        ("series_label", "m", "n", "value"),
        closeness_csv_rows(report),
        json_obj=report_to_json(report),
    )


def _custom_experiment(path: str, levels, lags) -> BrittlenessExperiment:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DomainError(f"cannot read experiment file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise DomainError("experiment config must be an object")
    allowed = {"base", "noise", "weight", "levels", "lags"}
    unknown = set(obj) - allowed
    if unknown:
        raise DomainError(f"unknown experiment fields {sorted(unknown)}")
    for field in ("base", "noise", "weight"):
        if field not in obj:
            raise DomainError(f"experiment config is missing {field!r}")
    weight = obj["weight"]
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise DomainError("'weight' must be a number")
    kwargs = {}
    for field, flag in (("levels", levels), ("lags", lags)):
        grid = flag if flag is not None else obj.get(field)
        if grid is not None:
            kwargs[field] = tuple(grid)
    return BrittlenessExperiment(
        base=spec_from_json(obj["base"]),
        noise=spec_from_json(obj["noise"]),
        weight=float(weight),
        **kwargs,
    )


def cmd_brittle(args) -> None:
    levels = _parse_int_list(args.levels, "--levels") if args.levels else None
    lags = _parse_int_list(args.lags, "--lags") if args.lags else None
    if (args.experiment is None) == (args.spec is None):
        raise DomainError("pass exactly one of --experiment {1,2,3} or --spec CONFIG.json")
    if args.experiment is not None:
        experiment = builtin_experiment(args.experiment)
        if levels is not None or lags is not None:
            experiment = BrittlenessExperiment(
                base=experiment.base,
                noise=experiment.noise,
                weight=experiment.weight,
                levels=levels if levels is not None else experiment.levels,
                lags=lags if lags is not None else experiment.lags,
            )
    else:
        experiment = _custom_experiment(args.spec, levels, lags)
    result = run_brittleness(experiment, tol=_tolerance(args))
    rows = brittleness_csv_rows(result)
    json_obj = {
        "base": spec_to_json(experiment.base),
        "noise": spec_to_json(experiment.noise),
        "weight": experiment.weight,
        "levels": list(experiment.levels),
        "lags": list(experiment.lags),
        "fixed_point": {"H": result.fixed_point.H.H, "V": result.fixed_point.V},
        "rows": [[label, float(m), float(n), float(v)] for label, m, n, v in rows],
    }
    _emit(args, ("series_label", "m", "n", "value"), rows, json_obj=json_obj)


def cmd_sample(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    n = _positive_int(args, "nmax", 2)
    count = _positive_int(args, "paths")
    seed = _parse_seed(args.seed)
    if count == 1:
        paths = [sample(spec, n, seed, tol=tol)]
    else:
        paths = sample_many(spec, n, seed, count, tol=tol)
    rows = [(i, t, v) for i, p in enumerate(paths) for t, v in enumerate(p.values.tolist())]
    json_obj = {
        "seed": seed,
        "n": n,
        "path_seeds": [p.seed for p in paths],
        "paths": [p.values.tolist() for p in paths],
    }
    _emit(args, ("path", "t", "value"), rows, json_obj=json_obj)


def _add_common(sub, *, spec_required=True, nmax_default=None, format_default="csv"):
    if spec_required:
        sub.add_argument("--spec", required=True, help="path to process-spec JSON")
    if nmax_default is not None:
        sub.add_argument("--nmax", type=int, default=nmax_default, help=f"largest lag (default {nmax_default})")
    sub.add_argument("--tol", type=float, default=None, help="error target for adaptive routines (default library tolerance)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default=format_default,
        help=f"output format (default {format_default})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrdlab",
        description="Exact second-order analysis of long-range dependent processes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("spectrum", help="spectral density on a grid avoiding x = 0")
    _add_common(p)
    p.add_argument("--xmin", type=float, default=1e-4, help="grid start, > 0 (default 1e-4)")
    p.add_argument("--xmax", type=float, default=0.5, help="grid end, <= 0.5 (default 0.5)")
    p.add_argument("--points", type=int, default=200, help="grid size (default 200)")
    p.add_argument("--grid", choices=("log", "linear"), default="log", help="grid spacing (default log)")
    p.set_defaults(func=cmd_spectrum)

    p = commands.add_parser("acvf", help="autocovariance gamma(0..nmax), optionally of the level-m aggregate")
    _add_common(p, nmax_default=100)
    p.add_argument("--m", type=int, default=1, help="aggregation level (default 1)")
    p.set_defaults(func=cmd_acvf)

    p = commands.add_parser("vtf", help="variance-time curve omega^(m)(1..nmax)")
    _add_common(p, nmax_default=100)
    p.add_argument("--m", type=int, default=1, help="aggregation level (default 1)")
    p.set_defaults(func=cmd_vtf)

    p = commands.add_parser("ctf", help="correlation-time curve rho^(m)(1..nmax)")
    _add_common(p, nmax_default=100)
    p.add_argument("--m", type=int, default=1, help="aggregation level (default 1)")
    p.set_defaults(func=cmd_ctf)

    p = commands.add_parser(
        "closeness",
        help="offset, slope, and gap diagnostics against the matched self-similar process",
    )
    _add_common(p, format_default="json")
    p.set_defaults(func=cmd_closeness)

    p = commands.add_parser("brittle", help="normalised variance-time ratios for a base/perturbed pair")
    p.add_argument("--experiment", type=int, choices=(1, 2, 3), default=None, help="built-in experiment id")
    p.add_argument("--spec", default=None, help="custom experiment JSON (base, noise, weight, optional levels/lags)")
    p.add_argument("--levels", default=None, help="comma-separated aggregation levels (default 1,10,100)")
    p.add_argument("--lags", default=None, help="comma-separated lags (default 1..10)")
    p.add_argument("--tol", type=float, default=None, help="error target for adaptive routines")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")
    p.set_defaults(func=cmd_brittle)

    p = commands.add_parser("sample", help="exact Gaussian sample paths (deterministic per seed)")
    _add_common(p)
    p.add_argument("--nmax", type=int, required=True, help="path length N >= 2")
    p.add_argument("--seed", required=True, help="unsigned 64-bit seed, decimal or 0x-hex")
    p.add_argument("--paths", type=int, default=1, help="independent paths; seeds derive from --seed (default 1)")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CoverageError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
