"""Command-line front end: every analysis as a reproducible subcommand.

Subcommands evaluate spectra, autocovariances, variance-time and
correlation-time curves (optionally aggregated), closeness reports,
built-in brittleness experiments, and exact Gaussian sample paths,
emitting CSV or JSON.  Every command is deterministic given its full
flag set; the sampler is deterministic given its seed.

Exit codes: 0 success, 1 standard output closed by its reader, 2
configuration or parse error, 3 numerical non-convergence.  CSV tables
of numeric columns are bulk-formatted by ``_textfmt``; labelled tables
are written by ``csv.writer``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import _textfmt
from .asymptotics_lab import (
    BrittlenessExperiment,
    brittleness_csv_rows,
    builtin_experiment,
    closeness_csv_rows,
    closeness_report,
    report_to_json,
    run_brittleness,
)
from .covariance_engine import _fgn_block, acvf
from .errors import ConvergenceError, CoverageError, DomainError
from .kernel_special import Tolerance, _as_int, _as_length, _as_real
from .process_model import spec_from_json, spec_to_json, spectrum
from .sampler import sample, sample_many
from .vtf_aggregation import VtfView, _lags, aggregate_ctf, aggregate_vtf

def _read_json(path: str, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read {what} file {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {path!r}: {exc}") from exc


def _load_spec(path: str):
    return spec_from_json(_read_json(path, "spec"))


_SEED = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")


def _parse_seed(text: str) -> int:
    # Decimal digits (leading zeros allowed) or 0x/0X hex, nothing else.
    if not _SEED.fullmatch(text):
        raise DomainError(f"seed must be a decimal or 0x-prefixed integer, got {text!r}")
    return int(text, 16) if text[1:2] in ("x", "X") else int(text)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _tolerance(args) -> Tolerance:
    if args.tol is None:
        return Tolerance()
    tol = _as_real(args.tol, "--tol", positive=True)
    return Tolerance(abs_tol=tol, rel_tol=tol)


def _positive_int(args, name: str, minimum: int = 1) -> int:
    return _as_int(getattr(args, name), f"--{name}", minimum)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# Values per formatting call; bounds the memory one call holds.
_CHUNK = 1 << 16


def _cells(part):
    """CSV text of a slice of a numeric column: ints as %d, floats as %.17g."""
    convert = _textfmt.decimal if part.dtype.kind in "iu" else _textfmt.g17
    return _textfmt.cut(convert(part))


def _csv_chunks(header, columns):
    """CSV text of the columns: numeric arrays formatted a chunk of rows at a
    time, any other table row by row through csv.writer over _fmt cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if not all(isinstance(c, np.ndarray) and c.dtype.kind in "iuf" for c in columns):
        writer.writerows([_fmt(v) for v in row] for row in zip(*columns))
        yield buf.getvalue()
        return
    yield buf.getvalue()
    step = max(1, _CHUNK // max(1, len(columns)))
    for start in range(0, len(columns[0]) if columns else 0, step):
        parts = []
        for col in columns:
            parts += [_cells(col[start : start + step]), b","]
        parts[-1] = b"\n"
        yield _textfmt.join(parts)


def _json_array(arr: np.ndarray, level: int):
    # A finite 1-D or 2-D numeric array, formatted a chunk of whole rows at a
    # time: floats as their repr (the shortest text json writes), ints as %d,
    # each column followed by its constant separator; anything else goes item
    # by item.
    if not (arr.ndim in (1, 2) and arr.size and arr.dtype.kind in "fiu" and np.isfinite(arr).all()):
        yield from _json_chunks(arr.tolist(), level)
        return
    pad1, pad2 = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    if arr.ndim == 1:
        seps = [("," + pad1).encode()]
        opening, closing = "[" + pad1, "\n" + "  " * level + "]"
    else:
        seps = [("," + pad2).encode()] * (arr.shape[1] - 1) + [(pad1 + "]," + pad1 + "[" + pad2).encode()]
        opening, closing = "[" + pad1 + "[" + pad2, pad1 + "]\n" + "  " * level + "]"
    convert = _textfmt.shortest if arr.dtype.kind == "f" else _textfmt.decimal
    table = arr.reshape(len(arr), len(seps))
    step = max(1, _CHUNK // len(seps))
    yield opening
    for start in range(0, len(table), step):
        cells = convert(table[start : start + step].ravel()).reshape(-1, len(seps), 24)
        text = _textfmt.join([part for j, sep in enumerate(seps) for part in (_textfmt.cut(cells[:, j]), sep)])
        yield text if start + step < len(table) else text[: -len(seps[-1])]
    yield closing


def _json_chunks(obj, level: int = 0):
    """Text of json.dumps(obj, indent=2, sort_keys=True), numpy arrays in bulk."""
    if isinstance(obj, np.ndarray):
        yield from _json_array(obj, level)
    elif isinstance(obj, (dict, list, tuple)) and obj:
        pad = "\n" + "  " * (level + 1)
        if isinstance(obj, dict):
            opening, closing = "{", "}"
            items = ((json.dumps(k) + ": ", obj[k]) for k in sorted(obj))
        else:
            opening, closing = "[", "]"
            items = (("", v) for v in obj)
        for i, (key, value) in enumerate(items):
            yield ("," if i else opening) + pad + key
            yield from _json_chunks(value, level + 1)
        yield "\n" + "  " * level + closing
    else:
        yield json.dumps(obj)


def _emit(args, header, columns, json_obj=None) -> None:
    """Write the columns as CSV, or json_obj as JSON.

    Without json_obj the JSON is {"columns": header, "rows": the numeric
    columns as float rows}.  Output is byte-for-byte what csv.writer over
    _fmt cells and json.dumps(indent=2, sort_keys=True) write.
    """
    if args.format == "json":
        if json_obj is None:
            rows = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
            json_obj = {"columns": list(header), "rows": rows}
        _write(args, chain(_json_chunks(json_obj), ["\n"]))
    else:
        _write(args, _csv_chunks(header, columns))


def _write(args, chunks) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit


def cmd_spectrum(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    points = _as_length(args.points, "--points", 1)
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
    _emit(args, ("x", "f"), (xs, np.asarray(spectrum(spec, xs, tol), dtype=np.float64)))


def cmd_acvf(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    n_max, m = _positive_int(args, "nmax", 0), _positive_int(args, "m")
    ns = np.arange(_as_length(n_max, "--nmax") + 1)
    if m == 1:
        values = acvf(spec, n_max, tol).values
    else:
        _lags(n_max + 1, m)  # the 2^53 guard, before any lag array is built
        view = VtfView(spec, tol)
        h = view.H.H
        # gamma^(m)(n) is the second difference of omega(mn)/(2 m^2).  Split
        # omega = V N^(2H) + offset: the power part is m^(2H-2) times the
        # fGn autocovariance, and only the offsets are differenced, which
        # cancels nothing of size V (mn)^(2H).
        o = view.offset(m * np.arange(n_max + 2))
        o_prev = np.concatenate((o[1:2], o[:-2]))  # offset(m |n-1|)
        power = m ** (2.0 * h - 2.0) * _fgn_block(h, view.V, ns)
        values = power + (o[1:] - 2.0 * o[:-1] + o_prev) / (2.0 * m * m)
    _emit(args, ("n", "value"), (ns, values))


def cmd_vtf(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    n_max, m = _positive_int(args, "nmax"), _positive_int(args, "m")
    _lags(n_max, m)  # the 2^53 guard, before any lag array is built
    ns = np.arange(1, _as_length(n_max, "--nmax") + 1)
    values = aggregate_vtf(VtfView(spec, tol), m).omega(ns)
    _emit(args, ("n", "value"), (ns, values))


def cmd_ctf(args) -> None:
    spec = _load_spec(args.spec)
    tol = _tolerance(args)
    n_max, m = _positive_int(args, "nmax"), _positive_int(args, "m")
    _lags(n_max, m)  # the 2^53 guard, before any lag array is built
    ns = np.arange(1, _as_length(n_max, "--nmax") + 1)
    values = aggregate_ctf(VtfView(spec, tol), m, ns)
    _emit(args, ("n", "value"), (ns, values))


def cmd_closeness(args) -> None:
    spec = _load_spec(args.spec)
    report = closeness_report(spec, tol=_tolerance(args))
    _emit(
        args,
        ("series_label", "m", "n", "value"),
        list(zip(*closeness_csv_rows(report))),
        json_obj=report_to_json(report),
    )


def _custom_experiment(path: str) -> BrittlenessExperiment:
    obj = _read_json(path, "experiment")
    if not isinstance(obj, dict):
        raise DomainError("experiment config must be an object")
    allowed = {"base", "noise", "weight", "levels", "lags"}
    unknown = set(obj) - allowed
    if unknown:
        raise DomainError(f"unknown experiment fields {sorted(unknown)}")
    for field in ("base", "noise", "weight"):
        if field not in obj:
            raise DomainError(f"experiment config is missing {field!r}")
    kwargs = {field: obj[field] for field in ("levels", "lags") if obj.get(field) is not None}
    return BrittlenessExperiment(
        base=spec_from_json(obj["base"]),
        noise=spec_from_json(obj["noise"]),
        weight=obj["weight"],
        **kwargs,
    )


def cmd_brittle(args) -> None:
    overrides = {
        field: _parse_int_list(text, f"--{field}")
        for field, text in (("levels", args.levels), ("lags", args.lags))
        if text
    }
    if (args.experiment is None) == (args.spec is None):
        raise DomainError("pass exactly one of --experiment {1,2,3} or --spec CONFIG.json")
    if args.experiment is not None:
        experiment = builtin_experiment(args.experiment)
    else:
        experiment = _custom_experiment(args.spec)
    if overrides:
        experiment = dataclasses.replace(experiment, **overrides)
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
    _emit(args, ("series_label", "m", "n", "value"), list(zip(*rows)), json_obj=json_obj)


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
    if args.format == "json":
        json_obj = {
            "seed": seed,
            "n": n,
            "path_seeds": [p.seed for p in paths],
            "paths": [p.values for p in paths],
        }
        _emit(args, (), None, json_obj=json_obj)
    else:
        _write(args, _sample_csv([p.values for p in paths]))


def _sample_csv(values):
    """CSV text of equal-length paths, path by path.  The text of the t
    column and its comma is formatted once and shared; each call writes
    _CHUNK // 3 rows of a path."""
    n = len(values[0])
    t_text = np.concatenate((_textfmt.cut(_textfmt.decimal(np.arange(n))), np.full((n, 1), ord(","), np.uint8)), axis=1)
    step = max(1, _CHUNK // 3)
    yield "path,t,value\n"
    for i, v in enumerate(values):
        label = b"%d," % i
        for start in range(0, n, step):
            yield _textfmt.join([label, t_text[start : start + step], _cells(v[start : start + step]), b"\n"])


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
    _add_common(p, spec_required=False)
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
    except BrokenPipeError as exc:
        if args.out:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # The reader of stdout is gone (`| head`): end quietly with status 1,
        # as Python's signal docs advise for SIGPIPE; stdout now points at
        # devnull, so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
