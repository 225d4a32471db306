"""Benchmark of lrdlab: one workload per run, end to end or traced by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up the workload several times in fresh processes (``setup_s``),
then repeats whole passes of the workload's operations for about S
seconds.  Each pass gets its own inputs from (seed, pass index), starts
with the library's memo caches emptied, and checks every output against
the independent references after its timer stops.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, where untraced and traced passes alternate).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Modules that load numpy (checks, tracer, workloads) are imported only after
# lrd_inputs.pin_threads() has set the thread pins.
import lrd_inputs

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "covariance_engine.filon_s": "s",
    "covariance_engine.filon_lags": "count",
    "covariance_engine.lags_built": "count",
    "covariance_engine.self_s": "s",
    "covariance_engine.g_coeffs_s": "s",
    "covariance_engine.acvf_err_ratio": "ratio",
    "kernel_special.self_s": "s",
    "kernel_special.lattice_points": "count",
    "process_model.self_s": "s",
    "process_model.spectrum_points": "count",
    "vtf_aggregation.self_s": "s",
    "vtf_aggregation.omega_built": "count",
    "vtf_aggregation.max_rel_err": "ratio",
    "asymptotics_lab.self_s": "s",
    "sampler.self_s": "s",
    "sampler.ns_per_value": "ns",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.ns_per_byte": "ns",
    "trace.overhead_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=lrd_inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median time from spawning a fresh interpreter to its inputs being ready."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(workdir / f"probe{i}")]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise lrd_inputs.SetupError(f"set-up probe failed: {err.strip()}")
        times.append(elapsed)
    return statistics.median(times)


def run_pass(ops, tracer, traced: bool) -> dict:
    from checks import Verdict

    record = {"traced": traced, "wall": [], "cpu": [], "verdicts": []}
    for op in ops:
        gc.collect()
        tracer.active = traced
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, error = None, exc
            traceback.print_exc(file=sys.stderr)
        c1, w1 = time.process_time(), time.perf_counter()
        tracer.active = False
        verdict = op.check(out) if error is None else Verdict(False, True, f"raised {error!r}")
        record["wall"].append(w1 - w0)
        record["cpu"].append(c1 - c0)
        record["verdicts"].append((op.name, verdict))
    return record


def _median_sum(records, key: str) -> float:
    per_op = zip(*(r[key] for r in records))
    return sum(statistics.median(times) for times in per_op)


def measure(args, lrdlab, workdir: Path) -> tuple[list[dict], list]:
    import tracer as tr
    import workloads as wl

    refs = wl.References(wl.tolerance(lrdlab))
    caches = wl.Caches(lrdlab)
    tracer = tr.Tracer()
    if args.trace:
        tr.install(tracer)
    records, last_spans = [], []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            inputs = lrd_inputs.build_inputs(lrdlab, args.workload, args.seed, len(records), workdir)
            ops = wl.OPS[args.workload](lrdlab, inputs, refs, tracer)
            caches.clear()
            record = run_pass(ops, tracer, traced)
            if traced:
                last_spans = tracer.take()
                record["layers"] = tr.layer_report(last_spans)
            records.append(record)
            # Stop at a whole round (a traced run pairs untraced and traced
            # passes) when the next round would end past the run length.
            step = 2 if args.trace else 1
            n = len(records)
            elapsed = time.perf_counter() - start
            if n % step == 0 and elapsed * (n + step) / n > args.seconds:
                return records, last_spans
    finally:
        tracer.restore()


def metrics_of(args, records, setup_s: float) -> dict:
    plain = [r for r in records if not r["traced"]]
    verdicts = [v for r in records for _, v in r["verdicts"]]
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "wall_s": _median_sum(plain, "wall"),
            "cpu_s": _median_sum(plain, "cpu"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        traced = [r for r in records if r["traced"]]
        values = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        ratios = [v.acvf_err_ratio for v in verdicts if v.acvf_err_ratio is not None]
        rels = [v.vtf_rel_err for v in verdicts if v.vtf_rel_err is not None]
        values["covariance_engine.acvf_err_ratio"] = max(ratios, default=0.0)
        values["vtf_aggregation.max_rel_err"] = max(rels, default=0.0)
        # The first pass runs cold (fresh heap, first imports inside the
        # library); leave it out of the comparison when a warm one exists.
        warm = plain[1:] or plain
        values["trace.overhead_s"] = statistics.median(sum(r["wall"]) for r in traced) - statistics.median(
            sum(r["wall"]) for r in warm
        )
        units = PER_LAYER_UNITS
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def _spans_json(spans) -> list[dict]:
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {"name": s.name, "layer": s.layer, "parent": index.get(id(s.parent)), "start": s.start,
         "end": s.end, "self": (s.end - s.start) - s.child_time, "counts": s.counts}
        for s in spans
    ]


def main(argv=None) -> int:
    args = _parse_args(argv)
    lrd_inputs.pin_threads()
    root = Path.cwd()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        lrdlab = lrd_inputs.load_lrdlab(root)
        setup_s = time_setup(args.workload, args.seed, workdir)
        records, spans = measure(args, lrdlab, workdir)
    except lrd_inputs.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = [(name, v) for r in records for name, v in r["verdicts"]]
    result = {
        "correct": all(v.sound for _, v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(not v.passed for _, v in verdicts),
        "metrics": metrics_of(args, records, setup_s),
    }
    for name, note in dict((name, v.note) for name, v in verdicts if not v.passed).items():
        print(f"{args.workload} {name}: failed: {note}", file=sys.stderr)
    per_op = {
        name: statistics.median(r["wall"][i] for r in records if not r["traced"])
        for i, (name, _) in enumerate(records[0]["verdicts"])
    }
    stem = f"{args.workload}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(
            {
                "args": vars(args),
                "op_wall_median_s": per_op,
                "pass_wall_s": [{"traced": r["traced"], "ops": r["wall"]} for r in records],
                **result,
            },
            indent=2,
        )
    )
    if spans:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(_spans_json(spans)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
