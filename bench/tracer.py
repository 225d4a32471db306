"""Spans around the library's public functions, recorded from outside ``src/``.

Each function is wrapped where its caller looks it up: ``lrdlab.cli.acvf``,
``lrdlab.sampler.acvf``, ``lrdlab.asymptotics_lab.acvf`` and
``lrdlab.covariance_engine.acvf`` (which the ``Sum`` builder calls
recursively) are four wrappers round one function.  A span records its
layer, its parent span and the work counts of that call; a layer's self
time is the time of its spans minus the time their child spans cover.
Spans are kept in memory only while ``active`` is set, so checks that call
the library between operations leave no spans.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "kernel_special",
    "process_model",
    "covariance_engine",
    "vtf_aggregation",
    "asymptotics_lab",
    "sampler",
    "cli",
)


@dataclass
class Span:
    name: str
    layer: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """Installs wrappers on a loaded ``lrdlab`` and collects spans."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, layer: str, count=None, before=None) -> None:
        """Replace ``owner.attr``, if it exists, by a recording wrapper.

        ``before(args, kwargs)`` runs ahead of the call; ``count(args, kwargs,
        result, pre)`` returns the span's work counts.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return  # a binding a later version dropped; its counts read 0
        name = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            stack = self._stack()
            span = Span(name, layer, stack[-1] if stack else None, time.perf_counter())
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                self.spans.append(span)
            if count is not None:
                span.counts = count(args, kwargs, result, pre)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def add_count(self, layer: str, key: str, value: float) -> None:
        """Record a count measured at a layer boundary by the caller."""
        span = Span(f"{layer}.count", layer, None, 0.0, 0.0)
        span.counts = {key: value}
        self.spans.append(span)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of the loaded ``lrdlab``."""
    from lrdlab import asymptotics_lab as al
    from lrdlab import cli, covariance_engine as ce, process_model as pm, sampler as sm
    from lrdlab import vtf_aggregation as va

    def lags(args, kwargs, result, pre):
        return {"lags_built": result.n_max + 1}

    def grown(args, kwargs, result, pre):
        return {"lags_built": result.n_max - pre}

    def points(args, kwargs, result, pre):
        return {"spectrum_points": _size(args[1] if len(args) > 1 else kwargs["x"])}

    # covariance_engine (with _filon)
    for owner in (ce, cli, sm, al):
        tracer.wrap(owner, "acvf", "covariance_engine", count=lags)
    tracer.wrap(ce.AcvfTable, "extend", "covariance_engine", count=grown,
                before=lambda a, k: a[0].n_max)
    tracer.wrap(ce, "acvf_via_convolution", "covariance_engine", count=lags)
    tracer.wrap(ce, "g_fourier_coeffs", "covariance_engine")
    tracer.wrap(al, "_g_coeffs", "covariance_engine")
    tracer.wrap(ce, "filon_cos_integrals", "covariance_engine",
                count=lambda a, k, r, p: {"filon_lags": _size(a[1] if len(a) > 1 else k["lags"])})

    # process_model
    for owner in (ce, al, cli):
        tracer.wrap(owner, "spectrum", "process_model", count=points)
    tracer.wrap(ce, "driver_density", "process_model", count=points)
    for owner in (ce, va, al):
        tracer.wrap(owner, "matched_fgn", "process_model")
    tracer.wrap(cli, "spec_from_json", "process_model")
    for owner in (cli, al):
        tracer.wrap(owner, "spec_to_json", "process_model")

    # kernel_special
    tracer.wrap(pm, "fgn_lattice_sum", "kernel_special",
                count=lambda a, k, r, p: {"lattice_points": _size(a[0])})
    tracer.wrap(pm, "c_of_H", "kernel_special")

    # vtf_aggregation
    for owner in (cli, al):
        tracer.wrap(owner, "vtf", "vtf_aggregation",
                    count=lambda a, k, r, p: {"omega_built": r.n_max + 1})
    tracer.wrap(va.VtfView, "extend", "vtf_aggregation",
                count=lambda a, k, r, p: {"omega_built": r.n_max - p},
                before=lambda a, k: a[0].n_max)
    tracer.wrap(cli, "aggregate_vtf", "vtf_aggregation")
    for owner in (cli, al):
        tracer.wrap(owner, "aggregate_ctf", "vtf_aggregation")

    # asymptotics_lab
    for attr in ("closeness_report", "run_brittleness", "builtin_experiment",
                 "report_to_json", "closeness_csv_rows", "brittleness_csv_rows"):
        tracer.wrap(cli, attr, "asymptotics_lab")
    for attr in ("vtf_offset", "ctf_convergence_slope", "spectral_gap_profile", "acvf_gap_profile"):
        tracer.wrap(al, attr, "asymptotics_lab")

    # sampler
    def drawn(args, kwargs, result, pre):
        paths = result if isinstance(result, list) else [result]
        return {"values": sum(p.n for p in paths)}

    for owner in (sm, cli):
        tracer.wrap(owner, "sample", "sampler", count=drawn)
        tracer.wrap(owner, "sample_many", "sampler", count=drawn)
    tracer.wrap(sm, "empirical_acvf", "sampler")

    # cli
    tracer.wrap(cli, "main", "cli")


def layer_report(spans: list[Span]) -> dict:
    """Self time and work counts per layer, and the named inclusive times."""
    self_s = defaultdict(float)
    counts = defaultdict(float)
    inclusive = defaultdict(float)
    for span in spans:
        self_s[span.layer] += (span.end - span.start) - span.child_time
        for key, value in span.counts.items():
            counts[f"{span.layer}.{key}"] += value
        if span.name.endswith(".filon_cos_integrals"):
            inclusive["covariance_engine.filon_s"] += span.end - span.start
        elif span.name.endswith((".g_fourier_coeffs", "._g_coeffs")):
            inclusive["covariance_engine.g_coeffs_s"] += span.end - span.start
    report = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for key in (
        "covariance_engine.filon_lags",
        "covariance_engine.lags_built",
        "kernel_special.lattice_points",
        "process_model.spectrum_points",
        "vtf_aggregation.omega_built",
        "sampler.values",
        "cli.out_bytes",
    ):
        report[key] = counts[key]
    report["covariance_engine.filon_s"] = inclusive["covariance_engine.filon_s"]
    report["covariance_engine.g_coeffs_s"] = inclusive["covariance_engine.g_coeffs_s"]
    values, out_bytes = report.pop("sampler.values"), report["cli.out_bytes"]
    report["sampler.ns_per_value"] = 1e9 * report["sampler.self_s"] / values if values else 0.0
    report["cli.ns_per_byte"] = 1e9 * report["cli.self_s"] / out_bytes if out_bytes else 0.0
    return report
