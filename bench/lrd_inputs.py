"""The benchmark's inputs: the library under test and each workload's specs.

This module is the whole of the timed set-up.  It puts the checkout's
``src/`` first on ``sys.path``, imports ``lrdlab`` from there (and from
nowhere else), and builds one pass of a workload's inputs: process specs,
the spec files the CLI reads, and the built-in brittleness experiments.
Everything a pass feeds to the program comes from ``(seed, pass_index)``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("spectral_route", "closed_form_vtf", "sample_emit")

# Thread pins, applied before numpy loads: one BLAS thread and one sampler
# worker, so wall time and CPU time measure the same serial work.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LRD_LAB_THREADS": "1",
}

# The Filon-route spec of the spectral_route workload and its experiment 2:
# FracDiff(H=0.8) over ARMA(ar=[0.3], ma=[0.7], sigma^2=1).
ARMA_H, ARMA_PHI, ARMA_THETA = 0.8, 0.3, 0.7
SAMPLE_H = 0.8
SAMPLE_MANY_N, SAMPLE_MANY_PATHS = 8192, 400
EMIT_N, EMIT_PATHS, EMIT_NOISE_WEIGHT = 65536, 10, 0.1
# Seeded white-driver Hurst exponents stay above 0.8: below about 0.79 the
# g-coefficient grid of `closeness` doubles once more, so seeds on both
# sides of that edge would do different amounts of work.
WHITE_H_RANGE = (0.82, 0.94)
FGN_H_RANGE = (0.6, 0.95)
VARIANCE_RANGE = (0.5, 2.0)


class SetupError(RuntimeError):
    """The checkout does not hold the library this benchmark measures."""


def pin_threads() -> None:
    os.environ.update(THREAD_PINS)


def load_lrdlab(root: Path):
    """Import ``lrdlab`` from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "lrdlab" / "__init__.py").is_file():
        raise SetupError(f"no lrdlab sources under {src}")
    sys.path.insert(0, str(src))
    import lrdlab
    import lrdlab.cli  # noqa: F401  (the CLI is part of what is measured)

    if Path(lrdlab.__file__).resolve().parent != src / "lrdlab":
        raise SetupError(f"lrdlab was imported from {lrdlab.__file__}, not from {src}")
    return lrdlab


@dataclass
class PassInputs:
    """Everything one pass of a workload hands to the program."""

    workload: str
    seed: int
    pass_index: int
    workdir: Path
    files: dict = field(default_factory=dict)
    specs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def _rng(seed: int, pass_index: int):
    import numpy as np

    return np.random.default_rng([seed, pass_index])


def _write_spec(lrdlab, inputs: PassInputs, name: str, spec) -> None:
    path = inputs.workdir / f"{name}-{inputs.pass_index}.json"
    path.write_text(json.dumps(lrdlab.spec_to_json(spec)))
    inputs.specs[name] = spec
    inputs.files[name] = str(path)


def build_inputs(lrdlab, workload: str, seed: int, pass_index: int, workdir: Path) -> PassInputs:
    """Specs, spec files and experiments for one pass of ``workload``."""
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = PassInputs(workload, seed, pass_index, workdir)
    rng = _rng(seed, pass_index)
    p = inputs.params

    if workload == "spectral_route":
        arma = lrdlab.Arma((ARMA_PHI,), (ARMA_THETA,), 1.0)
        _write_spec(lrdlab, inputs, "arma_fd", lrdlab.FracDiff(lrdlab.HurstParam(ARMA_H), arma))
        inputs.specs["driver"] = arma
        inputs.specs["experiment2"] = lrdlab.builtin_experiment(2)
    elif workload == "closed_form_vtf":
        p["white_H"] = float(rng.uniform(*WHITE_H_RANGE))
        p["white_sigma2"] = float(rng.uniform(*VARIANCE_RANGE))
        p["fgn_H"] = float(rng.uniform(*FGN_H_RANGE))
        p["fgn_V"] = float(rng.uniform(*VARIANCE_RANGE))
        white = lrdlab.FracDiff(lrdlab.HurstParam(p["white_H"]), lrdlab.WhiteNoise(p["white_sigma2"]))
        _write_spec(lrdlab, inputs, "white_fd", white)
        _write_spec(lrdlab, inputs, "fgn", lrdlab.Fgn(lrdlab.HurstParam(p["fgn_H"]), p["fgn_V"]))
        inputs.specs["experiment1"] = lrdlab.builtin_experiment(1)
        inputs.specs["experiment3"] = lrdlab.builtin_experiment(3)
    else:
        p["many_seed"], p["emit_seed"] = (int(s) for s in rng.integers(0, 2**63, size=2))
        fgn = lrdlab.Fgn(lrdlab.HurstParam(SAMPLE_H), 1.0)
        white = lrdlab.FracDiff(lrdlab.HurstParam(0.5), lrdlab.WhiteNoise(1.0))
        inputs.specs["fgn"] = fgn
        _write_spec(lrdlab, inputs, "noisy", lrdlab.Sum(((fgn, 1.0), (white, EMIT_NOISE_WEIGHT))))
    return inputs
