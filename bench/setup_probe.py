"""One timed set-up in a fresh process: import lrdlab and build a pass's inputs.

Run by ``run.py`` as ``python3 bench/setup_probe.py WORKLOAD SEED WORKDIR``
from the checkout root; it prints ``ready`` once the inputs exist, and the
parent reads the time from spawning it to that line.
"""

import sys
from pathlib import Path

import lrd_inputs


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    lrd_inputs.pin_threads()
    lrdlab = lrd_inputs.load_lrdlab(Path.cwd())
    lrd_inputs.build_inputs(lrdlab, workload, seed, 0, workdir)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
