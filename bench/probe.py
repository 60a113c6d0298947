"""Set-up probe, run in a fresh interpreter by run.py.

Imports glauberlab as the CLI does, parses one config file and builds the
inputs of a call.  Prints one JSON line: the CLOCK_MONOTONIC reading once
the inputs are built (the parent subtracts its own reading taken before the
interpreter started) and the parse time.

    python3 bench/probe.py CONFIG [--hierarchy]
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import glauberlab  # noqa: E402,F401  (the CLI's import cost, scipy included)
from glauberlab.config import (  # noqa: E402
    build_grid,
    build_initial_density,
    build_potential,
    build_scale_params,
    parse_config,
)
from glauberlab.hierarchy import exponential_hierarchy  # noqa: E402


def main(argv):
    start = time.perf_counter()
    cfg = parse_config(argv[0])
    parse_s = time.perf_counter() - start
    grid = build_grid(cfg)
    build_potential(cfg, grid)
    build_scale_params(cfg)
    rho0 = build_initial_density(cfg, grid)
    if "--hierarchy" in argv[1:]:
        exponential_hierarchy(rho0, cfg.n_max)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready": ready, "parse_config_s": parse_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
