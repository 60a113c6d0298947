"""Size ladder: single-call timings of the hierarchy kernels over (n_sites, n_max).

The rungs climb from (8,3) to the two shapes the 1e7-entry memory guard
admits at its edge, (56,4) and (215,3).  That guard bounds one tensor, not
apply_birth, which holds N substituted hierarchies at once: its working
set is N x (hierarchy bytes).  A rung runs only if that computed working
set fits in the memory the kernel reports available and under
RUNG_CAP_BYTES, which keeps a traced run small on a shared host; a
skipped rung is recorded with its computed bytes.
"""

import statistics
import time

import numpy as np

from glauberlab.generators import GLAUBER, apply_generator
from glauberlab.hierarchy import (
    ScaleParams,
    evaluate_gf,
    flat_dimension,
    random_ruelle_hierarchy,
    save_hierarchy,
    substitute_affine,
)
from glauberlab.lattice import GridField, gaussian_potential, make_grid

RUNGS = ((8, 3), (16, 4), (24, 4), (64, 3), (56, 4), (128, 3), (215, 3))
RUNG_CAP_BYTES = 256 * 2**20
KERNELS = ("apply_generator", "substitute_affine", "evaluate_gf", "save_hierarchy")
REPEATS = 3


def rung_tag(n_sites, n_max):
    return "n%dm%d" % (n_sites, n_max)


def apply_birth_bytes(n_sites, n_max):
    """Computed working set of apply_birth: N float64 hierarchies."""
    return n_sites * 8 * flat_dimension(make_grid(n_sites, 8.0), n_max)


def available_bytes():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def metric_units():
    """Every metric name the ladder reports, with its unit."""
    units = {}
    for n_sites, n_max in RUNGS:
        tag = rung_tag(n_sites, n_max)
        units["ladder.apply_birth_bytes." + tag] = "B"
        units["ladder.skipped." + tag] = "count"
        if apply_birth_bytes(n_sites, n_max) <= RUNG_CAP_BYTES:
            for kernel in KERNELS:
                units["ladder.%s_s.%s" % (kernel, tag)] = "s"
    return units


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(seed, work_dir):
    """Time each kernel on every rung that fits; returns the ladder metrics."""
    free = available_bytes()
    metrics = {}
    for n_sites, n_max in RUNGS:
        tag = rung_tag(n_sites, n_max)
        need = apply_birth_bytes(n_sites, n_max)
        metrics["ladder.apply_birth_bytes." + tag] = need
        runs = need <= min(free, RUNG_CAP_BYTES)
        metrics["ladder.skipped." + tag] = 0 if runs else 1
        if need > RUNG_CAP_BYTES:
            continue
        if not runs:
            for kernel in KERNELS:
                metrics["ladder.%s_s.%s" % (kernel, tag)] = 0.0
            continue
        rng = np.random.default_rng([seed, n_sites, n_max])
        grid = make_grid(n_sites, 8.0)
        pot = gaussian_potential(grid, 0.5, 1.0)
        params = ScaleParams(1.0, 2.0, 0.5)
        k = random_ruelle_hierarchy(grid, n_max, rng, envelope=0.5)
        theta = GridField(grid, rng.uniform(-0.6, 0.6, size=n_sites))
        a = np.exp(-pot.values_by_displacement)
        a_field, b_field = GridField(grid, a), GridField(grid, a - 1.0)
        path = work_dir / ("ladder_%s.txt" % tag)
        calls = {
            "apply_generator": lambda: apply_generator(k, params, pot, GLAUBER),
            "substitute_affine": lambda: substitute_affine(k, a_field, b_field),
            "evaluate_gf": lambda: evaluate_gf(k, theta),
            "save_hierarchy": lambda: save_hierarchy(k, path),
        }
        for kernel in KERNELS:
            metrics["ladder.%s_s.%s" % (kernel, tag)] = _median_time(calls[kernel])
        path.unlink()
    return metrics
