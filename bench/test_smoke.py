"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that a seed reproduces identical generated configs, that every
generated config stays inside the activity envelope and the memory guard,
that tiny passes pass their correctness gates with byte-identical outputs
on rerun, that the tracer's exact counts agree with what the solver
reports, and that BENCHMARK.json names exactly the metrics run.py emits.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from glauberlab import solver  # noqa: E402
from glauberlab.config import build_grid, build_initial_density  # noqa: E402
from glauberlab.hierarchy import (  # noqa: E402
    MEMORY_GUARD_ENTRIES,
    exponential_hierarchy,
    ruelle_margin,
)
from glauberlab.solver import RUELLE_TOL  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

TINY = {
    "evolve": {"n_sites": 4, "n_max": 2},
    "bounds": {"n_sites": 4, "n_max": 2},
    "kinetic": {"n_sites": 16, "steps": 10},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reproduces_configs(name):
    make = WORKLOADS[name].make_configs
    first = [config_text(cfg) for cfg in make(7, **TINY[name])]
    again = [config_text(cfg) for cfg in make(7, **TINY[name])]
    other = [config_text(cfg) for cfg in make(8, **TINY[name])]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_inside_envelope_and_guard(name):
    for seed in range(25):
        for sizes in (TINY[name], {}):
            for cfg in WORKLOADS[name].make_configs(seed, **sizes):
                assert cfg.n_sites**cfg.n_max <= MEMORY_GUARD_ENTRIES
                rho0 = build_initial_density(cfg, build_grid(cfg))
                assert rho0.values.min() >= 0.0
                assert rho0.values.max() <= cfg.z * (1.0 + RUELLE_TOL)
                if WORKLOADS[name].builds_hierarchy:
                    u0 = exponential_hierarchy(rho0, cfg.n_max)
                    assert ruelle_margin(u0, cfg.z) <= 1.0 + RUELLE_TOL


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_passes_are_correct_and_deterministic(name, tmp_path):
    workload = WORKLOADS[name]
    configs = workload.make_configs(3, **TINY[name])
    digests = []
    for run_dir in ("a", "b"):
        run_digests = []
        for index, cfg in enumerate(configs):
            out = tmp_path / run_dir / str(index)
            out.mkdir(parents=True)
            result = workload.call(cfg, out)
            assert workload.check(cfg, result, out, np.random.default_rng([3, index, 7])) == []
            assert workload.work(cfg, result) > 0
            run_digests.append(run.digest_dir(out))
        digests.append(run_digests)
    assert digests[0] == digests[1]


def test_tracer_counts_match_the_solver(tmp_path):
    workload = WORKLOADS["evolve"]
    cfg = workload.make_configs(5, **TINY["evolve"])[0]
    original = solver.apply_generator
    tracer = spans.Tracer()
    mark = tracer.mark()
    report = tracer.call(workload.call, cfg, tmp_path)
    summary = tracer.summary(mark)
    assert solver.apply_generator is original
    assert summary["harness.cmd_calls"] == 1
    assert summary["solver.taylor_evolve_calls"] == len(report.steps)
    assert summary["generators.apply_generator_calls"] == sum(s.terms_used for s in report.steps)
    assert (
        summary["hierarchy.substitute_affine_calls"]
        == cfg.n_sites * summary["generators.apply_birth_calls"]
    )
    assert summary["hierarchy.snapshot_bytes"] == (tmp_path / "hierarchy_final.txt").stat().st_size
    for name in spans.SPAN_NAMES:
        assert 0.0 <= summary[name + "_self_s"] <= summary[name + "_s"] + 1e-9


def test_import_seconds_reads_nesting():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:        50 |        150 |   numpy",
            "import time:        10 |         10 |       numpy.linalg",
            "import time:        20 |         30 |     scipy",
            "import time:       300 |        300 |     scipy.linalg",
            "import time:         7 |        337 |   glauberlab.solver",
            "import time:         3 |        490 | glauberlab",
        ]
    )
    seconds = run.import_seconds(stderr)
    assert seconds["setup.import_numpy_s"] == pytest.approx(160e-6)
    assert seconds["setup.import_scipy_s"] == pytest.approx(330e-6)
    assert seconds["setup.import_glauberlab_self_s"] == pytest.approx(10e-6)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
