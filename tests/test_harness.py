import ast
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import glauberlab as gl
from glauberlab import generators, harness, hierarchy, vlasov
from glauberlab.cli import EXIT_CODES, main
from glauberlab.config import (
    ExperimentConfig,
    build_grid,
    build_initial_density,
    build_potential,
    build_scale_params,
    build_vlasov_config,
    parse_config,
)
from glauberlab.harness import (
    cmd_chaos_check,
    cmd_evolve,
    cmd_scaling_study,
    cmd_verify_bounds,
    cmd_vlasov,
    write_csv,
    write_trajectory_csv,
)

from helpers import child_env, write_csv_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def read(path):
    return Path(path).read_bytes()


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    write_csv([["a", "b", "c"], [1, 0.5, "x"], [2, 1e-5, True]], path)
    data = read(path)
    assert data == b"a,b,c\n1,0.5,x\n2,1e-05,true\n"


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_CSV_CELLS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(_CSV_CELLS, max_size=6), max_size=8))
def test_write_csv_matches_per_cell_fmt_oracle(tmp_path, rows):
    write_csv(rows, tmp_path / "fast.csv")
    write_csv_oracle(rows, tmp_path / "oracle.csv")
    assert read(tmp_path / "fast.csv") == read(tmp_path / "oracle.csv")


def per_row_table(trajectory):
    """The trajectory as write_csv's table: a header, then one row per sample and site."""
    rows = [["t", "site_index", "rho_value"]]
    for t, values in trajectory:
        rows += [[t, site, value] for site, value in enumerate(values.tolist())]
    return rows


def assert_trajectory_matches_oracle(tmp_path, trajectory):
    write_trajectory_csv(trajectory, tmp_path / "fast.csv")
    write_csv_oracle(per_row_table(trajectory), tmp_path / "oracle.csv")
    assert read(tmp_path / "fast.csv") == read(tmp_path / "oracle.csv")


_EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, sys.float_info.max]


def _integrated(n_sites, t_final, dt, sample_stride):
    grid = gl.make_grid(n_sites, float(n_sites))
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rho0 = gl.GridField(grid, 0.5 + 0.1 * np.cos(np.arange(n_sites)))
    cfg = vlasov.VlasovConfig(z=0.5, dt=dt, t_final=t_final, sample_stride=sample_stride)
    return vlasov.integrate(rho0, cfg, pot)[1]


_TRAJECTORIES = {
    # 0.3 does not divide 1.0: the last sample sits at t_final after a remainder step
    "n2-remainder-step": lambda: _integrated(2, 1.0, 0.3, 1),
    "n3-stride-beyond-steps": lambda: _integrated(3, 0.5, 0.1, 50),
    "n512-integrated": lambda: _integrated(512, 0.2, 0.01, 5),
    "n2-float64-t-edge-values": lambda: [
        (np.float64(0.1) * 3, np.array(_EDGE_VALUES[:2])),
        (np.float64(1e16), np.array(_EDGE_VALUES[3:])),
    ],
    "n3-edge-values": lambda: [
        (0.0, np.array(_EDGE_VALUES[:3])),
        (1e-05, np.array(_EDGE_VALUES[2:])),
    ],
    "n512-edge-values": lambda: [
        (t, np.resize(np.array(_EDGE_VALUES), 512) * sign)
        for t, sign in ((0.0, 1.0), (np.float64(2.5), -1.0), (sys.float_info.max, 1.0))
    ],
}


@pytest.mark.parametrize("case", sorted(_TRAJECTORIES))
def test_write_trajectory_csv_matches_per_row_oracle(tmp_path, case):
    trajectory = _TRAJECTORIES[case]()
    assert_trajectory_matches_oracle(tmp_path, trajectory)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_sites=st.integers(1, 12),
    samples=st.lists(st.tuples(_FINITE, st.lists(_FINITE, min_size=12, max_size=12)),
                     min_size=1, max_size=4),
)
def test_write_trajectory_csv_matches_per_row_oracle_property(tmp_path, n_sites, samples):
    trajectory = [(t, np.array(values[:n_sites])) for t, values in samples]
    assert_trajectory_matches_oracle(tmp_path, trajectory)


def test_cmd_evolve_equilibrium_rows_repeat(tmp_path):
    cfg = parse_config(CONFIG_DIR / "equilibrium.conf")
    cmd_evolve(cfg, tmp_path)
    lines = (tmp_path / "evolve_state.csv").read_text().strip().split("\n")
    header, rows = lines[0], [ln.split(",") for ln in lines[1:]]
    assert header == "t,n,max_abs,scale_norm,ruelle_margin"
    by_order = {}
    for row in rows:
        by_order.setdefault(int(row[1]), []).append(float(row[2]))
    for order, series in by_order.items():
        assert max(series) - min(series) <= 1e-9
    margins = [float(row[4]) for row in rows]
    assert all(abs(m - 1.0) <= 1e-9 for m in margins)


def test_cmd_evolve_zero_time_snapshot_equals_input(tmp_path):
    cfg = replace(ExperimentConfig(), t_final=0.0)
    cmd_evolve(cfg, tmp_path)
    grid = build_grid(cfg)
    u0 = gl.exponential_hierarchy(build_initial_density(cfg, grid), cfg.n_max)
    loaded = gl.load_hierarchy(tmp_path / "hierarchy_final.txt")
    assert gl.max_abs_difference(loaded, u0) == 0.0


def evolve_outputs(tmp_path, cfg, mode):
    out = tmp_path / mode
    out.mkdir(parents=True)
    cmd_evolve(cfg, out, mode=mode)
    return {name: read(out / name) for name in sorted(os.listdir(out))}


def test_cmd_evolve_auto_is_local_iff_t_final_fits_the_radius(tmp_path):
    cfg = ExperimentConfig()
    params = build_scale_params(cfg)
    pot = build_potential(cfg, build_grid(cfg))
    radius = gl.step_radius(gl.norm_bound_M(params, pot), params.alpha, params.alpha0)

    inside = replace(cfg, t_final=math.nextafter(radius, 0.0))
    local = evolve_outputs(tmp_path / "in", inside, "local")
    assert evolve_outputs(tmp_path / "in", inside, "auto") == local
    assert evolve_outputs(tmp_path / "in", inside, "global") != local

    outside = replace(cfg, t_final=math.nextafter(radius, math.inf))
    with pytest.raises(gl.RadiusExceededError):
        cmd_evolve(outside, tmp_path, mode="local")
    assert evolve_outputs(tmp_path / "out", outside, "auto") == (
        evolve_outputs(tmp_path / "out", outside, "global")
    )

    with pytest.raises(gl.InvalidArgumentError, match="mode must be auto, local or global"):
        cmd_evolve(cfg, tmp_path / "bogus", mode="bogus")
    assert not (tmp_path / "bogus").exists()


def test_cmd_vlasov_closed_form_and_contraction(tmp_path):
    cfg = parse_config(CONFIG_DIR / "vlasov_closed_form.conf")
    residual, bound_ok, closed_err = cmd_vlasov(cfg, tmp_path)
    assert bound_ok
    assert closed_err is not None and closed_err <= 1e-8
    summary = (tmp_path / "vlasov_summary.csv").read_text().strip().split("\n")
    assert summary[0] == "stationary_residual,linf_bound_ok,closed_form_max_error"
    cells = summary[1].split(",")
    assert cells[1] == "true"
    assert float(cells[2]) <= 1e-8

    long_cfg = replace(
        ExperimentConfig(), t_final=30.0, dt=1e-2, initial_level=0.25, sample_stride=100
    )
    residual, bound_ok, closed = cmd_vlasov(long_cfg, tmp_path)
    assert residual <= 1e-6
    assert bound_ok
    assert closed is None


def test_cmd_scaling_study_defaults(tmp_path):
    cfg = ExperimentConfig()
    result = cmd_scaling_study(cfg, tmp_path, [0.4, 0.2, 0.1, 0.05])
    assert result.epsilons == [0.4, 0.2, 0.1, 0.05]
    assert len(result.gaps) == len(result.epsilons)
    assert all(g >= 0 for g in result.gaps)
    assert all(g1 > g2 for g1, g2 in zip(result.gaps, result.gaps[1:]))
    assert 0.8 <= result.fitted_order <= 1.2
    rows = (tmp_path / "scaling_gaps.csv").read_text().strip().split("\n")
    assert rows[0] == "epsilon,gap"
    assert len(rows) == 5


def test_cmd_scaling_study_epsilon_one_equals_plain_gap(tmp_path):
    # rescaled(1) is the plain generator bit for bit, so the eps = 1 gap must
    # coincide with an independently computed plain-vs-limit gap.
    cfg = ExperimentConfig()
    result = cmd_scaling_study(cfg, tmp_path, [1.0, 0.5])
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    params = build_scale_params(cfg)
    u0 = gl.exponential_hierarchy(build_initial_density(cfg, grid), cfg.n_max)
    plain = gl.solve_local(params, pot, gl.GLAUBER, u0, cfg.t_final, cfg.m_max, cfg.tol).solution
    limit = gl.solve_local(params, pot, gl.VLASOV_LIMIT, u0, cfg.t_final, cfg.m_max, cfg.tol).solution
    rng = np.random.default_rng(cfg.seed)
    thetas = [gl.GridField(grid, rng.uniform(-0.5, 0.5, 8)) for _ in range(20)]
    gap = max(
        abs(gl.evaluate_gf(plain, th) - gl.evaluate_gf(limit, th))
        * math.exp(-gl.field_l1_norm(th) / cfg.alpha)
        for th in thetas
    )
    assert result.gaps[0] == gap


def test_cmd_chaos_check_control_and_zero_time(tmp_path):
    control = replace(
        ExperimentConfig(), potential_kind="zero", n_max=4, t_final=0.3
    )
    dev1, dev2, passed = cmd_chaos_check(control, tmp_path)
    assert passed and dev1 <= 1e-9 and dev2 <= 1e-9

    frozen = replace(ExperimentConfig(), n_max=4, initial_level=0.2, t_final=0.0)
    dev1, dev2, passed = cmd_chaos_check(frozen, tmp_path)
    assert dev1 == 0.0 and dev2 == 0.0 and passed


@pytest.mark.parametrize(
    "dt,error,message",
    [(3.0, gl.InvalidArgumentError, "dt must not exceed t_final"),
     (1e-7, gl.MemoryGuardError, "2e\\+07 steps on 16 sites exceed the guard")],
)
def test_cmd_chaos_check_refuses_kinetic_settings_before_evolving(
    tmp_path, monkeypatch, dt, error, message
):
    # the hierarchy evolution ran first and took about 6 s before these refusals
    cfg = replace(parse_config(CONFIG_DIR / "chaos.conf"), n_sites=16, n_max=5, t_final=2.0, dt=dt)

    def evolve_global(*args, **kwargs):
        raise AssertionError("evolve_global ran before the kinetic refusal")

    monkeypatch.setattr(harness, "evolve_global", evolve_global)
    with pytest.raises(error, match=message):
        cmd_chaos_check(cfg, tmp_path)


@pytest.mark.parametrize(
    "command", [["evolve"], ["scaling-study"], ["chaos-check"], ["verify-bounds", "--cases", "2"]]
)
def test_cli_over_guard_hierarchy_refuses_before_integrating(
    tmp_path, capsys, monkeypatch, command
):
    # the guard comes before chaos-check's kinetic integrate, which takes seconds on large grids
    conf = tmp_path / "big.conf"
    conf.write_text("grid.n_sites = 100\ntruncation.n_max = 4\n")

    def integrate(*args, **kwargs):
        raise AssertionError("integrate ran before the memory guard")

    monkeypatch.setattr(harness, "integrate", integrate)
    status = main(["--config", str(conf), "--out", str(tmp_path / "o")] + command)
    assert status == 1
    assert capsys.readouterr() == (
        "", "error: memory-guard: top tensor would hold 100000000 entries (guard 10000000)\n"
    )
    assert not list((tmp_path / "o").iterdir())


def test_cmd_chaos_check_rejects_strong_coupling(tmp_path):
    strong = replace(ExperimentConfig(), n_max=4, initial_level=0.45, t_final=0.1)
    with pytest.raises(gl.InvalidArgumentError):
        cmd_chaos_check(strong, tmp_path)


def test_cmd_verify_bounds_zero_violations(tmp_path):
    cfg = ExperimentConfig()
    violations = cmd_verify_bounds(cfg, tmp_path, n_cases=25)
    assert set(violations.values()) == {0}
    rows = (tmp_path / "verify_bounds.csv").read_text().strip().split("\n")
    assert rows[0] == "suite,checks,violations"
    assert all(row.rsplit(",", 1)[1] == "0" for row in rows[1:])


def test_cmd_verify_bounds_degenerate_potential_and_other_seed(tmp_path):
    # With phi = 0 the birth estimate degenerates to c0 = 1, c1 = 0 and must
    # still hold; the suites are theorems, so any seed reports zero.
    free = replace(ExperimentConfig(), potential_kind="zero")
    assert set(cmd_verify_bounds(free, tmp_path, n_cases=25).values()) == {0}
    reseeded = replace(ExperimentConfig(), seed=987654321)
    assert set(cmd_verify_bounds(reseeded, tmp_path, n_cases=25).values()) == {0}


def _count_calls(monkeypatch, name, module=generators):
    """Count calls of module.<name> made through either module attribute.

    The harness looks the name up in its own namespace, the defining module's
    own functions (evaluate_generator_gf, the hierarchy norms) in that
    module's, so both are wrapped with one counter.
    """
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(harness, name, counted)
    return calls


@pytest.mark.parametrize("epsilon,births_per_case", [(1.0, 2), (0.25, 3), (0.0, 3)])
def test_cmd_verify_bounds_evaluates_each_term_once(
    tmp_path, monkeypatch, epsilon, births_per_case
):
    # per case: one death term and one batched birth call, which carries one
    # block of shift rows per distinct epsilon of [1, eps_gap, 0]; each block
    # gives one birth check and one generator check
    births = _count_calls(monkeypatch, "birth_gf_terms")
    deaths = _count_calls(monkeypatch, "death_gf_term")
    cases = 3
    cfg = replace(ExperimentConfig(), epsilon=epsilon)
    assert set(cmd_verify_bounds(cfg, tmp_path, n_cases=cases).values()) == {0}
    assert len(births) == cases
    for _, _, a_rows, b_rows in births:
        assert a_rows.shape == b_rows.shape == (births_per_case * cfg.n_sites, cfg.n_sites)
    assert len(deaths) == cases
    rows = (tmp_path / "verify_bounds.csv").read_text().split("\n")
    checks = births_per_case * cases
    assert rows[2:4] == ["birth-estimate,%d,0" % checks, "generator-estimate,%d,0" % checks]


def test_cmd_verify_bounds_builds_each_orbit_index_once(tmp_path):
    # every case samples the same shape, so the run builds its orbit index once
    hierarchy._orbit_index.cache_clear()
    cfg = replace(ExperimentConfig(), n_sites=2, n_max=12)
    assert set(cmd_verify_bounds(cfg, tmp_path, n_cases=20).values()) == {0}
    info = hierarchy._orbit_index.cache_info()
    assert (info.misses, info.hits) == (1, 20 * (12 - 2) - 1)


def test_cmd_verify_bounds_scans_each_hierarchy_once(tmp_path, monkeypatch):
    # the scale norm reads one profile per sampled hierarchy
    scans = _count_calls(monkeypatch, "max_abs_by_order", module=hierarchy)
    cases = 3
    assert set(cmd_verify_bounds(ExperimentConfig(), tmp_path, n_cases=cases).values()) == {0}
    assert len(scans) == cases


# --epsilons refused by value before any run -> the list the message names
REFUSED_EPSILONS = {
    "0.2,nan": "[0.2, nan]",
    "0.2,inf": "[0.2, inf]",
    "nan,nan": "[nan, nan]",
    "0.2,-0.1": "[0.2, -0.1]",
}


@pytest.mark.parametrize(
    "line,epsilons",
    [
        ("", "0.1"),  # ZeroDivisionError in the slope fit
        ("", "0.1,0.1"),  # one distinct epsilon, same fault
        ("potential.kind = zero", "0.4,0.2"),  # zero gaps: math domain error
        ("", "abc"),  # raw ValueError from float()
        # nan and inf evolved the limit run, then failed in the shift tables;
        # nan,nan passed the distinct check, as nan != nan
        ("", "0.2,nan"),
        ("", "0.2,inf"),
        ("", "nan,nan"),
        ("", "0.2,-0.1"),
    ],
)
def test_cli_scaling_study_rejects_unfittable_sweeps(tmp_path, capsys, line, epsilons):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    out = tmp_path / "o"
    status = main(["--config", str(conf), "--out", str(out), "scaling-study",
                   "--epsilons", epsilons])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-argument:")
    assert err.count("\n") == 1
    assert os.listdir(out) == []
    if epsilons in REFUSED_EPSILONS:
        assert err == (
            "error: invalid-argument: epsilons must be finite and positive, got %s\n"
            % REFUSED_EPSILONS[epsilons]
        )


# (config, subcommand) -> error code of every shipped-config run that fails
SHIPPED_FAILURES = {
    ("chaos", "scaling-study"): "radius-exceeded",
    ("equilibrium", "scaling-study"): "radius-exceeded",
    ("vlasov_closed_form", "scaling-study"): "radius-exceeded",
    ("default", "chaos-check"): "invalid-argument",
    ("equilibrium", "chaos-check"): "invalid-argument",
    ("vlasov_closed_form", "chaos-check"): "invalid-argument",
}


def test_every_subcommand_on_every_shipped_config(tmp_path, capsys):
    # each run ends in success or in its documented status with exactly one
    # `error: <code>:` line, never in an uncaught exception
    configs = sorted(CONFIG_DIR.glob("*.conf"))
    assert [c.stem for c in configs] == [
        "chaos", "default", "equilibrium", "vlasov_closed_form"
    ]
    commands = [["evolve"], ["vlasov"], ["scaling-study"], ["chaos-check"],
                ["verify-bounds", "--cases", "5"]]
    for conf in configs:
        for command in commands:
            out = tmp_path / (conf.stem + "_" + command[0])
            status = main(["--config", str(conf), "--out", str(out)] + command)
            captured = capsys.readouterr()
            code = SHIPPED_FAILURES.get((conf.stem, command[0]))
            if code is None:
                assert (status, captured.err) == (0, ""), (conf.stem, command)
                assert captured.out.startswith(command[0] + ":")
            else:
                assert status == EXIT_CODES.get(code, 1), (conf.stem, command)
                assert captured.err.startswith("error: %s:" % code)
                assert captured.err.count("\n") == 1


def outputs_under_thread_counts(tmp_path, config, command):
    """Run the CLI in subprocesses pinned to 1 and 4 BLAS/OMP threads.

    Returns one {file name: bytes} dict of the --out directory per run.
    """
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / ("threads_" + threads)
        env = child_env(
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "glauberlab",
             "--config", config, "--out", str(out), command],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({name: read(out / name) for name in sorted(os.listdir(out))})
    return outputs


def test_cli_thread_count_independence(tmp_path):
    # No CSV-producing path goes through threaded BLAS; pin different thread
    # counts in subprocesses and demand byte-identical output anyway.
    default = str(CONFIG_DIR / "default.conf")
    outputs = outputs_under_thread_counts(tmp_path, default, "evolve")
    assert outputs[0] == outputs[1]


def test_cli_kinetic_thread_count_independence(tmp_path):
    # At N = 512 a BLAS matrix-vector product would engage its threads;
    # the kinetic right-hand side must not go through one.
    conf = tmp_path / "kinetic.conf"
    conf.write_text(
        "grid.n_sites = 512\ngrid.length = 64.0\n"
        "time.t_final = 0.05\nvlasov.dt = 0.01\nvlasov.sample_stride = 1\n"
    )
    outputs = outputs_under_thread_counts(tmp_path, str(conf), "vlasov")
    assert outputs[0]["vlasov_trajectory.csv"].count(b"\n") == 6 * 512 + 1
    assert outputs[0] == outputs[1]


BLAS_NAMES = {"dot", "matmul", "vecdot", "tensordot", "inner", "vdot"}


def blas_calls(source):
    """Lines of source that may reach BLAS: @, a BLAS-backed product, or an
    einsum whose optimize is not the literal False."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in BLAS_NAMES:
            found.append((node.lineno, name))
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            optimize = [kw.value for kw in node.keywords if kw.arg == "optimize"]
            if callee == "einsum" and not (
                optimize and isinstance(optimize[0], ast.Constant) and optimize[0].value is False
            ):
                found.append((node.lineno, "einsum"))
    return found


def test_blas_scan_flags_each_form():
    for line in ("y = k @ v", "y @= k", "y = np.dot(k, v)", "y = k.dot(v)",
                 "y = np.matmul(k, v)", "y = np.vecdot(k, v)", "y = np.tensordot(k, v, 1)",
                 "y = np.einsum('ij,j->i', k, v)", "y = np.einsum('ij,j->i', k, v, optimize=True)",
                 "y = np.einsum('ij,j->i', k, v, optimize='greedy')"):
        assert blas_calls(line), line
    assert not blas_calls("y = np.einsum('ij,j->i', k, v, optimize=False) * dx")


def test_contraction_and_kinetic_paths_call_no_blas():
    # The thread-count tests do not catch a single-threaded BLAS gemv, so every
    # module of the package, the hierarchy contraction and the kinetic path
    # among them, is held to direct sums by its source.
    sources = sorted(Path(gl.__file__).parent.glob("*.py"))
    names = {path.stem for path in sources}
    assert names >= set("cli config errors generators harness hierarchy lattice solver vlasov".split())
    for path in sources:
        assert blas_calls(path.read_text()) == [], path.name


POLICY_NAMES = {"solve_local", "evolve_global", "step_radius"}


def policy_namers(source, names=POLICY_NAMES):
    """Top-level functions of source (or "<module>") that name one of `names`
    outside an import; by default a solver entry point or the step radius."""
    namers = set()
    for top in ast.parse(source).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in names:
                namers.add(owner)
    return namers


def test_policy_scan_flags_each_form():
    assert policy_namers("def cmd_a(p):\n    return solve_local(p)") == {"cmd_a"}
    assert policy_namers("def cmd_b(p):\n    return solver.evolve_global(p)") == {"cmd_b"}
    assert policy_namers("radius = step_radius(1.0, 0.5, 1.0)") == {"<module>"}
    assert policy_namers("from .solver import solve_local, step_radius") == set()
    settings = {"VlasovConfig"}
    assert policy_namers("def build(c) -> VlasovConfig:\n    pass", settings) == {"build"}
    assert policy_namers("def cmd_c(c):\n    return VlasovConfig(c.z, c.dt)", settings) == {"cmd_c"}
    assert policy_namers("from .vlasov import VlasovConfig", settings) == set()


def test_one_function_chooses_the_evolution():
    # a second caller would be a second auto / local / global policy
    assert policy_namers(Path(harness.__file__).read_text()) == {"_evolve"}


def test_one_function_builds_the_kinetic_settings():
    # a second builder would be a second config -> kinetic settings translation
    namers = {
        path.name: policy_namers(path.read_text(), {"VlasovConfig"})
        for path in Path(harness.__file__).parent.glob("*.py")
        if path.name not in ("vlasov.py", "__init__.py")
    }
    assert {name: found for name, found in namers.items() if found} == {
        "config.py": {"build_vlasov_config"}
    }


def test_kinetic_commands_integrate_with_the_configured_settings(tmp_path, monkeypatch):
    # chaos-check used to drop vlasov.sample_stride and keep every step's sample
    cfg = parse_config(CONFIG_DIR / "chaos.conf")
    seen = []

    def capture(rho0, vcfg, pot):
        seen.append(vcfg)
        return vlasov.integrate(rho0, vcfg, pot)

    monkeypatch.setattr(harness, "integrate", capture)
    cmd_vlasov(cfg, tmp_path)
    cmd_chaos_check(cfg, tmp_path)
    assert seen == [build_vlasov_config(cfg)] * 2


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("model.zz = 1\n")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o1"), "evolve"]) == 5
    assert capsys.readouterr().err.startswith("error: parse-error:")

    too_far = tmp_path / "too_far.conf"
    too_far.write_text("time.t_final = 0.2\n")
    assert (
        main(["--config", str(too_far), "--out", str(tmp_path / "o2"),
              "evolve", "--mode", "local"])
        == 2
    )
    assert capsys.readouterr().err.startswith("error: radius-exceeded:")

    samples = tmp_path / "phi.txt"
    samples.write_text("0.5\nabc\n")
    from_file = tmp_path / "from_file.conf"
    from_file.write_text("potential.kind = file\npotential.path = %s\n" % samples)
    assert main(["--config", str(from_file), "--out", str(tmp_path / "o5"), "evolve"]) == 5
    assert capsys.readouterr().err == (
        "error: parse-error: potential file %s holds non-numeric lines\n" % samples
    )
    for text in ("nan\n" + "0\n" * 7, "0\n" * 7 + "inf\n", "-inf\n" + "0\n" * 7):
        samples.write_text(text)  # float() accepts each line; the sample check refuses it
        assert main(["--config", str(from_file), "--out", str(tmp_path / "o5"), "evolve"]) == 5
        assert capsys.readouterr().err == (
            "error: parse-error: potential file %s holds non-finite samples\n" % samples
        )

    envelope = tmp_path / "envelope.conf"
    envelope.write_text("initial.level = 1.0\n")  # margin 2^n vs z = 0.5
    assert (
        main(["--config", str(envelope), "--out", str(tmp_path / "o3"),
              "evolve", "--mode", "global"])
        == 3
    )

    blowup = tmp_path / "blowup.conf"
    blowup.write_text(
        "potential.kind = zero\nmodel.z = 1e308\ninitial.level = 0.0\n"
        "time.t_final = 2.0\nvlasov.dt = 1.0\n"
    )
    assert main(["--config", str(blowup), "--out", str(tmp_path / "o4"), "vlasov"]) == 4


@pytest.mark.parametrize(
    "argv,message",
    [
        (["evolve", "--mode", "bogus"],
         "argument --mode: invalid choice: 'bogus' (choose from 'auto', 'local', 'global')"),
        (["verify-bounds", "--cases", "x"], "argument --cases: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_cli_usage_errors_are_invalid_argument(tmp_path, capsys, argv, message):
    # argparse printed its usage text and exited 2, the status of radius-exceeded
    assert main(["--out", str(tmp_path / "o")] + argv) == 1
    assert capsys.readouterr() == ("", "error: invalid-argument: %s\n" % message)
    assert not (tmp_path / "o").exists()


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["evolve", "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: glauberlab evolve")


@pytest.mark.parametrize(
    "lines,command",
    [
        # one step passes integrate's steps x sites check; the kernel does not
        (["time.t_final = 0.001", "vlasov.dt = 0.001"], "vlasov"),
        # the coupling check convolves before any hierarchy is built
        (["truncation.n_max = 4"], "chaos-check"),
        # at order 1 the hierarchy guard would let 3163 sites through, and the
        # birth operator's displacement matrix and shift rows would take 240 MB
        (["truncation.n_max = 1"], "evolve"),
    ],
)
def test_cli_3163_sites_hit_memory_guard_before_any_matrix(tmp_path, capsys, lines, command):
    # 3163^2 entries is just over the 1e7 guard; each command used to build
    # N x N matrices of 80 MB or more here.  make_grid refuses the grid now,
    # before any potential, kernel or shift row is built.
    conf = tmp_path / "big.conf"
    conf.write_text("\n".join(["grid.n_sites = 3163", "grid.length = 3163.0"] + lines) + "\n")
    tracemalloc.start()
    try:
        status = main(["--config", str(conf), "--out", str(tmp_path / "o"), command])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 1
    assert capsys.readouterr().err == (
        "error: memory-guard: top tensor would hold 10004569 entries (guard 10000000)\n"
    )
    assert peak < 1_000_000
    assert not list((tmp_path / "o").glob("*.csv"))


@pytest.mark.parametrize(
    "n_sites,n_max,command",
    [(10**18, 4, command) for command in (["evolve"], ["vlasov"], ["scaling-study"],
                                           ["chaos-check"], ["verify-bounds", "--cases", "2"])]
    # order 0 builds no N x N array, so 3163 sites once ran to exit 0
    + [(3163, 0, ["evolve"])],
)
def test_cli_grid_over_the_site_limit_hits_memory_guard(tmp_path, capsys, n_sites, n_max, command):
    # every command built its potential before any N^2 check ran, so 10^18
    # sites ended in numpy's raw _ArrayMemoryError (raised before allocating)
    conf = tmp_path / "big.conf"
    conf.write_text("grid.n_sites = %d\ntruncation.n_max = %d\n" % (n_sites, n_max))
    status = main(["--config", str(conf), "--out", str(tmp_path / "o")] + command)
    assert status == 1
    assert capsys.readouterr() == (
        "", "error: memory-guard: top tensor would hold %d entries (guard 10000000)\n" % n_sites**2
    )
    assert not list((tmp_path / "o").iterdir())


NONFINITE_VALUE = "error: nonfinite-state: a death, birth or generator value is not finite\n"


def run_default_with(tmp_path, line, command):
    """main() on default.conf plus one line, with warnings as errors."""
    conf = tmp_path / "run.conf"
    conf.write_text((CONFIG_DIR / "default.conf").read_text() + line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["--config", str(conf), "--out", str(tmp_path / "o")] + command)


@pytest.mark.parametrize(
    "line,command,status,out,err",
    [
        # math.exp in norm_bound_M raised a raw OverflowError; M = inf, radius 0
        ("potential.amplitude = 800", ["evolve"], 2, "",
         "error: radius-exceeded: t=0.05 outside the guaranteed interval [0, 0)\n"),
        ("potential.amplitude = 800", ["scaling-study"], 2, "",
         "error: radius-exceeded: t=0.05 outside the guaranteed interval [0, 0)\n"),
        ("potential.amplitude = 800", ["verify-bounds", "--cases", "20"], 0,
         "verify-bounds: violations=0\n", ""),
        # vlasov_gap_bound printed a numpy overflow RuntimeWarning
        ("model.epsilon = 1e308", ["verify-bounds", "--cases", "20"], 0,
         "verify-bounds: violations=0\n", ""),
        # the subnormal shift table made all 20 gap checks fail
        ("model.epsilon = 5e-324", ["verify-bounds", "--cases", "20"], 0,
         "verify-bounds: violations=0\n", ""),
        # raw OverflowErrors from Python float powers: envelope**order,
        # scale_norm's alpha**n at 1/z, vlasov_gap_bound's alpha0**3
        ("model.z = 1e300", ["verify-bounds", "--cases", "20"], 4, "",
         "error: nonfinite-state: activity envelope 1e+300 overflows at order 3\n"),
        ("model.z = 1e-300", ["evolve"], 0,
         "evolve: t_final=0.05 restarts=0 tail=0\n", ""),
        ("solver.alpha0 = 1e308", ["verify-bounds", "--cases", "20"], 0,
         "verify-bounds: violations=0\n", ""),
        # a pair with a' == a'' once divided by zero before the pair was checked
        ("solver.alpha = 1.0\nsolver.alpha0 = 1.0000000000000002",
         ["verify-bounds", "--cases", "20"], 1, "",
         "error: invalid-argument: need alpha <= alpha' < alpha'' <= alpha0,"
         " got 1.0 < 1.0 in [1.0, 1.0000000000000002]\n"),
        # a negative seed ended in numpy's raw ValueError from default_rng
        ("rng.seed = -5", ["scaling-study"], 5, "",
         "error: parse-error: rng.seed must be non-negative\n"),
        ("", ["--seed", "-1", "verify-bounds", "--cases", "2"], 1, "",
         "error: invalid-argument: --seed must be non-negative, got -1\n"),
        ("initial.level = -1", ["evolve"], 5, "",
         "error: parse-error: initial.level must be non-negative\n"),
        ("", ["verify-bounds", "--cases", "0"], 1, "",
         "error: invalid-argument: n_cases must be an integer >= 1\n"),
        ("", ["verify-bounds", "--cases", "-3"], 1, "",
         "error: invalid-argument: n_cases must be an integer >= 1\n"),
        # a substep of one whole radius ended in radius-exceeded on its first solve
        ("time.substep_fraction = 1.0\ntime.t_final = 1.0", ["evolve", "--mode", "global"], 5,
         "", "error: parse-error: time.substep_fraction must lie in (0, 1)\n"),
        # math.exp of ||theta||_1 / a' raised a raw OverflowError
        ("grid.length = 1e300", ["verify-bounds", "--cases", "20"], 4, "",
         "error: nonfinite-state: test-function weight exp(||theta||_1 / a')"
         " = exp(5.88e+299) overflows\n"),
        # numpy overflow RuntimeWarnings: the potential's L1 norm, and 2 pi x
        # in the initial density's cosine
        ("potential.amplitude = 1.7976931348623157e308\npotential.width = 7",
         ["scaling-study"], 2, "",
         "error: radius-exceeded: t=0.05 outside the guaranteed interval [0, 0)\n"),
        ("grid.length = 1.7976931348623157e308\nmodel.z = 1e300", ["evolve"], 4, "",
         "error: nonfinite-state: product state of order 3 has non-finite entries\n"),
        # a huge a' kept the weight finite; the death term overflowed with a
        # RuntimeWarning and died on inf - inf in fsum.  The birth term's top
        # weight dx**n_max raised a raw OverflowError; it reads inf now
        ("grid.length = 1e300\nsolver.alpha0 = 1e308", ["verify-bounds", "--cases", "20"], 4, "",
         NONFINITE_VALUE),
        # found by test_cli_fuzz.py: the level plus the wobble overflowed with a
        # numpy RuntimeWarning before the field check
        ("initial.level = 1.7976931348623157e308\ninitial.cosine_amplitude = 1e300", ["evolve"],
         1, "", "error: invalid-argument: field values must be finite\n"),
        # phi * rho_0 overflowed with a RuntimeWarning before the coupling cap
        ("truncation.n_max = 4\ngrid.length = 1e300\ninitial.level = 1e300", ["chaos-check"],
         1, "", "error: invalid-argument: ||phi * rho_0||_inf = inf exceeds the 0.2 cap"
         " the check assumes\n"),
        # a spacing of 0 ran every command on a grid whose integrals all vanish
        ("grid.length = 5e-324", ["evolve"], 1, "",
         "error: invalid-argument: spacing 5e-324 / 8 underflows to 0\n"),
        # functional values past the largest double: inf - inf raised a raw
        # ValueError in math.fsum, then the nan values passed every check
        ("model.z = 1.7976931348623157e308\ntruncation.n_max = 1\ninitial.level = 0.0",
         ["verify-bounds", "--cases", "20"], 4, "", NONFINITE_VALUE),
        # gap**2 underflowed to a raw ZeroDivisionError in vlasov_gap_bound, and
        # the birth bound's a'' a' to a false violation
        ("grid.length = 1e-310\nsolver.alpha = 5e-324\nsolver.alpha0 = 1e-310",
         ["verify-bounds", "--cases", "20"], 0, "verify-bounds: violations=0\n", ""),
        # expm1(-e phi) / e rounded twice at a tiny normal epsilon, so b_x missed
        # -phi by an ulp and the gap checks failed on that roundoff
        ("grid.n_sites = 21\ntruncation.n_max = 2\nmodel.epsilon = 8.864906767456875e-192",
         ["verify-bounds", "--cases", "20"], 0, "verify-bounds: violations=0\n", ""),
        ("grid.n_sites = 21\ntruncation.n_max = 2\nmodel.epsilon = 1e-150",
         ["verify-bounds", "--cases", "20"], 0, "verify-bounds: violations=0\n", ""),
        ("grid.n_sites = 21\ntruncation.n_max = 2\nmodel.epsilon = 1e-300",
         ["verify-bounds", "--cases", "20"], 0, "verify-bounds: violations=0\n", ""),
        # death and birth values of nan or inf passed every check.  This row once
        # printed an overflow RuntimeWarning in c1 / a'' of the birth bound on
        # numpy scalars
        ("potential.amplitude = 1e308", ["verify-bounds", "--cases", "20"], 4, "",
         NONFINITE_VALUE),
    ],
)
def test_cli_extreme_model_values_end_cleanly(tmp_path, capsys, line, command, status, out, err):
    assert run_default_with(tmp_path, line, command) == status
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "line,command,out,status,err",
    [
        # each printed a numpy overflow RuntimeWarning in gaussian_potential's square
        ("potential.width = 1e-300", ["verify-bounds", "--cases", "20"],
         "verify-bounds: violations=0\n", 0, ""),
        ("grid.length = 1e300", ["vlasov"], "vlasov: residual=0.475615 bound=pass\n", 0, ""),
        # overflow in the potential's L1 norm, then in the shift constant ||b||_1;
        # the death and birth values are not finite, which once passed every check
        ("potential.amplitude = 1.7976931348623157e308\npotential.width = 7",
         ["verify-bounds", "--cases", "20"], "", 4, NONFINITE_VALUE),
        # overflow in 2 pi x of the initial cosine, then in phi * rho of the residual
        ("grid.length = 1.7976931348623157e308\nmodel.z = 1e300", ["vlasov"],
         "vlasov: residual=9.51229e+299 bound=pass\n", 0, ""),
    ],
)
def test_cli_extreme_potentials_warn_nothing(tmp_path, line, command, out, status, err):
    conf = tmp_path / "run.conf"
    conf.write_text((CONFIG_DIR / "default.conf").read_text() + line + "\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "glauberlab",
         "--config", str(conf), "--out", str(tmp_path / "o")] + command,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)


def test_cli_evolve_huge_horizon_hits_memory_guard_at_once(tmp_path, capsys):
    # 1e300 / 0.079 substeps used to run (and keep a record each) forever
    start = time.perf_counter()
    status = run_default_with(tmp_path, "time.t_final = 1e300", ["evolve"])
    assert time.perf_counter() - start < 5.0
    assert status == 1
    assert capsys.readouterr().err == (
        "error: memory-guard: 1.14e+301 substeps of 4 state rows exceed the guard"
        " of 10000000 entries\n"
    )
    assert not list((tmp_path / "o").iterdir())


def test_cli_product_state_overflow_exits_nonfinite(tmp_path, capsys):
    huge = tmp_path / "huge.conf"
    huge.write_text("truncation.n_max = 4\ninitial.level = 1e100\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["--config", str(huge), "--out", str(tmp_path / "o"),
                       "evolve", "--mode", "local"])
    assert status == 4
    assert capsys.readouterr().err.startswith("error: nonfinite-state:")


def test_cli_seed_override_changes_sampled_outputs(tmp_path):
    default = str(CONFIG_DIR / "default.conf")
    out_a, out_b = str(tmp_path / "sa"), str(tmp_path / "sb")
    assert main(["--config", default, "--out", out_a, "--seed", "1",
                 "scaling-study", "--epsilons", "0.4,0.2"]) == 0
    assert main(["--config", default, "--out", out_b, "--seed", "2",
                 "scaling-study", "--epsilons", "0.4,0.2"]) == 0
    assert read(Path(out_a) / "scaling_gaps.csv") != read(Path(out_b) / "scaling_gaps.csv")


def test_cli_out_that_cannot_be_a_directory_ends_cleanly(tmp_path, capsys):
    # os.makedirs used to raise a raw FileExistsError or NotADirectoryError
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    for out, reason in ((blocker, "File exists"), (blocker / "sub", "Not a directory")):
        assert main(["--out", str(out), "vlasov"]) == 1
        assert capsys.readouterr().err == (
            "error: invalid-argument: cannot create output directory %s: %s\n" % (out, reason)
        )
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize(
    "conf,command,first_file",
    [
        ("default.conf", ["evolve"], "evolve_state.csv"),
        ("default.conf", ["vlasov"], "vlasov_trajectory.csv"),
        ("default.conf", ["scaling-study", "--epsilons", "0.4,0.2"], "scaling_gaps.csv"),
        ("chaos.conf", ["chaos-check"], "chaos_profile.csv"),
        ("default.conf", ["verify-bounds", "--cases", "2"], "verify_bounds.csv"),
    ],
)
def test_cli_output_file_that_cannot_be_written_ends_cleanly(
    tmp_path, capsys, conf, command, first_file
):
    # a directory in the way of an output file used to raise a raw IsADirectoryError
    (tmp_path / first_file).mkdir()
    assert main(["--config", str(CONFIG_DIR / conf), "--out", str(tmp_path)] + command) == 1
    assert capsys.readouterr() == (
        "", "error: invalid-argument: cannot write %s: Is a directory\n" % (tmp_path / first_file)
    )


STRONG_COUPLING = (
    "grid.n_sites = 6\ngrid.length = 6.0\npotential.kind = gaussian\n"
    "potential.amplitude = 4.0\npotential.width = 1.0\nmodel.z = 0.5\n"
    "model.epsilon = 0.0\ntime.t_final = %r\ntruncation.n_max = %d\n"
)


@pytest.mark.parametrize(
    "n_max,t_final,margin,at",
    [
        pytest.param(3, 6.0, "1.00203588", "0.000374160877", id="3-1.00203588"),
        pytest.param(5, 6.0, "1.00404986", "0.000374160877", id="5-1.00404986"),
        # one substep, the last: its margin went unchecked and the run exited 0
        pytest.param(3, 0.0003, "1.00163449", "0.0003", id="3-1.00163449-last-substep"),
    ],
)
def test_strong_coupling_limit_overshoots_the_activity_envelope(
    tmp_path, capsys, n_max, t_final, margin, at
):
    # z ||phi||_1 = 3.5: closing orders above n_max by zero lets the truncated
    # limit hierarchy leave |k_n| <= z^n in its first substep, although the
    # untruncated limit keeps rho_t <= z.  Pinned so no change can hide it.
    conf = tmp_path / "strong.conf"
    conf.write_text(STRONG_COUPLING % (t_final, n_max))
    out = tmp_path / "o"
    status = main(["--config", str(conf), "--out", str(out), "evolve", "--mode", "global"])
    assert status == EXIT_CODES["ruelle-violated"] == 3
    assert capsys.readouterr() == (
        "",
        "error: ruelle-violated: activity-envelope margin %s exceeded tolerance"
        " at t=%s\n" % (margin, at),
    )
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "line,command",
    [
        ("time.t_final = inf", "evolve"),  # exited 0 after doing no work
        ("time.t_final = inf", "vlasov"),  # died with a raw OverflowError
        ("model.z = inf", "evolve"),  # failed late as invalid-argument
        ("grid.length = inf", "evolve"),  # printed a numpy RuntimeWarning
        ("solver.tol = inf", "evolve"),  # accepted a 1-term series
    ],
)
def test_cli_non_finite_config_value_is_parse_error(tmp_path, capsys, line, command):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["--config", str(conf), "--out", str(tmp_path / "o"), command])
    assert status == 5
    err = capsys.readouterr().err
    assert err.startswith("error: parse-error: line 1:")
    assert err.count("\n") == 1
    assert not (tmp_path / "o" / "evolve_state.csv").exists()
