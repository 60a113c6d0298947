"""Acceptance criteria, one test per criterion.

Each test prints `[criterion NN] <name>: PASS/FAIL`; run with
`pytest tests/test_acceptance.py -v -s` to see the lines stream.
All tolerances are pinned here, nothing is deferred to calibration.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import glauberlab as gl
from glauberlab.cli import main
from glauberlab.config import (
    ExperimentConfig,
    build_grid,
    build_initial_density,
    build_potential,
    parse_config,
)
from glauberlab.errors import RadiusExceededError
from glauberlab.generators import apply_generator, norm_bound_M
from glauberlab.harness import cmd_chaos_check, cmd_scaling_study, cmd_verify_bounds
from glauberlab.solver import step_radius
from glauberlab.vlasov import VlasovConfig, integrate, linf_bound_check

from helpers import (
    assemble_matrix,
    flatten,
    loglog_slope,
    matrix_exp_oracle,
    plain_glauber_generator_oracle,
    rel_err,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class criterion:
    def __init__(self, number, name):
        self.label = "[criterion %02d] %s" % (number, name)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print("%s: %s" % (self.label, "PASS" if exc_type is None else "FAIL"))
        return False


def test_criterion_01_duality_identity():
    with criterion(1, "duality identity at 1e-9"):
        start = time.monotonic()
        grid = gl.make_grid(8, 8.0)
        pot = gl.gaussian_potential(grid, 0.5, 1.0)
        params = gl.ScaleParams(0.5, 1.0, 0.5)
        rng = np.random.default_rng(101)
        for _ in range(20):
            k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
            theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, 8))
            lhs = gl.evaluate_gf(apply_generator(k, params, pot, gl.GLAUBER), theta)
            rhs = gl.evaluate_generator_gf(k, theta, params, pot, gl.GLAUBER)
            assert rel_err(lhs, rhs) <= 1e-9
        assert time.monotonic() - start < 10.0


def test_criterion_02_epsilon_one_coincidence():
    with criterion(2, "epsilon = 1 coincides with the plain generator"):
        grid = gl.make_grid(8, 8.0)
        pot = gl.gaussian_potential(grid, 0.5, 1.0)
        params = gl.ScaleParams(0.5, 1.0, 0.5)
        rng = np.random.default_rng(102)
        for _ in range(10):
            k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
            one = apply_generator(k, params, pot, 1.0)
            plain = plain_glauber_generator_oracle(k, params, pot)
            diff = max(float(np.max(np.abs(a - b))) for a, b in zip(one.tensors, plain))
            assert diff <= 1e-12


def test_criterion_03_solver_vs_exponentiation_oracle():
    with criterion(3, "series solver matches the matrix exponential"):
        start = time.monotonic()
        grid = gl.make_grid(6, 6.0)
        pot = gl.gaussian_potential(grid, 0.5, 1.0)
        params = gl.ScaleParams(0.5, 1.0, 0.5)
        u0 = gl.random_ruelle_hierarchy(grid, 2, np.random.default_rng(103), envelope=0.5)
        radius = step_radius(norm_bound_M(params, pot), 0.5, 1.0)
        t = 0.5 * radius
        report = gl.taylor_evolve(
            lambda k: apply_generator(k, params, pot, gl.GLAUBER),
            u0, t, 60, 1e-14, norm_alpha=0.5,
        )
        matrix = assemble_matrix(grid, 2, params, pot, gl.GLAUBER)
        assert matrix.shape == (43, 43)
        reference = matrix_exp_oracle(matrix, flatten(u0), t)
        got = flatten(report.solution)
        assert np.max(np.abs(got - reference)) / np.max(np.abs(reference)) <= 1e-8
        assert time.monotonic() - start < 30.0


def test_criterion_04_radius_bookkeeping():
    with criterion(4, "step radius value and guard"):
        value = step_radius(1.0 + math.e, 0.5, 1.0)
        assert abs(value - 0.5 / (math.e * (1.0 + math.e))) <= 1e-6
        assert abs(value - 0.049469) <= 2e-6
        grid = gl.make_grid(6, 6.0)
        pot = gl.gaussian_potential(grid, 0.5, 1.0)
        params = gl.ScaleParams(0.5, 1.0, 0.5)
        u0 = gl.exponential_hierarchy(gl.constant_field(grid, 0.5), 2)
        radius = step_radius(norm_bound_M(params, pot), 0.5, 1.0)
        with pytest.raises(RadiusExceededError) as err:
            gl.solve_local(params, pot, gl.GLAUBER, u0, 1.01 * radius, 40, 1e-12)
        assert err.value.code == "radius-exceeded"


def test_criterion_05_equilibrium_stationarity():
    with criterion(5, "free equilibrium is stationary"):
        grid = gl.make_grid(8, 8.0)
        pot = gl.zero_potential(grid)
        z = 0.7
        params = gl.ScaleParams(0.5, 1.0, z)
        u0 = gl.exponential_hierarchy(gl.constant_field(grid, z), 3)
        image = apply_generator(u0, params, pot, gl.GLAUBER)
        assert max(float(np.max(np.abs(t))) for t in image.tensors) <= 1e-12
        report = gl.evolve_global(params, pot, u0, 5.0)
        assert gl.max_abs_difference(report.solution, u0) <= 1e-9
        assert abs(gl.ruelle_margin(report.solution, z) - 1.0) <= 1e-9


def test_criterion_06_vlasov_closed_form():
    with criterion(6, "free kinetic equation closed form"):
        grid = gl.make_grid(8, 8.0)
        pot = gl.zero_potential(grid)
        cfg = VlasovConfig(z=1.0, dt=1e-3, scheme="rk4", t_final=1.0)
        final, _ = integrate(gl.constant_field(grid, 0.0), cfg, pot)
        target = 1.0 - math.exp(-1.0)
        assert abs(target - 0.6321205588) <= 1e-9
        assert np.max(np.abs(final.values - target)) <= 1e-8


def test_criterion_07_linf_apriori_bound_on_shipped_configs():
    with criterion(7, "sup-norm a-priori bound along shipped trajectories"):
        for name in ("default.conf", "vlasov_closed_form.conf", "chaos.conf",
                     "equilibrium.conf"):
            cfg = parse_config(CONFIG_DIR / name)
            grid = build_grid(cfg)
            pot = build_potential(cfg, grid)
            rho0 = build_initial_density(cfg, grid)
            vcfg = VlasovConfig(
                z=cfg.z, dt=cfg.dt, scheme=cfg.scheme, t_final=cfg.t_final,
                sample_stride=1,
            )
            _, trajectory = integrate(rho0, vcfg, pot)
            bound = max(gl.field_linf_norm(rho0), cfg.z) + 1e-9
            for _, values in trajectory:
                assert float(np.max(values)) <= bound
                assert float(np.min(values)) >= -1e-9
            assert linf_bound_check(trajectory, rho0, cfg.z)


def test_criterion_08_operator_level_vlasov_convergence():
    with criterion(8, "rescaled generators converge to the limit at order ~1"):
        grid = gl.make_grid(8, 8.0)
        pot = gl.gaussian_potential(grid, 0.5, 1.0)
        params = gl.ScaleParams(0.5, 1.0, 0.5)
        rng = np.random.default_rng(108)
        k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
        limit = apply_generator(k, params, pot, gl.VLASOV_LIMIT)
        eps_list = [0.4, 0.2, 0.1, 0.05]
        diffs = [
            gl.max_abs_difference(
                apply_generator(k, params, pot, eps), limit
            )
            for eps in eps_list
        ]
        assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
        assert 0.8 <= loglog_slope(eps_list, diffs) <= 1.2

        big_k = gl.scale_norm(gl.max_abs_by_order(k), params.alpha0)
        for eps in eps_list:
            bound = gl.vlasov_gap_bound(eps, params, pot, params.alpha, params.alpha0)
            for _ in range(10):
                theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, 8))
                gap = abs(
                    gl.evaluate_generator_gf(k, theta, params, pot, eps)
                    - gl.evaluate_generator_gf(k, theta, params, pot, gl.VLASOV_LIMIT)
                )
                weight = math.exp(gl.field_l1_norm(theta) / params.alpha)
                assert gap <= bound * big_k * weight


def test_criterion_09_gf_level_scaling_study(tmp_path):
    with criterion(9, "evolution-level scaling study"):
        start = time.monotonic()
        cfg = parse_config(CONFIG_DIR / "default.conf")
        result = cmd_scaling_study(cfg, tmp_path, [0.4, 0.2, 0.1, 0.05])
        assert all(g1 >= g2 for g1, g2 in zip(result.gaps, result.gaps[1:]))
        assert 0.8 <= result.fitted_order <= 1.2
        assert time.monotonic() - start < 300.0


def test_criterion_10_chaos_preservation(tmp_path):
    with criterion(10, "product form survives the limit flow"):
        cfg = parse_config(CONFIG_DIR / "chaos.conf")
        assert cfg.n_max == 5 and cfg.z == 0.5 and cfg.t_final == 0.5
        dev1, dev2, passed = cmd_chaos_check(cfg, tmp_path)
        assert passed and dev1 <= 1e-3 and dev2 <= 1e-3

        control = replace(
            ExperimentConfig(), potential_kind="zero", n_max=5, t_final=0.5
        )
        dev1, dev2, passed = cmd_chaos_check(control, tmp_path)
        assert passed and dev1 <= 1e-9 and dev2 <= 1e-9


def test_criterion_11_inequality_suites(tmp_path):
    with criterion(11, "sampled inequality suites report zero violations"):
        cfg = parse_config(CONFIG_DIR / "default.conf")
        violations = cmd_verify_bounds(cfg, tmp_path, n_cases=100)
        assert set(violations) == {
            "death-estimate", "birth-estimate", "generator-estimate", "rescaled-vs-limit-gap"
        }
        assert set(violations.values()) == {0}


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "byte-identical reruns of every command"):
        default = str(CONFIG_DIR / "default.conf")
        chaos = str(CONFIG_DIR / "chaos.conf")
        runs = [
            ("evolve", ["--config", default, "evolve"]),
            ("vlasov", ["--config", default, "vlasov"]),
            ("scaling", ["--config", default, "scaling-study",
                         "--epsilons", "0.4,0.2,0.1,0.05"]),
            ("chaos", ["--config", chaos, "chaos-check"]),
            ("verify", ["--config", default, "verify-bounds", "--cases", "100"]),
        ]
        for label, argv in runs:
            out_a = tmp_path / (label + "_a")
            out_b = tmp_path / (label + "_b")
            assert main(argv[:2] + ["--out", str(out_a)] + argv[2:]) == 0
            assert main(argv[:2] + ["--out", str(out_b)] + argv[2:]) == 0
            names = sorted(os.listdir(out_a))
            assert names and names == sorted(os.listdir(out_b))
            for name in names:
                bytes_a = (out_a / name).read_bytes()
                bytes_b = (out_b / name).read_bytes()
                assert bytes_a == bytes_b, (label, name)
