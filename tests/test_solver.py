import math
import warnings

import numpy as np
import pytest

import glauberlab as gl
from glauberlab.errors import (
    ConvergenceError,
    InvalidArgumentError,
    NonfiniteStateError,
    RadiusExceededError,
    RuelleViolationError,
)
from glauberlab.generators import apply_generator, norm_bound_M

from helpers import (
    assemble_matrix,
    assert_all_symmetric,
    flatten,
    matrix_exp_oracle,
    unflatten,
)


def interacting_setup(n_sites=6, n_max=2, z=0.5, seed=3):
    grid = gl.make_grid(n_sites, float(n_sites))
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    params = gl.ScaleParams(0.5, 1.0, z)
    rng = np.random.default_rng(seed)
    u0 = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=z)
    return grid, pot, params, u0


def test_step_radius_values():
    r = gl.step_radius(1.0 + math.e, 0.5, 1.0)
    assert math.isclose(r, 0.5 / (math.e * (1.0 + math.e)), rel_tol=1e-15)
    assert abs(r - 0.049469) <= 1e-5
    assert gl.step_radius(1e9, 0.5, 1.0) < 1e-9
    assert gl.step_radius(2.0, 1.0, 1.0) == 0.0
    with pytest.raises(InvalidArgumentError):
        gl.step_radius(0.0, 0.5, 1.0)


def test_taylor_evolve_zero_operator():
    grid = gl.make_grid(6, 6.0)
    u0 = gl.random_ruelle_hierarchy(grid, 2, np.random.default_rng(0))
    report = gl.taylor_evolve(
        lambda k: gl.zero_hierarchy(grid, 2), u0, 3.0, 20, 1e-12
    )
    assert gl.max_abs_difference(report.solution, u0) == 0.0
    assert report.tail_estimate == 0.0


def test_taylor_evolve_scalar_exponential():
    grid = gl.make_grid(6, 6.0)
    u0 = gl.random_ruelle_hierarchy(grid, 2, np.random.default_rng(1))
    report = gl.taylor_evolve(
        lambda k: unflatten(grid, 2, -flatten(k)), u0, 1.0, 40, 1e-15
    )
    expected = unflatten(grid, 2, math.exp(-1.0) * flatten(u0))
    assert gl.max_abs_difference(report.solution, expected) <= 1e-12


def test_taylor_evolve_no_convergence():
    grid = gl.make_grid(4, 4.0)
    u0 = gl.random_ruelle_hierarchy(grid, 1, np.random.default_rng(2))
    with pytest.raises(ConvergenceError):
        gl.taylor_evolve(lambda k: unflatten(grid, 1, -flatten(k)), u0, 30.0, 3, 1e-12)


def test_taylor_evolve_matches_matrix_exponential():
    grid, pot, params, u0 = interacting_setup()
    radius = gl.step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    t = 0.5 * radius
    report = gl.taylor_evolve(
        lambda k: apply_generator(k, params, pot, gl.GLAUBER),
        u0, t, 60, 1e-14, norm_alpha=params.alpha,
    )
    mat = assemble_matrix(grid, 2, params, pot, gl.GLAUBER)
    reference = matrix_exp_oracle(mat, flatten(u0), t)
    got = flatten(report.solution)
    assert np.max(np.abs(got - reference)) / np.max(np.abs(reference)) <= 1e-8


@pytest.mark.parametrize(
    "n_sites,n_max",
    [(16, 1), (4, 3), (6, 2)],  # flat dimensions 17, 85, 43
)
def test_taylor_evolve_oracle_agreement_across_dimensions(n_sites, n_max):
    grid = gl.make_grid(n_sites, float(n_sites))
    pot = gl.gaussian_potential(grid, 0.4, 1.0)
    params = gl.ScaleParams(0.5, 1.0, 0.5)
    u0 = gl.random_ruelle_hierarchy(grid, n_max, np.random.default_rng(42), envelope=0.5)
    radius = gl.step_radius(norm_bound_M(params, pot), 0.5, 1.0)
    t = 0.7 * radius
    report = gl.taylor_evolve(
        lambda k: apply_generator(k, params, pot, gl.GLAUBER),
        u0, t, 60, 1e-13, norm_alpha=0.5,
    )
    mat = assemble_matrix(grid, n_max, params, pot, gl.GLAUBER)
    reference = matrix_exp_oracle(mat, flatten(u0), t)
    tol = max(1e-8, 10 * report.tail_estimate)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(flatten(report.solution) - reference)) <= tol * scale


def test_taylor_evolve_semigroup_property():
    grid, pot, params, u0 = interacting_setup(seed=4)
    radius = gl.step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    apply = lambda k: apply_generator(k, params, pot, gl.GLAUBER)
    t1, t2 = 0.3 * radius, 0.45 * radius
    once = gl.taylor_evolve(apply, u0, t1 + t2, 60, 1e-14, norm_alpha=0.5).solution
    stage = gl.taylor_evolve(apply, u0, t1, 60, 1e-14, norm_alpha=0.5).solution
    twice = gl.taylor_evolve(apply, stage, t2, 60, 1e-14, norm_alpha=0.5).solution
    scale = max(1.0, np.max(np.abs(flatten(once))))
    assert gl.max_abs_difference(once, twice) / scale <= 1e-8


def test_solve_local_zero_time_and_radius_guard():
    grid, pot, params, u0 = interacting_setup(seed=5)
    report = gl.solve_local(params, pot, gl.GLAUBER, u0, 0.0, 40, 1e-12)
    assert gl.max_abs_difference(report.solution, u0) == 0.0
    radius = report.radius
    with pytest.raises(RadiusExceededError):
        gl.solve_local(params, pot, gl.GLAUBER, u0, 1.01 * radius, 40, 1e-12)


def test_solve_local_free_equilibrium():
    grid = gl.make_grid(6, 6.0)
    pot = gl.zero_potential(grid)
    z = 0.8
    params = gl.ScaleParams(0.5, 1.0, z)
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, z), 2)
    radius = gl.step_radius(norm_bound_M(params, pot), 0.5, 1.0)
    report = gl.solve_local(params, pot, gl.GLAUBER, u0, 0.5 * radius, 40, 1e-12)
    assert gl.max_abs_difference(report.solution, u0) <= 1e-10


def test_evolve_global_zero_time():
    grid, pot, params, _ = interacting_setup()
    z = params.z
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, z), 2)
    report = gl.evolve_global(params, pot, u0, 0.0)
    assert report.restarts == 0
    assert gl.max_abs_difference(report.solution, u0) == 0.0


def test_evolve_global_free_equilibrium_long_run():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    z = 0.7
    params = gl.ScaleParams(0.5, 1.0, z)
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, z), 3)
    report = gl.evolve_global(params, pot, u0, 5.0)
    assert gl.max_abs_difference(report.solution, u0) <= 1e-9
    assert abs(gl.ruelle_margin(report.solution, z) - 1.0) <= 1e-9
    for record in report.steps:
        assert abs(record.ruelle_margin - 1.0) <= 1e-9


def test_evolve_global_restart_bookkeeping():
    grid = gl.make_grid(6, 6.0)
    pot = gl.gaussian_potential(grid, 0.3, 1.0)
    z = 0.5
    params = gl.ScaleParams(0.5, 1.0, z)
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, z), 2)
    alpha0 = 1.0 / z
    inner = gl.ScaleParams(alpha0 / 2, alpha0, z)
    radius = gl.step_radius(norm_bound_M(inner, pot), alpha0 / 2, alpha0)
    report = gl.evolve_global(params, pot, u0, 3.0 * radius)
    assert report.restarts >= 3
    assert abs(float(report.solution.tensors[0]) - 1.0) <= 1e-9


def test_evolve_global_rejects_bad_initial_envelope():
    grid, pot, params, _ = interacting_setup()
    z = params.z
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, 2.0 * z), 2)
    with pytest.raises(RuelleViolationError):
        gl.evolve_global(params, pot, u0, 0.1)


def test_matrix_exp_oracle():
    v = np.arange(1.0, 6.0)
    assert np.allclose(matrix_exp_oracle(np.zeros((5, 5)), v, 1.0), v, rtol=0)
    decay = matrix_exp_oracle(-np.eye(5), v, 1.0)
    assert np.allclose(decay, math.exp(-1.0) * v, rtol=1e-13)

    rng = np.random.default_rng(6)
    a = rng.uniform(-1, 1, (10, 10))
    t = 0.05
    series = np.zeros(10)
    term = rng.uniform(-1, 1, 10)
    v0 = term.copy()
    series += term
    for m in range(1, 60):
        term = (t / m) * (a @ term)
        series += term
    got = matrix_exp_oracle(a, v0, t)
    assert np.max(np.abs(got - series)) / np.max(np.abs(series)) <= 1e-12


def test_solve_report_invariants_and_symmetry():
    grid, pot, params, u0 = interacting_setup(seed=7)
    radius = gl.step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    tol = 1e-12
    report = gl.solve_local(params, pot, gl.GLAUBER, u0, 0.6 * radius, 50, tol)
    assert report.tail_estimate <= tol
    assert report.terms_used <= 50
    assert_all_symmetric(report.solution, tol=1e-12)


def test_matrix_exp_oracle_validation():
    with pytest.raises(InvalidArgumentError):
        matrix_exp_oracle(np.zeros((2, 3)), np.zeros(2), 1.0)
    with pytest.raises(InvalidArgumentError):
        matrix_exp_oracle(np.zeros((2, 2)), np.zeros(3), 1.0)


def test_taylor_overflow_is_nonfinite_state_without_warning():
    grid, pot, params, _ = interacting_setup(n_max=4)
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, 1e77), 4)  # order 4 ~ 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteStateError):
            gl.taylor_evolve(
                lambda k: apply_generator(k, params, pot, gl.GLAUBER), u0, 0.01, 10, 1e-12
            )


def test_evolve_global_rejects_non_finite_t_final():
    # an infinite horizon used to return a report with zero steps
    grid, pot, params, _ = interacting_setup()
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, params.z), 2)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(InvalidArgumentError):
            gl.evolve_global(params, pot, u0, bad)
