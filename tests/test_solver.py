import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

import glauberlab as gl
from glauberlab import generators, hierarchy, solver
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
    count_constructions,
    evolve_global_full,
    flatten,
    matrix_exp_oracle,
    plant_signed_zeros,
    plant_signed_zeros_by_orbit,
    representative_of_each_entry,
    shape_potential,
    taylor_evolve_full,
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
    assert report.alpha == 1.0  # the default norm_alpha


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
    assert report.steps == []  # no record for t = 0
    radius = gl.step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
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


def test_evolve_global_evolves_a_horizon_below_the_end_tolerance_of_one():
    # the loop ended once t_final - now <= 1e-12 * max(1, t_final), so a
    # horizon of 5e-13 took no substep at all; the tolerance is now relative
    grid, pot, params, u0 = interacting_setup()
    tiny = gl.evolve_global(params, pot, u0, 5e-13)
    assert [r.time for r in tiny.steps] == [5e-13]
    assert gl.max_abs_difference(tiny.solution, u0) > 0
    assert [r.time for r in gl.evolve_global(params, pot, u0, 1e-300).steps] == [1e-300]


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
    t_final = 3.0 * radius
    report = gl.evolve_global(params, pot, u0, t_final)
    assert report.restarts >= 3
    assert abs(float(report.solution.tensors[0]) - 1.0) <= 1e-9
    # each record is the step record of its substep's state at the cumulative time
    assert report.alpha == inner.alpha
    u, now, expected = u0, 0.0, []
    for _ in report.steps:
        dt = min(0.9 * radius, t_final - now)
        local = gl.solve_local(inner, pot, gl.GLAUBER, u, dt, 60, 1e-12)
        u, now = local.solution, now + dt
        expected.append(
            solver.step_record(now, u, z, inner.alpha, local.terms_used, local.tail_estimate)
        )
    assert report.steps == expected


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
    t = 0.6 * radius
    report = gl.solve_local(params, pot, gl.GLAUBER, u0, t, 50, tol)
    assert report.tail_estimate <= tol
    assert report.terms_used <= 50
    assert_all_symmetric(report.solution, tol=1e-12)
    assert report.alpha == params.alpha
    assert report.steps == [
        solver.step_record(t, report.solution, params.z, params.alpha,
                           report.terms_used, report.tail_estimate)
    ]


def test_step_record_scans_the_state_once(monkeypatch):
    # both norms and the stored profile come from one max_abs_by_order scan;
    # the name is patched where hierarchy's own norms and solver look it up
    calls = []
    original = hierarchy.max_abs_by_order

    def counted(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(hierarchy, "max_abs_by_order", counted)
    monkeypatch.setattr(solver, "max_abs_by_order", counted)
    _, _, params, u0 = interacting_setup()
    record = solver.step_record(0.25, u0, params.z, params.alpha)
    assert len(calls) == 1
    profile = original(u0)
    assert record.max_abs_by_order == profile
    assert record.ruelle_margin == gl.scale_norm(profile, 1.0 / params.z)
    assert record.scale_norm == gl.scale_norm(profile, params.alpha)


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


def test_evolve_global_rejects_whole_radius_substep():
    # a substep of one whole radius used to end in radius-exceeded on its first solve
    grid, pot, params, _ = interacting_setup()
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, params.z), 2)
    for bad in (0.0, 1.0):
        with pytest.raises(InvalidArgumentError, match=r"\(0, 1\)"):
            gl.evolve_global(params, pot, u0, 1.0, substep_fraction=bad)


def test_taylor_evolve_leaves_u0_unchanged():
    # each term is scaled in place; none of that may reach the caller's u0
    grid, pot, params, u0 = interacting_setup(n_max=3, seed=6)
    before = [t.tobytes() for t in u0.tensors]
    radius = gl.step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    gl.solve_local(params, pot, gl.GLAUBER, u0, 0.5 * radius, 60, 1e-12)
    assert [t.tobytes() for t in u0.tensors] == before
    start = gl.exponential_hierarchy(gl.constant_field(grid, 0.25), 3)
    before = [t.tobytes() for t in start.tensors]
    report = gl.evolve_global(params, pot, start, 0.2, epsilon=0.25)
    assert report.restarts > 0
    assert [t.tobytes() for t in start.tensors] == before


def test_taylor_evolve_scales_an_aliasing_apply_into_new_arrays():
    # lambda h: h returns u0's own arrays as the first term: u(t) = e^t u0
    grid = gl.make_grid(4, 4.0)
    u0 = gl.random_ruelle_hierarchy(grid, 2, np.random.default_rng(7))
    before = [t.tobytes() for t in u0.tensors]
    report = gl.taylor_evolve(lambda h: h, u0, 0.5, 60, 1e-15)
    assert [t.tobytes() for t in u0.tensors] == before
    expected = unflatten(grid, 2, math.exp(0.5) * flatten(u0))
    assert gl.max_abs_difference(report.solution, expected) <= 1e-14
    # a read-only result is scaled into a new array too
    frozen = gl.zero_hierarchy(grid, 2)
    for t in frozen.tensors:
        t.flags.writeable = False
    report = gl.taylor_evolve(lambda h: frozen, u0, 0.5, 60, 1e-15)
    assert gl.max_abs_difference(report.solution, u0) == 0.0
    # u0's arrays returned as a later term are read, never scaled in place
    # (u0 would change with them); tol stops after term 2
    tol = 0.4 * gl.scale_norm(gl.max_abs_by_order(u0), 1.0)
    report = gl.taylor_evolve(lambda h: u0, u0, 0.5, 60, tol)
    assert report.terms_used == 2
    assert [t.tobytes() for t in u0.tensors] == before
    expected = unflatten(grid, 2, 1.75 * flatten(u0))
    assert gl.max_abs_difference(report.solution, expected) <= 1e-15


def test_taylor_loop_builds_no_validated_hierarchy(monkeypatch):
    # u0 and every term were validated or built from validated input; the
    # only finiteness scans left are the guarded ones on terms and the sum
    grid, pot, params, u0 = interacting_setup(n_max=3, seed=8)
    built = count_constructions(monkeypatch)
    radius = gl.step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    report = gl.solve_local(params, pot, gl.GLAUBER, u0, 0.5 * radius, 60, 1e-12)
    assert report.terms_used > 1
    assert built == []


def envelope_start(grid, n_max, z, seed, plant=plant_signed_zeros_by_orbit):
    """A state with margin 1/2 at activity z, +0.0 and -0.0 planted in every order.

    Symmetric bit for bit with the default plant; plant_signed_zeros breaks that.
    """
    rng = np.random.default_rng(seed)
    sampled = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.5 * z)
    tensors = [np.array(0.5)] + [t.copy() for t in sampled.tensors[1:]]
    plant(tensors, rng)
    return gl.CorrelationHierarchy(grid, tensors)


def global_step(z, pot):
    """The substep evolve_global takes at activity z: 0.9 of the radius at alpha0 = 1/z."""
    inner = gl.ScaleParams(0.5 / z, 1.0 / z, z)
    return inner, 0.9 * gl.step_radius(norm_bound_M(inner, pot), inner.alpha, inner.alpha0)


def tensor_bits(tensors):
    return [(np.shape(t), np.asarray(t).tobytes()) for t in tensors]


def record_bits(records):
    return [[np.asarray(value).tobytes() for value in astuple(r)] for r in records]


@pytest.mark.parametrize("n_sites", [2, 5, 16])
@pytest.mark.parametrize("shape", ["zero", "gaussian", "tophat"])
def test_packed_loop_keeps_the_full_tensor_loops_bits(shape, n_sites):
    # evolve_global and solve_local sum each order's orbit values; on a
    # start symmetric bit for bit they must give the full loop's bits, and
    # leave u0 as it was
    grid = gl.make_grid(n_sites, float(n_sites))
    pot = shape_potential(shape, grid)
    params = gl.ScaleParams(0.5, 1.0, 0.5)
    inner, step = global_step(params.z, pot)
    for n_max in range(5):
        u0 = envelope_start(grid, n_max, params.z, seed=n_max)
        before = tensor_bits(u0.tensors)
        for epsilon in (1.0, 0.25, 0.0):
            solution, records = evolve_global_full(params, pot, u0, 2.5 * step, epsilon)
            report = gl.evolve_global(params, pot, u0, 2.5 * step, epsilon=epsilon)
            assert len(report.steps) == 3
            assert tensor_bits(report.solution.tensors) == tensor_bits(solution.tensors)
            assert record_bits(report.steps) == record_bits(records)

            apply = lambda h: apply_generator(h, inner, pot, epsilon)
            tensors, terms, tail = taylor_evolve_full(apply, u0, step, 60, 1e-12, inner.alpha)
            local = gl.solve_local(inner, pot, epsilon, u0, step, 60, 1e-12)
            assert tensor_bits(local.solution.tensors) == tensor_bits(tensors)
            state = gl.CorrelationHierarchy._trusted(grid, tensors)
            record = solver.step_record(step, state, params.z, inner.alpha, terms, tail)
            assert record_bits(local.steps) == record_bits([record])
        assert tensor_bits(u0.tensors) == before


def symmetric_of_representatives(k):
    """The hierarchy whose every entry is k's entry at the entry's sorted index tuple."""
    return gl.CorrelationHierarchy(k.grid, [
        t.reshape(-1)[representative_of_each_entry(t.shape)].reshape(t.shape) for t in k.tensors
    ])


def solved(report):
    return report.solution, report.steps


@pytest.mark.parametrize("shape", ["zero", "gaussian", "tophat"])
def test_every_operator_reads_k_at_its_representatives(shape):
    # one rule for a start that is not symmetric: each operator, and each
    # evaluation of the functional, gives, bit for bit, what it gives on the
    # symmetric hierarchy of its representatives
    grid = gl.make_grid(5, 5.0)
    pot = shape_potential(shape, grid)
    params = gl.ScaleParams(0.5, 1.0, 0.5)
    inner, step = global_step(params.z, pot)
    rng = np.random.default_rng(11)
    a = gl.GridField(grid, rng.uniform(0.5, 1.5, 5))
    b = gl.GridField(grid, rng.uniform(-0.5, 0.5, 5))
    theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, 5))
    rows = rng.uniform(-0.6, 0.6, (37, 5))
    shifts = generators.shift_rows(pot, (1.0, 0.25, 0.0))
    functionals = [
        lambda k: gl.evaluate_gf(k, theta),
        lambda k: hierarchy.evaluate_gf_rows(k, rows),
        lambda k: np.hstack(generators.generator_gf_terms(k, theta, *shifts)),
    ] + [lambda k, e=e: gl.evaluate_generator_gf(k, theta, params, pot, e) for e in (1.0, 0.25, 0.0)]
    for n_max in range(5):
        start = envelope_start(grid, n_max, params.z, seed=n_max, plant=plant_signed_zeros)
        symmetric = symmetric_of_representatives(start)
        if n_max >= 2:
            assert tensor_bits(start.tensors) != tensor_bits(symmetric.tensors)
        operators = [lambda k: (gl.substitute_affine(k, a, b), [])]
        for epsilon in (1.0, 0.25, 0.0):
            operators += [
                lambda k, e=epsilon: (gl.apply_birth(k, pot, e), []),
                lambda k, e=epsilon: (gl.apply_generator(k, inner, pot, e), []),
                lambda k, e=epsilon: solved(gl.solve_local(inner, pot, e, k, step, 60, 1e-12)),
                lambda k, e=epsilon: solved(gl.evolve_global(params, pot, k, 2.5 * step, epsilon=e)),
            ]
        for operator in operators:
            (got, got_steps), (want, want_steps) = operator(start), operator(symmetric)
            assert tensor_bits(got.tensors) == tensor_bits(want.tensors)
            assert record_bits(got_steps) == record_bits(want_steps)
        for functional in functionals:
            assert np.asarray(functional(start)).tobytes() == np.asarray(functional(symmetric)).tobytes()


def test_the_loop_calls_each_traced_name_once_per_use(monkeypatch):
    # bench/spans.py patches these names where their callers look them up and
    # reads one substep per taylor_evolve call, one Taylor term per
    # apply_generator call and one apply_birth call per apply_generator call
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kw: calls.update([name]) or original(*args, **kw))

    count(solver, "taylor_evolve")
    count(solver, "apply_generator")
    count(generators, "apply_birth")
    grid, pot, params, _ = interacting_setup(n_max=3)
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, params.z), 3)
    _, step = global_step(params.z, pot)
    report = gl.evolve_global(params, pot, u0, 2.5 * step, epsilon=0.25)
    assert calls["taylor_evolve"] == len(report.steps) == 3
    assert calls["apply_generator"] == calls["apply_birth"] == sum(r.terms_used for r in report.steps)


def test_evolve_global_builds_its_shift_rows_once(monkeypatch):
    calls = []
    build = generators.shift_rows

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(solver, "shift_rows", counted)
    monkeypatch.setattr(generators, "shift_rows", counted)
    grid, pot, params, _ = interacting_setup()
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, params.z), 2)
    _, step = global_step(params.z, pot)
    report = gl.evolve_global(params, pot, u0, 4.5 * step, epsilon=0.25)
    assert len(report.steps) == 5
    assert len(calls) == 1
    calls.clear()
    radius = gl.step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    local = gl.solve_local(params, pot, gl.GLAUBER, u0, 0.5 * radius, 40, 1e-12)
    assert local.terms_used > 1
    assert len(calls) == 1
    # the rows are built up front, so an invalid epsilon is refused at t = 0 too
    message = "^epsilon must be finite and non-negative, got %s$"
    with pytest.raises(InvalidArgumentError, match=message % "-1.0"):
        gl.evolve_global(params, pot, u0, 0.0, epsilon=-1.0)
    with pytest.raises(InvalidArgumentError, match=message % "nan"):
        gl.solve_local(params, pot, math.nan, u0, 0.0, 40, 1e-12)


def test_evolve_global_working_set_at_the_evolve_size():
    # besides the caller's u0: the unpacked solution and the orbit values
    # it is unpacked from, 1.164x the top tensor; the loop's orbit values
    # and one application's stacked rows take less
    grid = gl.make_grid(16, 16.0)
    pot = shape_potential("gaussian", grid)
    params = gl.ScaleParams(0.5, 1.0, 0.5)
    u0 = envelope_start(grid, 4, params.z, seed=0)
    _, step = global_step(params.z, pot)
    tracemalloc.start()
    try:
        report = gl.evolve_global(params, pot, u0, 3.5 * step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.steps) == 4
    assert peak < 1.25 * u0.tensors[4].nbytes
