import math
import tracemalloc
import warnings

import numpy as np
import pytest

import glauberlab as gl
from glauberlab.errors import InvalidArgumentError, MemoryGuardError
from glauberlab.generators import (
    birth_gf_term,
    birth_gf_terms,
    death_gf_term,
    shift_bound_constants,
    shift_displacement_tables,
    shift_rows,
)
from glauberlab.hierarchy import flat_dimension

from helpers import (
    apply_birth_oracle,
    apply_death,
    apply_generator_formula,
    assemble_matrix,
    assert_all_symmetric,
    birth_gf_term_oracle,
    flatten,
    loglog_slope,
    plain_glauber_generator_oracle,
    rel_err,
    unflatten,
    variational_derivative_oracle,
)

ORACLE_KINDS = (gl.GLAUBER, 0.25, gl.VLASOV_LIMIT)
ORACLE_SHAPES = ((5, 0), (7, 1), (6, 2), (5, 3), (6, 4))


def standard_setup(n_sites=8, n_max=3, z=0.5, seed=0):
    grid = gl.make_grid(n_sites, float(n_sites))
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    params = gl.ScaleParams(0.5, 1.0, z)
    rng = np.random.default_rng(seed)
    return grid, pot, params, rng


def test_generator_kind_validation():
    # the generator is selected by epsilon alone; 0 is the limit
    _, pot, _, _ = standard_setup()
    for bad in (-0.5, -math.inf, math.inf, math.nan):
        with pytest.raises(InvalidArgumentError):
            shift_displacement_tables(pot, bad)
    assert gl.GLAUBER == 1.0 and gl.VLASOV_LIMIT == 0.0


def test_shift_tables():
    grid, pot, _, _ = standard_setup()
    a_plain, b_plain = shift_displacement_tables(pot, gl.GLAUBER)
    phi = pot.values_by_displacement
    assert np.array_equal(a_plain, np.exp(-phi))
    assert np.allclose(b_plain, np.exp(-phi) - 1.0, rtol=0, atol=1e-16)

    a_v, b_v = shift_displacement_tables(pot, gl.VLASOV_LIMIT)
    assert np.all(a_v == 1.0)
    assert np.array_equal(b_v, -phi)

    # tiny epsilon stays finite and close to the limit shift
    _, b_tiny = shift_displacement_tables(pot, 1e-12)
    assert np.all(np.isfinite(b_tiny))
    assert np.allclose(b_tiny, -phi * (1 - 1e-12 * phi / 2), rtol=1e-9)


@pytest.mark.parametrize("epsilon", [5e-324, 1e-310])
def test_shift_table_below_the_normal_range_is_the_limit_bit_for_bit(epsilon):
    # epsilon * phi is subnormal here; expm1(-epsilon * phi) / epsilon gave -0.0
    # at 5e-324 and tails off by about 3e-7 relative at 1e-310
    _, pot, _, _ = standard_setup()
    phi = pot.values_by_displacement
    assert np.all(np.abs(epsilon * phi) < np.finfo(np.float64).tiny)
    a, b = shift_displacement_tables(pot, epsilon)
    assert b.tobytes() == (-phi).tobytes()
    assert np.array_equal(a, np.exp(-epsilon * phi))


@pytest.mark.parametrize("epsilon", [1.0, 0.25, 0.05])
def test_shift_table_in_the_normal_range_keeps_its_arithmetic(epsilon):
    _, pot, _, _ = standard_setup()
    phi = pot.values_by_displacement
    a, b = shift_displacement_tables(pot, epsilon)
    assert a.tobytes() == np.exp(-epsilon * phi).tobytes()
    assert b.tobytes() == (np.expm1(-epsilon * phi) / epsilon).tobytes()


def test_shift_table_at_a_huge_epsilon_is_the_exact_limit_without_warnings():
    pot = gl.gaussian_potential(gl.make_grid(8, 8.0), 4.0, 1.0)
    phi = pot.values_by_displacement
    overflows = phi > 1.8  # epsilon * phi above the largest double
    assert overflows.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = shift_displacement_tables(pot, 1e308)
    assert np.all(a[overflows] == 0.0)
    assert np.all(b[overflows] == -1.0 / 1e308)


def test_bound_constants_overflow_to_inf():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 800.0, 1.0)
    params = gl.ScaleParams(0.5, 1.0, 0.5)
    assert gl.norm_bound_M(params, pot) == math.inf
    assert gl.vlasov_gap_bound(1.0, params, pot, 0.5, 1.0) == math.inf
    assert gl.step_radius(gl.norm_bound_M(params, pot), 0.5, 1.0) == 0.0


def test_shift_bound_constants():
    grid, pot, _, _ = standard_setup()
    c0, c1 = shift_bound_constants(pot, gl.GLAUBER)
    phi = pot.values_by_displacement
    assert math.isclose(c0, float(np.max(np.exp(-phi))), rel_tol=1e-15)
    assert c1 <= pot.norm_l1 + 1e-15
    c0_v, c1_v = shift_bound_constants(pot, gl.VLASOV_LIMIT)
    assert c0_v == 1.0
    assert math.isclose(c1_v, pot.norm_l1, rel_tol=1e-15)


def test_apply_death():
    grid, pot, params, rng = standard_setup()
    only_scalar = gl.exponential_hierarchy(gl.constant_field(grid, 0.4), 0)
    out0 = apply_death(only_scalar)
    assert float(out0.tensors[0]) == 0.0

    k = gl.exponential_hierarchy(gl.constant_field(grid, 0.4), 3)
    out = apply_death(k)
    assert np.allclose(out.tensors[2], 2 * 0.4**2, rtol=1e-14)

    rand = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
    dead = apply_death(rand)
    for _ in range(10):
        theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, 8))
        assert rel_err(gl.evaluate_gf(dead, theta), death_gf_term(rand, theta)) <= 1e-10


def test_apply_birth_free_case_drops_arguments():
    # With phi = 0 the substitution is the identity, so order n collects
    # k_{n-1} over each choice of dropped argument.
    grid = gl.make_grid(4, 4.0)
    pot = gl.zero_potential(grid)
    rng = np.random.default_rng(1)
    k = gl.random_ruelle_hierarchy(grid, 3, rng)
    out = gl.apply_birth(k, pot, gl.GLAUBER)
    assert np.allclose(out.tensors[1], float(k.tensors[0]), rtol=0, atol=0)
    for idx in [(0, 1), (2, 2), (3, 1)]:
        expected = k.tensors[1][idx[1]] + k.tensors[1][idx[0]]
        assert math.isclose(out.tensors[2][idx], expected, rel_tol=1e-14)
    for idx in [(0, 1, 2), (3, 3, 1)]:
        expected = (
            k.tensors[2][idx[1], idx[2]]
            + k.tensors[2][idx[0], idx[2]]
            + k.tensors[2][idx[0], idx[1]]
        )
        assert math.isclose(out.tensors[3][idx], expected, rel_tol=1e-13)


def test_apply_birth_vlasov_truncation_one():
    grid, pot, params, rng = standard_setup()
    rho = gl.GridField(grid, rng.uniform(0.1, 0.6, 8))
    k = gl.exponential_hierarchy(rho, 1)
    out = gl.apply_birth(k, pot, gl.VLASOV_LIMIT)
    conv = gl.convolve(pot, gl.GridField(grid, k.tensors[1]))
    expected = float(k.tensors[0]) - conv.values
    assert np.allclose(out.tensors[1], expected, rtol=1e-13)


def test_apply_birth_gf_consistency_and_symmetry():
    grid, pot, params, rng = standard_setup()
    k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
    for kind in (gl.GLAUBER, 0.3, gl.VLASOV_LIMIT):
        out = gl.apply_birth(k, pot, kind)
        assert float(out.tensors[0]) == 0.0
        assert_all_symmetric(out)
        for _ in range(10):
            theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, 8))
            assert (
                rel_err(gl.evaluate_gf(out, theta), birth_gf_term(k, theta, pot, kind))
                <= 1e-10
            )


def test_apply_generator_order_zero_and_equilibrium():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    for z in (1.0, 0.7):
        params = gl.ScaleParams(0.5, 1.0, z)
        u0 = gl.exponential_hierarchy(gl.constant_field(grid, z), 3)
        out = gl.apply_generator(u0, params, pot, gl.GLAUBER)
        assert max(float(np.max(np.abs(t))) for t in out.tensors) <= 1e-12

    grid2, pot2, params2, rng = standard_setup()
    k = gl.random_ruelle_hierarchy(grid2, 3, rng, envelope=0.5)
    for kind in (gl.GLAUBER, 0.4, gl.VLASOV_LIMIT):
        out = gl.apply_generator(k, params2, pot2, kind)
        assert float(out.tensors[0]) == 0.0
        assert_all_symmetric(out)


def test_rescaled_one_coincides_with_plain():
    grid, pot, params, rng = standard_setup()
    for _ in range(5):
        k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
        one = gl.apply_generator(k, params, pot, 1.0)
        plain = plain_glauber_generator_oracle(k, params, pot)
        for a, b in zip(one.tensors, plain):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_apply_generator_linearity():
    grid, pot, params, rng = standard_setup()
    k1 = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
    k2 = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
    a, b = 1.7, -0.6
    combo = unflatten(grid, 3, a * flatten(k1) + b * flatten(k2))
    lhs = gl.apply_generator(combo, params, pot, gl.GLAUBER)
    r1 = gl.apply_generator(k1, params, pot, gl.GLAUBER)
    r2 = gl.apply_generator(k2, params, pot, gl.GLAUBER)
    rhs = unflatten(grid, 3, a * flatten(r1) + b * flatten(r2))
    scale = max(1.0, np.max(np.abs(flatten(rhs))))
    assert gl.max_abs_difference(lhs, rhs) / scale <= 1e-11


def test_duality_identity_sweep():
    grid, pot, params, rng = standard_setup()
    for _ in range(10):
        k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
        theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, 8))
        for kind in (gl.GLAUBER, 0.25, gl.VLASOV_LIMIT):
            lhs = gl.evaluate_gf(gl.apply_generator(k, params, pot, kind), theta)
            rhs = gl.evaluate_generator_gf(k, theta, params, pot, kind)
            assert rel_err(lhs, rhs) <= 1e-9


def test_evaluate_generator_gf_zero_theta_and_equilibrium():
    grid, pot, params, rng = standard_setup()
    k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
    zero = gl.constant_field(grid, 0.0)
    assert gl.evaluate_generator_gf(k, zero, params, pot, gl.GLAUBER) == 0.0

    free_pot = gl.zero_potential(grid)
    z = 0.8
    eq_params = gl.ScaleParams(0.5, 1.0, z)
    u0 = gl.exponential_hierarchy(gl.constant_field(grid, z), 3)
    for _ in range(5):
        theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, 8))
        val = gl.evaluate_generator_gf(u0, theta, eq_params, free_pot, gl.GLAUBER)
        assert abs(val) <= 1e-12


def test_assemble_matrix():
    grid = gl.make_grid(4, 4.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    params = gl.ScaleParams(0.5, 1.0, 0.5)

    tiny = assemble_matrix(grid, 0, params, pot, gl.GLAUBER)
    assert tiny.shape == (1, 1)
    assert tiny[0, 0] == 0.0

    mat = assemble_matrix(grid, 2, params, pot, gl.GLAUBER)
    dim = flat_dimension(grid, 2)
    assert mat.shape == (dim, dim)
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = gl.random_ruelle_hierarchy(grid, 2, rng)
        direct = flatten(gl.apply_generator(k, params, pot, gl.GLAUBER))
        via_matrix = mat @ flatten(k)
        assert np.max(np.abs(direct - via_matrix)) <= 1e-12 * max(
            1.0, np.max(np.abs(direct))
        )


def test_assemble_matrix_memory_guard():
    grid = gl.make_grid(64, 64.0)
    params = gl.ScaleParams(0.5, 1.0, 0.5)
    pot = gl.zero_potential(grid)
    with pytest.raises(MemoryGuardError):
        assemble_matrix(grid, 3, params, pot, gl.GLAUBER)


def test_norm_bound_M_values():
    grid = gl.make_grid(8, 8.0)
    # potential with ||phi||_1 = 1 and ||phi||_inf = 1 at dx = 1
    samples = np.zeros(8)
    samples[0] = 1.0
    pot = gl.potential_from_samples(grid, samples)
    m = gl.norm_bound_M(gl.ScaleParams(0.5, 1.0, 1.0), pot)
    assert math.isclose(m, 1.0 + math.e, rel_tol=1e-12)

    free = gl.zero_potential(grid)
    for z in (1e-3, 1e-6):
        m_free = gl.norm_bound_M(gl.ScaleParams(0.5, 1.0, z), free)
        assert math.isclose(m_free, 1.0 * (1.0 + z / math.e), rel_tol=1e-12)


def test_vlasov_gap_bound_values():
    grid = gl.make_grid(8, 8.0)
    samples = np.zeros(8)
    samples[0] = 1.0
    pot = gl.potential_from_samples(grid, samples)
    params = gl.ScaleParams(0.5, 1.0, 1.0)
    assert gl.vlasov_gap_bound(0.0, params, pot, 0.5, 1.0) == 0.0
    one = gl.vlasov_gap_bound(1.0, params, pot, 0.5, 1.0)
    two = gl.vlasov_gap_bound(2.0, params, pot, 0.5, 1.0)
    assert math.isclose(two, 2 * one, rel_tol=1e-14)
    expected = math.e**2 * (2.0 + 16.0 / math.e)
    assert math.isclose(one, expected, rel_tol=1e-12)
    with pytest.raises(InvalidArgumentError):
        gl.vlasov_gap_bound(1.0, params, pot, 0.9, 0.6)
    for bad in (-1.0, math.nan):  # a nan eps gave a nan bound, which no comparison fails
        with pytest.raises(InvalidArgumentError, match="eps must be non-negative"):
            gl.vlasov_gap_bound(bad, params, pot, 0.5, 1.0)


def test_operator_level_vlasov_convergence():
    grid, pot, params, rng = standard_setup()
    k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
    limit = gl.apply_generator(k, params, pot, gl.VLASOV_LIMIT)
    eps_list = [0.4, 0.2, 0.1, 0.05]
    diffs = [
        gl.max_abs_difference(gl.apply_generator(k, params, pot, e), limit)
        for e in eps_list
    ]
    assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    assert 0.8 <= loglog_slope(eps_list, diffs) <= 1.2


def test_sampled_generator_estimate_bounds():
    grid, pot, params, rng = standard_setup()
    m_const = gl.norm_bound_M(params, pot)
    gap = params.alpha0 - params.alpha
    for _ in range(30):
        k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=params.z)
        theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, 8))
        big_k = gl.scale_norm(gl.max_abs_by_order(k), params.alpha0)
        weight = math.exp(gl.field_l1_norm(theta) / params.alpha)
        for kind in (gl.GLAUBER, 0.3, gl.VLASOV_LIMIT):
            value = abs(gl.evaluate_generator_gf(k, theta, params, pot, kind))
            assert value <= m_const / gap * big_k * weight

        eps = 0.3
        diff = abs(
            gl.evaluate_generator_gf(k, theta, params, pot, eps)
            - gl.evaluate_generator_gf(k, theta, params, pot, gl.VLASOV_LIMIT)
        )
        bound = gl.vlasov_gap_bound(eps, params, pot, params.alpha, params.alpha0)
        assert diff <= bound * big_k * weight


@pytest.mark.parametrize("n_sites,n_max", ORACLE_SHAPES)
def test_apply_birth_matches_per_site_oracle_bitwise(n_sites, n_max):
    grid = gl.make_grid(n_sites, 5.0)
    pot = gl.gaussian_potential(grid, 0.7, 1.3)
    rng = np.random.default_rng(100 + n_max)
    k = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.8)
    for kind in ORACLE_KINDS:
        out = gl.apply_birth(k, pot, kind).tensors
        ref = apply_birth_oracle(k, pot, kind)
        assert [t.shape for t in out] == [t.shape for t in ref]
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(out, ref)) == 0.0


@pytest.mark.parametrize("n_sites,n_max", ORACLE_SHAPES)
def test_birth_gf_term_matches_per_site_oracle_bitwise(n_sites, n_max):
    grid = gl.make_grid(n_sites, 5.0)
    pot = gl.tophat_potential(grid, 0.4, 1.5)
    rng = np.random.default_rng(200 + n_max)
    k = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.8)
    for kind in ORACLE_KINDS:
        for _ in range(2):
            theta = rng.uniform(-0.6, 0.6, n_sites)
            value = birth_gf_term(k, gl.GridField(grid, theta), pot, kind)
            assert value == birth_gf_term_oracle(k, theta, pot, kind)


@pytest.mark.parametrize("epsilons", [[1.0, 0.25, 0.0], [1.0, 0.0]])
@pytest.mark.parametrize("shape", ["gaussian", "tophat", "zero"])
@pytest.mark.parametrize("n_sites,n_max", ORACLE_SHAPES)
def test_batched_birth_terms_are_the_per_epsilon_terms_bitwise(n_sites, n_max, shape, epsilons):
    # one stacked pass over every epsilon's shift rows must keep each value's bits
    grid = gl.make_grid(n_sites, 5.0)
    pot = {
        "gaussian": gl.gaussian_potential(grid, 0.7, 1.3),
        "tophat": gl.tophat_potential(grid, 0.4, 1.5),
        "zero": gl.zero_potential(grid),
    }[shape]
    rng = np.random.default_rng(400 + n_max)
    k = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.8)
    a_rows, b_rows = shift_rows(pot, epsilons)
    assert a_rows.shape == b_rows.shape == (len(epsilons) * n_sites, n_sites)
    for _ in range(2):
        theta = rng.uniform(-0.6, 0.6, n_sites)
        field = gl.GridField(grid, theta)
        values = birth_gf_terms(k, field, a_rows, b_rows)
        assert values == [birth_gf_term(k, field, pot, eps) for eps in epsilons]
        assert values == [birth_gf_term_oracle(k, theta, pot, eps) for eps in epsilons]


@pytest.mark.parametrize("n_sites,n_max", ORACLE_SHAPES)
def test_generator_value_is_death_and_birth_terms_bitwise(n_sites, n_max):
    # verify-bounds assembles L_eps B(theta) from the two terms it already
    # holds; that must be the duality oracle's value bit for bit.
    grid = gl.make_grid(n_sites, 5.0)
    rng = np.random.default_rng(300 + n_max)
    for trial in range(4):
        shape = gl.gaussian_potential if trial % 2 else gl.tophat_potential
        pot = shape(grid, rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0))
        params = gl.ScaleParams(0.5, 1.0, rng.uniform(0.1, 1.0))
        k = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=params.z)
        theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, n_sites))
        death = death_gf_term(k, theta)
        for kind in ORACLE_KINDS:
            value = -death + params.z * birth_gf_term(k, theta, pot, kind)
            assert value == gl.evaluate_generator_gf(k, theta, params, pot, kind)


@pytest.mark.parametrize("n_sites,n_max", ORACLE_SHAPES)
def test_death_term_is_the_variational_derivative_pairing(n_sites, n_max):
    # Euler's identity: sum_x dx theta(x) deltaB(theta; x) = sum_n n B_n(theta)
    grid = gl.make_grid(n_sites, 5.0)
    rng = np.random.default_rng(500 + n_max)
    k = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.8)
    for _ in range(4):
        theta = gl.GridField(grid, rng.uniform(-0.6, 0.6, n_sites))
        field = variational_derivative_oracle(k, theta)
        pairing = grid.spacing * math.fsum(theta.values * field)
        assert rel_err(death_gf_term(k, theta), pairing) <= 1e-12


@pytest.mark.parametrize("n_sites,n_max", ORACLE_SHAPES)
def test_death_term_is_the_radial_derivative(n_sites, n_max):
    # d/ds B(s theta) at s = 1 is sum_n n B_n(theta), by a central difference
    grid = gl.make_grid(n_sites, 5.0)
    rng = np.random.default_rng(600 + n_max)
    k = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.8)
    h = 1e-5
    for _ in range(4):
        theta = rng.uniform(-0.6, 0.6, n_sites)
        fd = (
            gl.evaluate_gf(k, gl.GridField(grid, (1 + h) * theta))
            - gl.evaluate_gf(k, gl.GridField(grid, (1 - h) * theta))
        ) / (2 * h)
        assert rel_err(death_gf_term(k, gl.GridField(grid, theta)), fd) <= 1e-8


@pytest.mark.parametrize("n_max", range(6))
def test_death_term_of_a_product_state(n_max):
    # B_n(theta) = u^n / n! with u = dx sum rho theta, so the death term is
    # u * sum_{n < n_max} u^n / n!
    grid = gl.make_grid(8, 6.0)
    rng = np.random.default_rng(700 + n_max)
    rho = gl.GridField(grid, rng.uniform(0.1, 0.9, 8))
    k = gl.exponential_hierarchy(rho, n_max)
    for _ in range(4):
        theta = gl.GridField(grid, rng.uniform(-0.8, 0.8, 8))
        u = grid.spacing * math.fsum(rho.values * theta.values)
        closed = u * math.fsum(u**n / math.factorial(n) for n in range(n_max))
        assert rel_err(death_gf_term(k, theta), closed) <= 1e-12


def test_apply_generator_working_set_is_a_few_top_tensors():
    grid, pot, params, rng = standard_setup(n_sites=64, n_max=3)
    k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
    top_bytes = k.tensors[3].nbytes
    tracemalloc.start()
    try:
        gl.apply_generator(k, params, pot, gl.GLAUBER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * top_bytes


@pytest.mark.parametrize("shape", ["zero", "gaussian", "tophat"])
def test_apply_generator_is_the_formula_byte_for_byte(shape):
    # in place, apply_generator must keep every bit of z * birth - death,
    # the -0.0 that zero's b_x = -phi gives at epsilon 0 included
    grid = gl.make_grid(5, 5.0)
    pots = {
        "zero": gl.zero_potential(grid),
        "gaussian": gl.gaussian_potential(grid, 0.7, 1.3),
        "tophat": gl.tophat_potential(grid, 0.4, 1.5),
    }
    params = gl.ScaleParams(0.5, 1.0, 0.75)
    for n_max in range(5):
        k = gl.random_ruelle_hierarchy(grid, n_max, np.random.default_rng(n_max), envelope=0.8)
        before = [t.tobytes() for t in k.tensors]
        for epsilon in (1.0, 0.25, 0.0):
            out = gl.apply_generator(k, params, pots[shape], epsilon).tensors
            ref = apply_generator_formula(k, params, pots[shape], epsilon)
            assert [t.shape for t in out] == [t.shape for t in ref]
            assert [t.tobytes() for t in out] == [t.tobytes() for t in ref]
        assert [t.tobytes() for t in k.tensors] == before


def test_apply_generator_working_set_at_the_evolve_size():
    # 2.22x the top tensor at (16, 4): the birth route's inputs, outputs and
    # one order of contracted rows; 4.21x when each operation made a new array
    grid, pot, params, rng = standard_setup(n_sites=16, n_max=4)
    k = gl.random_ruelle_hierarchy(grid, 4, rng, envelope=0.5)
    tracemalloc.start()
    try:
        gl.apply_generator(k, params, pot, gl.GLAUBER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * k.tensors[4].nbytes
