import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import glauberlab as gl
from glauberlab import generators, hierarchy
from glauberlab.config import build_grid, build_potential, build_scale_params, parse_config
from glauberlab.errors import InvalidArgumentError, MemoryGuardError, NonfiniteStateError
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
    apply_birth_full,
    apply_birth_oracle,
    apply_death,
    apply_generator_formula,
    assemble_matrix,
    assert_all_symmetric,
    assert_orbit_bits,
    birth_gf_term_oracle,
    flatten,
    loglog_slope,
    plain_glauber_generator_oracle,
    plant_signed_zeros_by_orbit,
    rel_err,
    shape_potential,
    substitute_affine_rows_full,
    unflatten,
    variational_derivative_oracle,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
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


def test_generator_value_on_a_huge_spacing_overflows_to_a_nonfinite_float():
    # the birth term's top weight dx**n_max raised a raw OverflowError, while
    # evaluate_gf on the same hierarchy returned inf
    grid = gl.make_grid(4, 4e300)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    k = gl.random_ruelle_hierarchy(grid, 3, np.random.default_rng(4), envelope=0.5)
    theta = gl.constant_field(grid, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = gl.evaluate_generator_gf(k, theta, gl.ScaleParams(0.5, 1.0, 0.5), pot, gl.GLAUBER)
    assert isinstance(value, float) and not math.isfinite(value)
    assert not math.isfinite(gl.evaluate_gf(k, theta))


def test_birth_term_that_overflows_warns_nothing():
    # a_x theta + b_x = -1e308 - 1e308 printed a numpy overflow RuntimeWarning;
    # the death term gave nan quietly on the same input
    grid = gl.make_grid(4, 4.0)
    pot = gl.gaussian_potential(grid, 1e308, 1.0)
    k = gl.random_ruelle_hierarchy(grid, 2, np.random.default_rng(5))
    theta = gl.constant_field(grid, -1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        birth = birth_gf_term(k, theta, pot, gl.VLASOV_LIMIT)
        death = death_gf_term(k, theta)
    assert not math.isfinite(birth) and not math.isfinite(death)


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


def generator_worst_case(cfg, epsilon, birth_scale=1.0):
    """sup of (a'' - a') times the generator's norm from a'' to a', on 20 scales in [alpha, alpha0].

    The birth part with rows (|a|, |b|) on the constant hierarchy v_n = a''^-n,
    times z, plus the death part's n v_n, is at each entry at least
    sum_j |L_ij| v_j, so its scale norm at a' bounds the induced norm, sharp
    up to sign cancellations.  birth_scale multiplies the birth part.
    """
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    rows = tuple(np.abs(r) for r in shift_rows(pot, [epsilon]))
    scales = np.linspace(cfg.alpha, cfg.alpha0, 20).tolist()
    sup = 0.0
    for j, a_dprime in enumerate(scales[1:], start=1):
        v = [np.full((grid.n_sites,) * n, a_dprime**-n) for n in range(cfg.n_max + 1)]
        birth = gl.apply_birth(gl.CorrelationHierarchy(grid, v), pot, epsilon, rows=rows)
        profile = [float(np.max(birth_scale * cfg.z * b + n * t))
                   for n, (b, t) in enumerate(zip(birth.tensors, v))]
        sup = max([sup] + [(a_dprime - a) * gl.scale_norm(profile, a) for a in scales[:j]])
    return sup


@pytest.mark.parametrize("conf", ["default.conf", "chaos.conf"])
def test_generator_estimate_holds_at_its_worst_case(conf):
    # random states reach about 2e-2 of M/gap; the worst case over all states
    # reaches 0.596-0.634 (default) and 0.653-0.700 (chaos) of M = 2.083.  A
    # birth part 6x too large gives 2.10-2.59 and breaks the bound in each
    # case; 4x (1.50-1.83) does not, 5x only on chaos.conf at epsilon 0
    cfg = parse_config(CONFIG_DIR / conf)
    big_m = gl.norm_bound_M(build_scale_params(cfg), build_potential(cfg, build_grid(cfg)))
    for epsilon in (gl.GLAUBER, 0.5, gl.VLASOV_LIMIT):
        assert generator_worst_case(cfg, epsilon) < big_m
        assert generator_worst_case(cfg, epsilon, birth_scale=6.0) > big_m


@pytest.mark.parametrize("n_sites,n_max", ORACLE_SHAPES)
def test_apply_birth_matches_per_site_oracle_bitwise(n_sites, n_max):
    grid = gl.make_grid(n_sites, 5.0)
    pot = gl.gaussian_potential(grid, 0.7, 1.3)
    rng = np.random.default_rng(100 + n_max)
    k = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.8)
    for kind in ORACLE_KINDS:
        # the oracle sums each permuted entry in its own order; apply_birth
        # keeps its bits at the sorted tuples and writes them to each orbit
        assert_orbit_bits(gl.apply_birth(k, pot, kind).tensors, apply_birth_oracle(k, pot, kind))


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


@pytest.mark.parametrize("shape,top_rows", [("gaussian", 2 * 7 + 1), ("zero", 3)])
def test_birth_terms_contract_one_top_row_where_a_is_all_ones(monkeypatch, shape, top_rows):
    # a block of shift rows whose a is all ones scales theta by exact ones: its
    # N top-order rows are one row, contracted once (at epsilon = 0, and at
    # every epsilon where phi = 0)
    grid = gl.make_grid(7, 5.0)
    pot = gl.gaussian_potential(grid, 0.7, 1.3) if shape == "gaussian" else gl.zero_potential(grid)
    k = gl.random_ruelle_hierarchy(grid, 3, np.random.default_rng(410), envelope=0.8)
    rows = []
    contract = generators._contract_leading
    monkeypatch.setattr(
        generators, "_contract_leading", lambda t, r, c: rows.append(len(r)) or contract(t, r, c)
    )
    birth_gf_terms(k, gl.GridField(grid, np.full(7, 0.3)), *shift_rows(pot, [1.0, 0.25, 0.0]))
    assert rows == [top_rows]


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


def generator_peak(k, params, pot, epsilon):
    """Peak traced bytes of one apply_generator call."""
    tracemalloc.start()
    try:
        gl.apply_generator(k, params, pot, epsilon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_apply_generator_working_set_is_a_few_top_tensors():
    # the first call of a shape also builds the shape's orbit tables and
    # peaks at 4.05 top tensors; a call that finds them built peaks at 1.756
    grid, pot, params, rng = standard_setup(n_sites=64, n_max=3)
    k = gl.random_ruelle_hierarchy(grid, 3, rng, envelope=0.5)
    top_bytes = k.tensors[3].nbytes
    hierarchy._orbit_index.cache_clear()
    assert generator_peak(k, params, pot, gl.GLAUBER) < 4.5 * top_bytes
    assert generator_peak(k, params, pot, gl.GLAUBER) < 1.9 * top_bytes


@pytest.mark.parametrize("shape", ["zero", "gaussian", "tophat"])
def test_apply_generator_is_the_formula_byte_for_byte(shape):
    # in place, apply_generator must keep every bit of z * birth - death,
    # the -0.0 that zero's b_x = -phi gives at epsilon 0 included, at every
    # representative, and write it to every entry of its orbit
    grid = gl.make_grid(5, 5.0)
    pots = {
        "zero": gl.zero_potential(grid),
        "gaussian": gl.gaussian_potential(grid, 0.7, 1.3),
        "tophat": gl.tophat_potential(grid, 0.4, 1.5),
    }
    params = gl.ScaleParams(0.5, 1.0, 0.75)
    for n_max in range(5):
        k = planted_hierarchy(grid, n_max, seed=n_max)
        before = [t.tobytes() for t in k.tensors]
        for epsilon in (1.0, 0.25, 0.0):
            out = gl.apply_generator(k, params, pots[shape], epsilon).tensors
            assert_orbit_bits(out, apply_generator_formula(k, params, pots[shape], epsilon))
        assert [t.tobytes() for t in k.tensors] == before


SHORTCUT_EPSILONS = (1.0, 0.25, 0.0, 1e-300)


def planted_hierarchy(grid, n_max, seed):
    """A random hierarchy, symmetric bit for bit, with +0.0 and -0.0 planted over whole orbits
    of every order, and -0.0 in k_0 for odd seeds."""
    rng = np.random.default_rng(seed)
    tensors = [t.copy() for t in gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.8).tensors]
    if seed % 2:
        tensors[0] = np.array(-0.0)
    plant_signed_zeros_by_orbit(tensors, rng)
    return gl.CorrelationHierarchy(grid, tensors)


def bits(tensors):
    return [(t.shape, t.tobytes()) for t in tensors]


@pytest.mark.parametrize("shape,epsilon", [("gaussian", 1.0), ("gaussian", 0.0), ("zero", 1.0)])
def test_apply_generator_working_set_at_the_evolve_size(shape, epsilon):
    # Peak over the top tensor at (16, 4), once the shape's orbit tables are
    # built: 1.145, the unpacked result and the orbit values it is unpacked
    # from.  The first call of the shape also builds the tables: 2.70.  The
    # a = 1 and b = 0 shortcuts must not raise either.
    grid, _, params, rng = standard_setup(n_sites=16, n_max=4)
    pot = shape_potential(shape, grid)
    k = gl.random_ruelle_hierarchy(grid, 4, rng, envelope=0.5)
    hierarchy._orbit_index.cache_clear()
    assert generator_peak(k, params, pot, epsilon) <= 3.0 * k.tensors[4].nbytes
    assert generator_peak(k, params, pot, epsilon) <= 1.2 * k.tensors[4].nbytes


@pytest.mark.parametrize("shape", ["zero", "gaussian", "tophat"])
def test_prebuilt_shift_rows_keep_the_bits(shape):
    # with the shift rows built beforehand, as the Taylor loop builds them,
    # apply_generator and apply_birth give what a fresh call gives bit for bit
    grid = gl.make_grid(5, 5.0)
    pot = shape_potential(shape, grid)
    params = gl.ScaleParams(0.5, 1.0, 0.75)
    for n_max in range(5):
        k = planted_hierarchy(grid, n_max, seed=n_max)
        before = bits(k.tensors)
        for epsilon in SHORTCUT_EPSILONS:
            rows = shift_rows(pot, [epsilon])
            got = gl.apply_generator(k, params, pot, epsilon, rows=rows)
            assert bits(got.tensors) == bits(gl.apply_generator(k, params, pot, epsilon).tensors)
            birth = gl.apply_birth(k, pot, epsilon, rows=rows)
            assert bits(birth.tensors) == bits(gl.apply_birth(k, pot, epsilon).tensors)
        assert bits(k.tensors) == before


@pytest.mark.parametrize("n_sites", [2, 5, 16])
@pytest.mark.parametrize("shape", ["zero", "gaussian", "tophat"])
def test_birth_shortcuts_keep_the_full_sums_bits(shape, n_sites):
    # skipping b = 0 contractions, a = 1 products and the zeros-started sum,
    # and summing at the representatives only, must give what running them
    # all gives at each representative, signed zeros included; the orbit
    # route writes that to every entry of the orbit
    grid = gl.make_grid(n_sites, float(n_sites))
    pot = shape_potential(shape, grid)
    params = gl.ScaleParams(0.5, 1.0, 0.75)
    for n_max in range(5):
        k = planted_hierarchy(grid, n_max, seed=n_max)
        for epsilon in SHORTCUT_EPSILONS:
            birth = apply_birth_full(k, pot, epsilon)
            assert_orbit_bits(gl.apply_birth(k, pot, epsilon).tensors, birth)
            generator = [np.array(0.0)]
            for n in range(1, n_max + 1):
                birth[n] *= params.z
                birth[n] -= n * k.tensors[n]
                generator.append(birth[n])
            assert_orbit_bits(gl.apply_generator(k, params, pot, epsilon).tensors, generator)


@pytest.mark.parametrize("n_sites", [2, 5, 16])
def test_substitute_affine_shortcuts_keep_the_full_sums_bits(n_sites):
    grid = gl.make_grid(n_sites, float(n_sites))
    rng = np.random.default_rng(n_sites)
    for n_max in range(5):
        k = planted_hierarchy(grid, n_max, seed=n_max + 1)
        for a in (rng.uniform(0.5, 1.5, n_sites), np.ones(n_sites)):
            for b in (rng.uniform(-1.0, 1.0, n_sites), np.full(n_sites, -0.0)):
                out = gl.substitute_affine(k, gl.GridField(grid, a), gl.GridField(grid, b))
                full = substitute_affine_rows_full(k, a[np.newaxis], b[np.newaxis], n_max)
                assert_orbit_bits(out.tensors, [t[0] for t in full])


def test_extreme_spacings_keep_the_full_sums_bits():
    # dx^j/j! overflows on the first grid: the full sum's 0 * inf is nan, so
    # the b = 0 shortcut must not fire
    grid = gl.make_grid(2, 1e300)
    k = gl.exponential_hierarchy(gl.GridField(grid, np.full(2, 1e-200)), 3)
    with np.errstate(invalid="ignore"):
        out = gl.apply_birth(k, gl.zero_potential(grid), gl.GLAUBER).tensors
        full = apply_birth_full(k, gl.zero_potential(grid), gl.GLAUBER)
    assert np.isnan(out[1]).all()
    assert bits(out) == bits(full)
    # on the second every weighted row underflows to -0.0, so each order-0
    # row is -0.0 + -0.0, and only a sum started from +0 makes order 1 +0.0
    grid = gl.make_grid(2, 2e-200)
    pot = shape_potential("gaussian", grid)
    k = gl.CorrelationHierarchy(grid, [np.array(-0.0), np.full(2, 1e-150)])
    out = gl.apply_birth(k, pot, gl.VLASOV_LIMIT).tensors
    assert bits(out) == bits(apply_birth_full(k, pot, gl.VLASOV_LIMIT))
    assert out[1].tobytes() == np.zeros(2).tobytes()


def test_tensor_route_overflow_reads_inf_without_a_warning():
    # numpy's overflow RuntimeWarning reached direct library calls; only the
    # Taylor loop's errstate hid it
    grid = gl.make_grid(4, 4e300)
    k = gl.exponential_hierarchy(gl.constant_field(grid, 1e10), 1)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    one = gl.constant_field(grid, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        birth = gl.apply_birth(k, pot, gl.GLAUBER)
        generated = gl.apply_generator(k, gl.ScaleParams(0.5, 1.0, 0.5), pot, gl.GLAUBER)
        # it ended invalid-argument through the constructor's finiteness scan
        with pytest.raises(NonfiniteStateError, match="^substituted hierarchy has non-finite entries$"):
            gl.substitute_affine(k, one, one)
    assert np.isinf(birth.tensors[1]).all()
    assert np.isinf(generated.tensors[1]).all()


def test_zero_potential_birth_runs_no_contraction(monkeypatch):
    calls = []
    contract = hierarchy._contract_first

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return contract(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "_contract_first", counted)
    grid = gl.make_grid(6, 6.0)
    k = gl.random_ruelle_hierarchy(grid, 4, np.random.default_rng(0), envelope=0.8)
    for epsilon in SHORTCUT_EPSILONS:
        gl.apply_birth(k, gl.zero_potential(grid), epsilon)
    assert calls == []
    gl.apply_birth(k, shape_potential("gaussian", grid), gl.GLAUBER)
    assert len(calls) == 4 + 3 + 2 + 1  # the counter sees the full sum's contractions


@pytest.mark.parametrize("shape", ["gaussian", "tophat"])
def test_limit_shift_has_unit_a(shape):
    # the a = 1 shortcut's precondition at epsilon = 0
    grid = gl.make_grid(16, 16.0)
    a_rows, b_rows = shift_rows(shape_potential(shape, grid), [gl.VLASOV_LIMIT])
    assert np.all(a_rows == 1.0)
    assert b_rows.any()


def test_zero_potential_shift_is_the_identity():
    # the a = 1 and b = 0 shortcuts' precondition on a zero potential
    grid = gl.make_grid(16, 16.0)
    for epsilon in (1.0, 0.25, 0.0):
        a_rows, b_rows = shift_rows(gl.zero_potential(grid), [epsilon])
        assert np.all(a_rows == 1.0)
        assert not b_rows.any()
