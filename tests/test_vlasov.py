import math

import numpy as np
import pytest

import glauberlab as gl
from glauberlab.errors import InvalidArgumentError, MemoryGuardError, NonfiniteStateError

from helpers import exponential_gf_eval


def test_vlasov_rhs_fixed_point_and_empty():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    z = 0.9
    rhs = gl.vlasov_rhs(gl.constant_field(grid, z), z, pot)
    assert np.all(rhs.values == 0.0)
    from_empty = gl.vlasov_rhs(gl.constant_field(grid, 0.0), z, pot)
    assert np.allclose(from_empty.values, z, rtol=0, atol=0)


def test_vlasov_rhs_matches_pointwise_formula():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rng = np.random.default_rng(0)
    rho = gl.GridField(grid, rng.uniform(0.0, 1.0, 8))
    z = 0.7
    out = gl.vlasov_rhs(rho, z, pot)
    conv = gl.convolve(pot, rho)
    for x in range(8):
        expected = -rho.values[x] + z * math.exp(-conv.values[x])
        assert math.isclose(out.values[x], expected, rel_tol=1e-14)


def test_integrate_closed_form():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    cfg = gl.VlasovConfig(z=1.0, dt=1e-3, scheme="rk4", t_final=1.0)
    final, trajectory = gl.integrate(gl.constant_field(grid, 0.0), cfg, pot)
    target = 1.0 - math.exp(-1.0)
    assert abs(target - 0.6321205588) <= 1e-9
    assert np.max(np.abs(final.values - target)) <= 1e-8
    assert trajectory[0][0] == 0.0
    assert trajectory[-1][0] == 1.0


def test_integrate_zero_time_returns_initial():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rho0 = gl.constant_field(grid, 0.4)
    cfg = gl.VlasovConfig(z=1.0, dt=0.1, t_final=0.0)
    final, trajectory = gl.integrate(rho0, cfg, pot)
    assert np.array_equal(final.values, rho0.values)
    assert len(trajectory) == 1


def test_integrate_rk4_step_halving_ratio():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rng = np.random.default_rng(1)
    rho0 = gl.GridField(grid, rng.uniform(0.2, 0.8, 8))

    def run(dt):
        cfg = gl.VlasovConfig(z=0.8, dt=dt, scheme="rk4", t_final=1.0)
        return gl.integrate(rho0, cfg, pot)[0].values

    reference = run(0.05 / 16)
    err_coarse = np.max(np.abs(run(0.05) - reference))
    err_fine = np.max(np.abs(run(0.025) - reference))
    assert 12.0 <= err_coarse / err_fine <= 20.0


def test_integrate_euler_is_first_order():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rho0 = gl.constant_field(grid, 0.3)

    def run(dt, scheme):
        cfg = gl.VlasovConfig(z=0.8, dt=dt, scheme=scheme, t_final=1.0)
        return gl.integrate(rho0, cfg, pot)[0].values

    reference = run(0.02 / 64, "rk4")
    err_coarse = np.max(np.abs(run(0.02, "euler") - reference))
    err_fine = np.max(np.abs(run(0.01, "euler") - reference))
    assert 1.7 <= err_coarse / err_fine <= 2.3


def test_integrate_rejects_negative_initial():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    bad = gl.GridField(grid, np.array([0.1] * 7 + [-0.2]))
    with pytest.raises(InvalidArgumentError):
        gl.integrate(bad, gl.VlasovConfig(z=1.0, dt=0.1, t_final=1.0), pot)


def test_integrate_flags_nonfinite_state():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    cfg = gl.VlasovConfig(z=1e308, dt=1.0, t_final=2.0)
    with np.errstate(over="ignore"), pytest.raises(NonfiniteStateError):
        gl.integrate(gl.constant_field(grid, 0.0), cfg, pot)


def test_vlasov_config_validation():
    with pytest.raises(InvalidArgumentError):
        gl.VlasovConfig(z=1.0, dt=0.5, t_final=0.1)
    with pytest.raises(InvalidArgumentError):
        gl.VlasovConfig(z=1.0, dt=0.1, scheme="rk9", t_final=1.0)
    # a nan stride was accepted, and integrate then kept only t = 0 and t_final
    for bad in (0, math.nan):
        with pytest.raises(InvalidArgumentError, match="sample_stride must be at least 1"):
            gl.VlasovConfig(z=1.0, dt=0.25, t_final=1.0, sample_stride=bad)


def test_linf_bound_check():
    grid = gl.make_grid(8, 8.0)
    z = 1.0
    for pot in (gl.zero_potential(grid), gl.gaussian_potential(grid, 0.5, 1.0)):
        rho0 = gl.constant_field(grid, z / 2)
        cfg = gl.VlasovConfig(z=z, dt=1e-2, t_final=2.0)
        _, trajectory = gl.integrate(rho0, cfg, pot)
        assert gl.linf_bound_check(trajectory, rho0, z)

    rho0 = gl.constant_field(grid, 0.5)
    spiked = [(0.0, rho0.values.copy()), (1.0, rho0.values + 10.0)]
    assert not gl.linf_bound_check(spiked, rho0, z)
    dipped = [(0.0, rho0.values.copy()), (1.0, rho0.values - 1.0)]
    assert not gl.linf_bound_check(dipped, rho0, z)


def test_stationary_residual_examples():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    assert gl.stationary_residual(gl.constant_field(grid, 0.6), 0.6, pot) == 0.0
    assert gl.stationary_residual(gl.constant_field(grid, 0.0), 1.0, pot) == 1.0


def test_long_time_contraction_fixed_point():
    # z ||phi||_1 = 0.5 * 0.886 < 1: contraction regime, so the long-time
    # state must be nearly stationary.
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    z = 0.5
    cfg = gl.VlasovConfig(z=z, dt=1e-2, t_final=30.0, sample_stride=100)
    final, trajectory = gl.integrate(gl.constant_field(grid, z / 2), cfg, pot)
    assert gl.stationary_residual(final, z, pot) <= 1e-6
    assert gl.linf_bound_check(trajectory, gl.constant_field(grid, z / 2), z)


def test_exponential_gf_eval():
    grid = gl.make_grid(8, 8.0)
    rho = gl.constant_field(grid, 0.3)
    assert exponential_gf_eval(rho, gl.constant_field(grid, 0.0)) == 1.0
    theta = gl.constant_field(grid, 0.2)
    assert math.isclose(
        exponential_gf_eval(rho, theta), math.exp(0.3 * 0.2 * 8.0), rel_tol=1e-14
    )
    # truncated hierarchy evaluation differs by at most ~ the first dropped term
    n_max = 4
    k = gl.exponential_hierarchy(rho, n_max)
    u = 0.3 * 0.2 * 8.0
    tail = u ** (n_max + 1) / math.factorial(n_max + 1)
    diff = abs(exponential_gf_eval(rho, theta) - gl.evaluate_gf(k, theta))
    assert diff <= tail * 2.0


def test_chaos_propagation_time_derivative_consistency():
    # d/dt exp(sum rho_t theta dx) along the kinetic flow must match the
    # generator evaluation on the product hierarchy, up to truncation tail
    # and the finite-difference step.
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    z = 0.5
    rho0 = gl.constant_field(grid, 0.2)
    assert gl.field_linf_norm(gl.convolve(pot, rho0)) <= 0.2
    params = gl.ScaleParams(0.5, 1.0, z)
    rng = np.random.default_rng(2)
    theta = gl.GridField(grid, rng.uniform(-0.05, 0.05, 8))

    t_mid, h = 0.1, 5e-3

    def rho_at(t):
        if t == 0.0:
            return rho0
        cfg = gl.VlasovConfig(z=z, dt=1e-3, t_final=t)
        return gl.integrate(rho0, cfg, pot)[0]

    fd = (
        exponential_gf_eval(rho_at(t_mid + h), theta)
        - exponential_gf_eval(rho_at(t_mid - h), theta)
    ) / (2 * h)
    k_mid = gl.exponential_hierarchy(rho_at(t_mid), 6)
    gen = gl.evaluate_generator_gf(k_mid, theta, params, pot, gl.VLASOV_LIMIT)
    assert abs(fd - gen) <= 1e-3


def test_vlasov_config_rejects_non_finite_step_and_horizon():
    for dt, t_final in ((math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(InvalidArgumentError):
            gl.VlasovConfig(z=1.0, dt=dt, t_final=t_final)


def test_integrate_step_count_guard_fails_before_stepping():
    # dt = 1e-300 used to hang in an unbounded step loop
    grid = gl.make_grid(8, 8.0)
    rho0 = gl.constant_field(grid, 0.5)
    pot = gl.zero_potential(grid)
    for dt, t_final in ((1e-300, 0.05), (1e-300, 1e300)):
        cfg = gl.VlasovConfig(z=1.0, dt=dt, t_final=t_final)
        with pytest.raises(MemoryGuardError):
            gl.integrate(rho0, cfg, pot)
    # the largest benchmarked run, 200 steps on 512 sites, stays inside the guard
    big = gl.make_grid(512, 64.0)
    _, trajectory = gl.integrate(
        gl.constant_field(big, 0.5),
        gl.VlasovConfig(z=0.5, dt=0.01, t_final=2.0, sample_stride=100),
        gl.zero_potential(big),
    )
    assert trajectory[-1][0] == 2.0


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize(
    "t_final,times",
    [
        (0.875, [0.0, 0.5, 0.875]),  # remainder step 4 is a multiple of the stride
        (0.625, [0.0, 0.5, 0.625]),  # remainder step 3 is not
        (1.0, [0.0, 0.5, 1.0]),  # last full step 4 is a multiple of the stride
        (0.75, [0.0, 0.5, 0.75]),  # last full step 3 is not
        (0.0, [0.0]),  # no step: the initial sample is the final one
    ],
)
def test_integrate_samples_every_stride_and_the_final_time_once(scheme, t_final, times):
    grid = gl.make_grid(4, 4.0)
    cfg = gl.VlasovConfig(z=0.5, dt=0.25, scheme=scheme, t_final=t_final, sample_stride=2)
    final, trajectory = gl.integrate(gl.constant_field(grid, 0.2), cfg, gl.zero_potential(grid))
    assert [t for t, _ in trajectory] == times
    assert np.array_equal(trajectory[-1][1], final.values)
